package service

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/algreg"
	"repro/internal/dist"
)

// resultCache is the bounded, lock-striped LRU from cache key to cacheValue.
// Determinism makes it trivially coherent: a key has exactly one possible
// value, so there are no invalidation or versioning concerns — eviction is
// purely a capacity matter, and concurrent fills of one key converge
// (first-wins) on a single shared entry.
type resultCache struct {
	lru *shardedLRU[*cacheValue]
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{lru: newShardedLRU[*cacheValue](capacity, 0)}
}

// newResultCacheShards pins the shard count — tests use it to prove hit/miss
// behavior is shard-layout independent.
func newResultCacheShards(capacity, shards int) *resultCache {
	return &resultCache{lru: newShardedLRU[*cacheValue](capacity, shards)}
}

func (c *resultCache) get(key string) (*cacheValue, bool) { return c.lru.get(key) }

func (c *resultCache) getHash(key string, h uint64) (*cacheValue, bool) {
	return c.lru.getHash(key, h)
}

// put stores v, accounting its stored bytes (the session record, or the
// coloring entry's first body), and returns the canonical entry for the key
// (v itself, or the earlier value it lost the fill race to).
func (c *resultCache) put(key string, v *cacheValue) *cacheValue {
	return c.putHash(key, cacheHashString(key), v)
}

func (c *resultCache) putHash(key string, h uint64, v *cacheValue) *cacheValue {
	return c.lru.putHash(key, h, v, len(v.rec)+len(v.body))
}

func (c *resultCache) snapshot() CacheStats { return c.lru.snapshot() }

// cacheValue is one result-cache entry. A coloring entry holds its record's
// head (the record without its colors) and fully rendered HTTP response
// bodies, memoized per requesting graph name; the first body, rendered when
// the entry is built, is the entry's one copy of the colors, and every
// reader that needs them as integers (the typed API, aliased-name renders,
// peer fill) decodes them from it. The record is key-determined and shared;
// the rendered body also echoes the request's own spec string, and distinct
// specs can build fingerprint-identical graphs (Path(6) and Grid(6,1),
// say), so bodies memoize per name. Rendering happens at most once per
// (key, name): every later hit returns the same byte slice, with no JSON
// work at all. A session-read entry (readColors) holds its encoded record
// in rec instead, and no body.
//
// Entries are long-lived and a busy cache holds thousands, so they are kept
// lean: every body is stored at exact length, and the first rendered body —
// in practice the only one — lives inline, the bodies map existing only for
// aliased names.
type cacheValue struct {
	key  string
	rec  []byte     // session-read entries: the encoded dynamic record
	head recordHead // coloring entries

	mu     sync.Mutex // guards bodies
	name   string     // graph name of the inline body
	body   []byte     // first rendered body; immutable once the entry is built
	bodies map[string][]byte
}

// recordHead is a record without its colors. Kind, alg and quality are the
// registry entry's own strings: the key fixes the algorithm, so every
// request reaching an entry resolved to the same one.
type recordHead struct {
	alg                              *algreg.Algorithm
	n, m, delta, palette, colorsUsed int
	stats                            dist.Stats
}

// maxBodiesPerValue caps the per-entry rendered-body memo, the inline body
// included. Aliased specs are rare (they require fingerprint-identical
// graphs under different names); past the cap, bodies render per request
// without being retained.
const maxBodiesPerValue = 8

func newCacheValue(key string, rec []byte) *cacheValue {
	return &cacheValue{key: key, rec: exact(rec)}
}

// newRecordValue builds the coloring entry of rec, computed by alg, with
// its body rendered for graphName.
func newRecordValue(key string, alg *algreg.Algorithm, rec *record, graphName string) (*cacheValue, error) {
	b, err := renderBody(rec.response(key, graphName))
	if err != nil {
		return nil, err
	}
	return &cacheValue{
		key: key,
		head: recordHead{
			alg: alg,
			n:   rec.n, m: rec.m, delta: rec.delta,
			palette: rec.palette, colorsUsed: rec.colorsUsed,
			stats: rec.stats,
		},
		name: graphName,
		body: b,
	}, nil
}

// renderBody returns exactly the bytes json.Encoder writes for resp
// (marshal plus trailing newline), at exact length, so cached bodies are
// byte-identical to freshly encoded ones by construction.
func renderBody(resp *Response) ([]byte, error) {
	j, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	b := make([]byte, len(j)+1)
	copy(b, j)
	b[len(j)] = '\n'
	return b, nil
}

// exact copies b into an allocation of its own length, so a cached value
// does not pin the spare capacity of the buffer it was built in.
func exact(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// record reassembles a coloring entry's full record: its head plus the
// colors decoded from the inline body.
func (v *cacheValue) record() (*record, error) {
	var body struct {
		Colors []int `json:"colors"`
	}
	if err := json.Unmarshal(v.body, &body); err != nil {
		return nil, fmt.Errorf("service: corrupt cached body: %w", err)
	}
	h := &v.head
	return &record{
		kind: h.alg.Kind, alg: h.alg.Name, quality: h.alg.Quality,
		n: h.n, m: h.m, delta: h.delta, palette: h.palette,
		colorsUsed: h.colorsUsed,
		colors:     body.Colors,
		stats:      h.stats,
	}, nil
}

// lookup returns the memoized body for graphName; the caller holds mu.
func (v *cacheValue) lookup(graphName string) []byte {
	if v.name == graphName {
		return v.body
	}
	return v.bodies[graphName]
}

// bodyFor returns the rendered JSON response body of this coloring entry for
// a request naming graphName, rendering and memoizing it on an aliased
// name's first request.
func (v *cacheValue) bodyFor(graphName string) ([]byte, error) {
	v.mu.Lock()
	b := v.lookup(graphName)
	v.mu.Unlock()
	if b != nil {
		return b, nil
	}
	rec, err := v.record()
	if err != nil {
		return nil, err
	}
	if b, err = renderBody(rec.response(v.key, graphName)); err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	switch cur := v.lookup(graphName); {
	case cur != nil:
		b = cur // a concurrent render won; share its bytes
	case len(v.bodies)+1 < maxBodiesPerValue:
		if v.bodies == nil {
			v.bodies = make(map[string][]byte, 1)
		}
		v.bodies[graphName] = b
	}
	return b, nil
}
