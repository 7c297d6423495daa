package service

import (
	"encoding/json"
	"sync"
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

// put stores v, accounting the wire record's size, and returns the canonical
// entry for the key (v itself, or the earlier value it lost the fill race to).
func (c *resultCache) put(key string, v *cacheValue) *cacheValue {
	return c.putHash(key, cacheHashString(key), v)
}

func (c *resultCache) putHash(key string, h uint64, v *cacheValue) *cacheValue {
	return c.lru.putHash(key, h, v, len(v.rec))
}

func (c *resultCache) snapshot() CacheStats { return c.lru.snapshot() }

// cacheValue is one result-cache entry: the wire-encoded record (the source
// of truth the in-process API decodes) plus fully rendered HTTP response
// bodies, memoized per requesting graph name. The record is key-determined
// and shared; the rendered body also echoes the request's own spec string,
// and distinct specs can build fingerprint-identical graphs (Path(6) and
// Grid(6,1), say), so bodies memoize per name. Rendering happens at most
// once per (key, name): every later hit returns the same byte slice, with
// no JSON work at all.
//
// Entries are long-lived and a busy cache holds thousands, so they are kept
// lean: rec and every body are stored at exact length, and the first
// rendered body — in practice the only one — lives inline, the bodies map
// existing only for aliased names.
type cacheValue struct {
	key string
	rec []byte

	mu     sync.RWMutex
	name   string // graph name of the inline body
	body   []byte // first rendered body, nil until rendered
	bodies map[string][]byte
}

// maxBodiesPerValue caps the per-entry rendered-body memo, the inline body
// included. Aliased specs are rare (they require fingerprint-identical
// graphs under different names); past the cap, bodies render per request
// without being retained.
const maxBodiesPerValue = 8

func newCacheValue(key string, rec []byte) *cacheValue {
	return &cacheValue{key: key, rec: exact(rec)}
}

// exact copies b into an allocation of its own length, so a cached value
// does not pin the spare capacity of the buffer it was built in.
func exact(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// lookup returns the memoized body for graphName; the caller holds mu.
func (v *cacheValue) lookup(graphName string) []byte {
	if v.body != nil && v.name == graphName {
		return v.body
	}
	return v.bodies[graphName]
}

// bodyFor returns the rendered JSON response body of this record for a
// request naming graphName — exactly the bytes json.Encoder would write for
// the decoded record's Response (marshal plus trailing newline), so cached
// bodies are byte-identical to freshly encoded ones by construction.
func (v *cacheValue) bodyFor(graphName string) ([]byte, error) {
	v.mu.RLock()
	b := v.lookup(graphName)
	v.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	rec, err := decodeRecord(v.rec)
	if err != nil {
		return nil, err
	}
	j, err := json.Marshal(rec.response(v.key, graphName))
	if err != nil {
		return nil, err
	}
	b = make([]byte, len(j)+1)
	copy(b, j)
	b[len(j)] = '\n'
	v.mu.Lock()
	defer v.mu.Unlock()
	switch cur := v.lookup(graphName); {
	case cur != nil:
		b = cur // a concurrent render won; share its bytes
	case v.body == nil:
		v.name, v.body = graphName, b
	case len(v.bodies)+1 < maxBodiesPerValue:
		if v.bodies == nil {
			v.bodies = make(map[string][]byte, 1)
		}
		v.bodies[graphName] = b
	}
	return b, nil
}
