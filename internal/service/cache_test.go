package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestShardedCacheLayoutIndependence pins the determinism property of the
// striped LRU: hit/miss behavior for a working set within capacity is a
// function of the keys alone, not of the shard layout. The same key sequence
// against 1, 2, 8, and 64 shards must produce identical lookup results.
func TestShardedCacheLayoutIndependence(t *testing.T) {
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	for _, shards := range []int{1, 2, 8, 64} {
		// Capacity ≥ shards × len(keys) guarantees no shard can evict even
		// if every key landed in one shard: presence is then layout-free.
		c := newResultCacheShards(shards*len(keys), shards)
		for i, k := range keys {
			if _, ok := c.get(k); ok {
				t.Fatalf("shards=%d: %q present before put", shards, k)
			}
			c.put(k, newCacheValue(k, []byte(k)))
			if i%2 == 0 { // interleave repeat lookups with fills
				for _, earlier := range keys[:i+1] {
					v, ok := c.get(earlier)
					if !ok {
						t.Fatalf("shards=%d: %q missing after put", shards, earlier)
					}
					if string(v.rec) != earlier {
						t.Fatalf("shards=%d: %q returned wrong value %q", shards, earlier, v.rec)
					}
				}
			}
		}
		st := c.snapshot()
		if st.Entries != len(keys) {
			t.Fatalf("shards=%d: %d entries, want %d", shards, st.Entries, len(keys))
		}
		if st.Shards != shards {
			t.Fatalf("shards=%d: snapshot reports %d shards", shards, st.Shards)
		}
		if st.Misses != int64(len(keys)) {
			t.Fatalf("shards=%d: %d misses, want %d (one per first lookup)", shards, st.Misses, len(keys))
		}
	}
}

// TestShardedCacheFirstWins pins the fill-race contract: a second put of an
// existing key keeps and returns the first value, so concurrent fillers of
// one key converge on a single shared entry.
func TestShardedCacheFirstWins(t *testing.T) {
	c := newResultCache(8)
	a := newCacheValue("k", []byte("first"))
	b := newCacheValue("k", []byte("second"))
	if got := c.put("k", a); got != a {
		t.Fatal("first put must return its own value")
	}
	if got := c.put("k", b); got != a {
		t.Fatal("second put must return the first value (first-wins)")
	}
	if v, _ := c.get("k"); v != a {
		t.Fatal("lookup must return the first value")
	}
	if st := c.snapshot(); st.Bytes != int64(len("first")) {
		t.Fatalf("losing put must not be accounted: bytes %d", st.Bytes)
	}
}

// TestShardedCacheConcurrentEviction churns a small sharded cache from many
// goroutines (distinct key streams, shared hot keys, snapshots in flight)
// and then checks the accounting invariants: entries within capacity, bytes
// matching the surviving entries exactly, evictions consistent with the
// number of puts. Run under -race this is also the striping race test.
func TestShardedCacheConcurrentEviction(t *testing.T) {
	const capacity, shards = 64, 4
	lru := newShardedLRU[int](capacity, shards)
	var wg sync.WaitGroup
	const writers, perWriter = 8, 400
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if i%5 == 0 {
					key = fmt.Sprintf("hot-%d", i%7) // contended cross-writer keys
				}
				lru.put(key, i, len(key))
				lru.get(key)
				if i%97 == 0 {
					lru.snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	st := lru.snapshot()
	if st.Entries == 0 || st.Entries > capacity {
		t.Fatalf("entries %d out of bounds (cap %d)", st.Entries, capacity)
	}
	// The per-shard LRU bound: no shard may exceed its capacity slice.
	per := (capacity + shards - 1) / shards
	for i := range lru.shards {
		sh := &lru.shards[i]
		sh.mu.Lock()
		n := sh.order.Len()
		sh.mu.Unlock()
		if n > per {
			t.Fatalf("shard %d holds %d entries, per-shard cap %d", i, n, per)
		}
	}
	// Quiescent bytes must equal the sum over surviving entries.
	var want int64
	for i := range lru.shards {
		sh := &lru.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			want += int64(el.Value.(*lruEntry[int]).size)
		}
		sh.mu.Unlock()
	}
	if st.Bytes != want {
		t.Fatalf("accounted bytes %d, surviving entries sum to %d", st.Bytes, want)
	}
}

// TestShardedCacheSnapshotMatchesShards pins the aggregation contract:
// snapshot() totals equal the sum of the per-shard counters and sizes.
func TestShardedCacheSnapshotMatchesShards(t *testing.T) {
	lru := newShardedLRU[string](32, 8)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%02d", i%40)
		lru.get(k)
		lru.put(k, k, len(k))
	}
	got := lru.snapshot()
	var want CacheStats
	want.Shards = len(lru.shards)
	for i := range lru.shards {
		sh := &lru.shards[i]
		sh.mu.Lock()
		want.Entries += sh.order.Len()
		sh.mu.Unlock()
		want.Hits += sh.hits.Load()
		want.Misses += sh.misses.Load()
		want.Evictions += sh.evictions.Load()
		want.Bytes += sh.bytes.Load()
	}
	if got != want {
		t.Fatalf("snapshot %+v, sum of shards %+v", got, want)
	}
	if got.Hits == 0 || got.Misses == 0 {
		t.Fatalf("test exercised no hits or no misses: %+v", got)
	}
}

// TestShardsFor pins the adaptive shard sizing: power-of-two counts, single
// shard (strict global LRU) for small caches, capped striping for large.
func TestShardsFor(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1}, {2, 1}, {63, 1}, {64, 2}, {128, 4}, {4096, 64}, {1 << 20, 64},
	}
	for _, c := range cases {
		if got := shardsFor(c.capacity); got != c.want {
			t.Errorf("shardsFor(%d) = %d, want %d", c.capacity, got, c.want)
		}
	}
}

// TestCacheValueBodies pins the rendered-body memo: every name renders the
// json.Encoder bytes, the first name lives inline and later aliases in the
// map, repeats share one slice, and past maxBodiesPerValue names render
// without being retained.
func TestCacheValueBodies(t *testing.T) {
	rec := &record{kind: "edge", alg: "be", n: 3, m: 2, delta: 2, palette: 3, colors: []int{1, 2}}
	enc := rec.encode()
	v := newCacheValue("k", enc)
	if !bytes.Equal(v.rec, enc) || cap(v.rec) != len(v.rec) {
		t.Fatalf("rec stored with len %d cap %d, want an exact copy of %d bytes", len(v.rec), cap(v.rec), len(enc))
	}
	names := make([]string, maxBodiesPerValue+2)
	for i := range names {
		names[i] = fmt.Sprintf("alias-%d", i)
	}
	for i, name := range names {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(rec.response("k", name)); err != nil {
			t.Fatal(err)
		}
		b, err := v.bodyFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want.Bytes()) || cap(b) != len(b) {
			t.Fatalf("%s: body %q (cap %d), want %q at exact length", name, b, cap(b), want.Bytes())
		}
		again, _ := v.bodyFor(name)
		if retained := &again[0] == &b[0]; retained != (i < maxBodiesPerValue) {
			t.Fatalf("%s (#%d): retained = %v", name, i, retained)
		}
	}
	if v.name != names[0] || len(v.bodies) != maxBodiesPerValue-1 {
		t.Fatalf("inline name %q and %d mapped bodies, want %q and %d", v.name, len(v.bodies), names[0], maxBodiesPerValue-1)
	}
}
