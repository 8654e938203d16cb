package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// tierCache is what both memoization implementations offer a cacheKey.
type tierCache interface {
	get(cacheKey) (any, bool)
	put(cacheKey, any)
}

// key builds a one-part cacheKey for tests that only need distinct keys.
func key(s string) cacheKey { return newCacheKey(ident{}, part(s), ident{}, ident{}) }

// TestSharedCacheBasics: get/put round-trip, counters and nil safety of
// both implementations — the SharedCache (L2) and the memo behind L1
// and the session's alignment memo — plus the struct key's guarantee
// that part boundaries cannot collide.
func TestSharedCacheBasics(t *testing.T) {
	shared, l1 := NewSharedCache(64), &memo[cacheKey, any]{}
	for _, tc := range []struct {
		name    string
		c, none tierCache
		stats   func() CacheStats
	}{
		{"shared", shared, (*SharedCache)(nil), func() CacheStats {
			st := shared.Stats()
			return CacheStats{Hits: st.Hits, Misses: st.Misses}
		}},
		{"memo", l1, (*memo[cacheKey, any])(nil), l1.stats},
	} {
		c := tc.c
		if _, ok := c.get(key("a")); ok {
			t.Fatalf("%s: empty cache hit", tc.name)
		}
		c.put(key("a"), 1.5)
		v, ok := c.get(key("a"))
		if !ok || v.(float64) != 1.5 {
			t.Fatalf("%s: get(a) = %v, %v", tc.name, v, ok)
		}
		c.put(key("a"), 2.5)
		if v, _ := c.get(key("a")); v.(float64) != 2.5 {
			t.Fatalf("%s: put did not refresh existing entry", tc.name)
		}
		if st := tc.stats(); st.Hits != 2 || st.Misses != 1 {
			t.Fatalf("%s: stats = %+v", tc.name, st)
		} else if got := st.HitRate(); got < 0.66 || got > 0.67 {
			t.Fatalf("%s: hit rate = %v", tc.name, got)
		}
		// One concatenated string could not tell these two apart.
		left := newCacheKey(ident{}, part("x\x1fy"), part("z"), ident{})
		right := newCacheKey(ident{}, part("x"), part("y\x1fz"), ident{})
		if left.hash == right.hash {
			t.Errorf("%s: part boundaries do not reach the key hash", tc.name)
		}
		c.put(left, "left")
		c.put(right, "right")
		if l, _ := c.get(left); l != "left" {
			t.Errorf("%s: %+v holds %v", tc.name, left, l)
		}
		if r, _ := c.get(right); r != "right" {
			t.Errorf("%s: %+v holds %v", tc.name, right, r)
		}

		if _, ok := tc.none.get(key("x")); ok {
			t.Fatalf("%s: nil cache hit", tc.name)
		}
		tc.none.put(key("x"), 1) // must not panic
	}
	if shared.Len() != 3 {
		t.Fatalf("Len = %d, want 3", shared.Len())
	}
	var none *SharedCache
	if none.Len() != 0 || none.Stats() != (SharedCacheStats{}) {
		t.Fatal("nil cache reports state")
	}
	if (*memo[cacheKey, any])(nil).stats() != (CacheStats{}) {
		t.Fatal("nil memo reports traffic")
	}
}

// TestSharedCacheBounded: the cache never exceeds its (rounded-up)
// capacity, evicts least recently used entries first, and counts the
// evictions.
func TestSharedCacheBounded(t *testing.T) {
	const capacity = 32
	c := NewSharedCache(capacity)
	// The per-shard bound rounds the total up to a shard multiple.
	maxEntries := ((capacity + sharedShards - 1) / sharedShards) * sharedShards
	for i := 0; i < 10*capacity; i++ {
		c.put(key(fmt.Sprintf("key-%d", i)), i)
	}
	if got := c.Len(); got > maxEntries {
		t.Fatalf("cache grew to %d entries, bound is %d", got, maxEntries)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("overfilled cache evicted nothing")
	}
	if int64(c.Len())+st.Evictions != 10*capacity {
		t.Fatalf("entries %d + evictions %d != inserts %d", c.Len(), st.Evictions, 10*capacity)
	}
}

// TestSharedCacheLRUOrder: within one shard, a touched entry survives
// eviction of an untouched older one.
func TestSharedCacheLRUOrder(t *testing.T) {
	c := NewSharedCache(sharedShards) // one entry per shard
	// Find three keys landing in the same shard.
	shard0 := c.shard(key("seed"))
	var same []cacheKey
	for i := 0; len(same) < 2; i++ {
		k := key(fmt.Sprintf("k%d", i))
		if c.shard(k) == shard0 {
			same = append(same, k)
		}
	}
	c.put(same[0], 0)
	c.put(same[1], 1) // evicts same[0]: shard capacity is 1
	if _, ok := c.get(same[0]); ok {
		t.Fatal("older entry survived a full shard")
	}
	if v, ok := c.get(same[1]); !ok || v.(int) != 1 {
		t.Fatal("most recent entry evicted")
	}
}

// TestSharedCacheConcurrent hammers each implementation from many
// goroutines with overlapping keys (meaningful under -race); the
// invariant is no race, no panic, every observed value matches its key
// and no lookup goes uncounted.
func TestSharedCacheConcurrent(t *testing.T) {
	shared, l1 := NewSharedCache(256), &memo[cacheKey, any]{}
	for _, c := range []tierCache{shared, l1} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := fmt.Sprintf("key-%d", i%300)
					if v, ok := c.get(key(k)); ok && v.(string) != k {
						t.Errorf("key %q holds value %v", k, v)
						return
					}
					c.put(key(k), k)
				}
			}()
		}
		wg.Wait()
	}
	if st := shared.Stats(); st.Hits+st.Misses != 8*2000 {
		t.Errorf("shared lookup counters lost updates: hits %d + misses %d != %d", st.Hits, st.Misses, 8*2000)
	}
	if st := l1.stats(); st.Hits+st.Misses != 8*2000 {
		t.Errorf("memo lookup counters lost updates: hits %d + misses %d != %d", st.Hits, st.Misses, 8*2000)
	}
}

// TestCacheHitsAllocateNothing pins the point of the two key shapes: a
// price and a remapCost served by L1 hash a few ids and allocate
// nothing, and building the content key plus the SharedCache lookup on
// an L2 hit allocate nothing either.
func TestCacheHitsAllocateNothing(t *testing.T) {
	shared := NewSharedCache(0)
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4, Cache: shared})
	if err != nil {
		t.Fatal(err)
	}
	e := res.PCFG.Edges[0]
	pr := res.Phases[e.From]
	from, to := pr.Candidates[pr.Chosen], res.Phases[e.To].Candidates[res.Phases[e.To].Chosen]
	names := liveNames(res.LiveIn[e.To])
	live := res.ids.intern(joinNames(names))
	before, beforePrice := res.remaps.stats(), res.prices.stats()
	if n := testing.AllocsPerRun(100, func() { res.remapCost(from, to, names, live) }); n != 0 {
		t.Errorf("remapCost on an L1 hit allocates %v times", n)
	}
	if after := res.remaps.stats(); after.Misses != before.Misses || after.Hits == before.Hits {
		t.Fatalf("the pinned remapCost calls were not L1 hits: %+v -> %+v", before, after)
	}
	if n := testing.AllocsPerRun(100, func() { res.price(pr, from.Layout, from.key) }); n != 0 {
		t.Errorf("price on an L1 hit allocates %v times", n)
	}
	if after := res.prices.stats(); after.Misses != beforePrice.Misses || after.Hits == beforePrice.Hits {
		t.Fatalf("the pinned price calls were not L1 hits: %+v -> %+v", beforePrice, after)
	}
	hits := shared.Stats().Hits
	if n := testing.AllocsPerRun(100, func() {
		shared.get(newCacheKey(res.keys.remap, from.key, to.key, live))
	}); n != 0 {
		t.Errorf("building a key and an L2 hit allocate %v times", n)
	}
	if shared.Stats().Hits == hits {
		t.Fatal("the pinned SharedCache lookups were not hits")
	}
}
