package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/artifact"
)

// SharedCache is a process-wide, bounded, shard-locked LRU for pricing
// and remapping evaluations, injectable via Options.Cache.  Unlike the
// per-run caches (which die with their Result), one SharedCache may be
// shared by any number of concurrent and successive Analyze calls —
// across different programs, machine models, compiler options and
// processor counts — because every entry is keyed by the content
// hashes of everything its value depends on (package artifact): two
// runs that produce the same key are guaranteed to produce the same
// value, so no invalidation protocol is needed.
//
// The cache is bounded: once Capacity entries are resident, a new
// insert evicts the least recently used entry of its shard.  All
// methods are safe for concurrent use; the statistics counters are
// atomic.
type SharedCache struct {
	shardCap int
	shards   [sharedShards]sharedShard
	hitMiss
	evictions atomic.Int64
}

// sharedShards is the lock-striping factor.  16 shards keep
// contention negligible between the sessions and layoutd flights that
// share one cache while wasting little memory on empty shards.
const sharedShards = 16

// DefaultSharedCapacity bounds a SharedCache built with capacity ≤ 0:
// 64Ki entries ≈ a few hundred full machine sweeps of the paper's
// benchmark suite.
const DefaultSharedCapacity = 1 << 16

type sharedShard struct {
	mu  sync.Mutex
	m   map[cacheKey]*list.Element
	lru list.List // front = most recently used
}

type sharedEntry struct {
	key cacheKey
	val any
}

// NewSharedCache returns an empty cache bounded to capacity entries
// (≤ 0 means DefaultSharedCapacity).  The bound is split evenly across
// the shards, so the effective capacity is rounded up to a multiple of
// the shard count.
func NewSharedCache(capacity int) *SharedCache {
	if capacity <= 0 {
		capacity = DefaultSharedCapacity
	}
	perShard := (capacity + sharedShards - 1) / sharedShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SharedCache{shardCap: perShard}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*list.Element)
	}
	return c
}

// shard picks the shard from the hash the key carries: O(1), where
// hashing the parts again on every get and put was 8 % of a sweep point.
// The hash is a pure function of the key's content with no per-process
// seed (unlike the runtime's map hash), so which entries share a shard —
// and with it the LRU eviction order — repeats from process to process.
func (c *SharedCache) shard(key cacheKey) *sharedShard {
	return &c.shards[(key.hash^key.hash>>32)%sharedShards]
}

// get returns the cached value for key, promoting it to most recently
// used.  A nil cache always misses.
func (c *SharedCache) get(key cacheKey) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.m[key]
	var val any
	if ok {
		s.lru.MoveToFront(el)
		// Read under the lock: put overwrites val in place on a refresh.
		val = el.Value.(*sharedEntry).val
	}
	s.mu.Unlock()
	c.count(ok)
	return val, ok
}

// put inserts (or refreshes) a value, evicting the shard's least
// recently used entry when the shard is full.  A nil cache ignores it.
func (c *SharedCache) put(key cacheKey, val any) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		el.Value.(*sharedEntry).val = val
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	evicted := 0
	for s.lru.Len() >= c.shardCap {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.m, back.Value.(*sharedEntry).key)
		evicted++
	}
	s.m[key] = s.lru.PushFront(&sharedEntry{key: key, val: val})
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// Len returns the number of resident entries.
func (c *SharedCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// SharedCacheStats is a snapshot of a SharedCache's lifetime traffic
// (across every run that used it, unlike Result.Cache which is
// per-run).
type SharedCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s SharedCacheStats) HitRate() float64 {
	return CacheStats{Hits: s.Hits, Misses: s.Misses}.HitRate()
}

// Stats snapshots the cache's lifetime counters.
func (c *SharedCache) Stats() SharedCacheStats {
	if c == nil {
		return SharedCacheStats{}
	}
	return SharedCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// sharedKeys carries one run's cacheKey contexts: the content hashes of
// everything a pricing (resp. remapping) evaluation depends on besides
// the entry's own parts, derived once per run.
type sharedKeys struct {
	price ident // decls + machine + compiler options + default trip
	remap ident // decls + machine
}

// deriveSharedKeys computes the run's cacheKey contexts from the option
// and input artifacts.  Key derivation (documented in DESIGN.md):
//
//	declsKey   = H(parameters, declarations, directives)
//	machineKey = H(model name + serialized training tables)
//	priceCtx   = H(declsKey, machineKey, compiler options, default trip)
//	remapCtx   = H(declsKey, machineKey)
//
// and an entry's SharedCache key is cacheKey{priceCtx, phase signature,
// layout FullKey} (resp. cacheKey{remapCtx, from, to, live-array
// list}); the per-run memo needs no context and keys the same parts by
// their interned ids.  Procs is absent by design: it is fully
// determined by the layouts in the key.
//
// The context hashes the *declaration* key, not the whole-program unit
// key: a pricing depends on the phase's statements (the signature in
// the key), the symbol table (declsKey) and the machine — never on the
// other phases' bodies.  Keying by declsKey therefore keeps every
// unchanged phase's pricing and remap entries valid across a one-phase
// source edit, which is what Session.Update's reuse of L2 entries
// relies on.
func deriveSharedKeys(declsKey artifact.Key, opt Options) sharedKeys {
	machineKey := artifact.MachineKey(opt.Machine)
	price := artifact.NewHasher("price-ctx").
		Str(string(declsKey)).
		Str(string(machineKey)).
		Bool(opt.Compiler.NoMessageVectorization).
		Bool(opt.Compiler.NoMessageCoalescing).
		Bool(opt.Compiler.LoopInterchange).
		Bool(opt.Compiler.CoarseGrainPipelining).
		Int(opt.DefaultTrip).
		Key()
	return sharedKeys{
		price: part(string(price)),
		remap: part(string(artifact.Combine("remap-ctx", declsKey, machineKey))),
	}
}
