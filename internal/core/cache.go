package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/compmodel"
	"repro/internal/execmodel"
	"repro/internal/layout"
	"repro/internal/remap"
	"repro/internal/stage"
)

// CacheStats counts the traffic of one memoization layer.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CacheSummary reports the effectiveness of the run's memoization
// layers (see Result.Cache).  With Options.NoCache set all stay zero.
type CacheSummary struct {
	// Pricing covers compiler/execution-model candidate evaluations.
	Pricing CacheStats `json:"pricing"`
	// Remap covers transition (remapping) cost evaluations.
	Remap CacheStats `json:"remap"`
	// SharedPricing and SharedRemap count this run's traffic against
	// the injected process-wide cache (Options.Cache): a shared lookup
	// happens only after a per-run miss, so Pricing.Misses bounds
	// SharedPricing.Hits + SharedPricing.Misses.  Both stay zero when
	// no shared cache was injected.
	SharedPricing CacheStats `json:"shared_pricing"`
	SharedRemap   CacheStats `json:"shared_remap"`
	// SharedSelection counts selection-solve reuse: a hit means the
	// final 0-1 solve was skipped because an identical problem (same
	// program, machine, compiler, spaces and selection options) was
	// already solved under this shared cache.  Selection reuse is
	// gated to runs without a timeout, custom solver or fault plan.
	SharedSelection CacheStats `json:"shared_selection"`
	// Store reports the on-disk artifact store (L3, Options.StoreDir):
	// this run's traffic plus the store's corruption and eviction
	// counters.  All zero when no store was configured.
	Store StoreSummary `json:"store"`
}

// StoreSummary reports one run's view of the on-disk artifact store
// (see CacheSummary.Store).  Hits/Misses/Writes/DecodeFailures are this
// run's traffic; Entries, Bytes, Quarantined and Evictions snapshot the
// underlying store (which may be shared across runs).
type StoreSummary struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
	// DecodeFailures counts records that passed the store checksum but
	// failed the value codec; each was quarantined and recomputed.
	DecodeFailures int64 `json:"decode_failures"`
	// Quarantined and Evictions are lifetime counters of the store.
	Quarantined int64 `json:"quarantined"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	// MemoryOnly reports the run degraded to memory-only caching (store
	// unavailable at open, or the IO failure breaker tripped).
	MemoryOnly bool `json:"memory_only"`
}

// hitMiss is a pair of lookup counters.
type hitMiss struct{ hits, misses atomic.Int64 }

func (c *hitMiss) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

func (c *hitMiss) stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// memo is the one memoization primitive: a mutex-guarded map with
// hit/miss counters, behind the per-run pricing and remap tiers (L1) and
// the session's alignment memo.  Safe for concurrent use.  The zero
// value is ready; a nil *memo is a disabled one (every get misses
// uncounted and put drops the value), which keeps call sites
// unconditional.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	hitMiss
}

func (c *memo[K, V]) get(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	v, ok = c.m[k]
	c.mu.Unlock()
	c.count(ok)
	return v, ok
}

func (c *memo[K, V]) put(k K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = map[K]V{}
	}
	c.m[k] = v
	c.mu.Unlock()
}

func (c *memo[K, V]) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.hitMiss.stats()
}

// ident is one part of a memoized value's identity — a phase signature,
// a layout FullKey, a joined live-array list or a run context — as a
// value: the content string, the 64-bit hash of its bytes and, when an
// interner handed it out, the small id that stands for it inside one
// run.  Each is computed once per distinct string per run, where the
// string is built; every lookup after that compares and hashes ids.
type ident struct {
	s  string
	h  uint64
	id uint32
}

// part makes the ident of a string that needs no id (a run context).
func part(s string) ident { return ident{s: s, h: hashString(s)} }

// hashString is FNV-1a over the string's bytes: a pure function of the
// content, with no per-process seed (see SharedCache.shard).
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// interner is one run's identity table: equal strings get one ident, so
// two phases with the same signature, or two candidates with the same
// FullKey, share an id.  stagePricing sizes it up front, so that what it
// allocates does not depend on the map's hash seed; the mutex is for
// Result's public queries, which may run side by side.
type interner struct {
	mu sync.Mutex
	m  map[string]ident
}

func newInterner(size int) *interner {
	return &interner{m: make(map[string]ident, size)}
}

func (t *interner) intern(s string) ident {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.m[s]
	if !ok {
		id = ident{s: s, h: hashString(s), id: uint32(len(t.m))}
		t.m[s] = id
	}
	return id
}

// The per-run memos (L1) are keyed by ids, so a hit hashes 8 or 12
// bytes whatever the size of the program.
type (
	priceID struct{ sig, layout uint32 }
	remapID struct{ from, to, live uint32 }
)

// cacheKey identifies one memoized value in the SharedCache (L2), which
// outlives a run and is shared between programs and sessions: it holds
// the content itself, so two runs can only meet on a key when they mean
// the same value.  ctx is the content hash of what is fixed per run (see
// deriveSharedKeys); a, b and c are the entry's own parts, kept as
// separate strings so that building a key allocates nothing and part
// boundaries cannot collide:
//
//	pricing     {priceCtx, phase signature, layout FullKey, ""}
//	transition  {remapCtx, from FullKey, to FullKey, live-array list}
//	selection   {selCtx, "", "", ""}
//
// The phase signature (the canonical statement rendering) captures
// everything the compiler model reads from the phase and the FullKey
// the exact alignment and distribution, so phases with identical
// computations — repeated sweeps are the common case — share pricings.
//
// hash combines the parts' hashes; newCacheKey is the only constructor,
// so equal parts always carry an equal hash.  A key is built only when
// the per-run memo has missed.
type cacheKey struct {
	ctx, a, b, c string
	hash         uint64
}

func newCacheKey(ctx, a, b, c ident) cacheKey {
	const prime64 = 1099511628211
	h := ctx.h
	for _, p := range [...]uint64{a.h, b.h, c.h} {
		h = (h ^ p) * prime64
	}
	return cacheKey{ctx: ctx.s, a: a.s, b: b.s, c: c.s, hash: h}
}

// sharedLayer is one run's view of the injected SharedCache (L2): the
// cache plus this run's traffic per entry kind (the SharedCache's own
// counters span its whole lifetime).
type sharedLayer struct {
	cache   *SharedCache
	traffic [3]hitMiss // indexed by kindPrice, kindRemap, kindSelection
}

const (
	kindPrice = iota
	kindRemap
	kindSelection
)

// priced is one memoized candidate evaluation.  The Plan is shared by
// every candidate with the same key; plans are read-only after
// construction, so sharing is safe.
type priced struct {
	plan *compmodel.Plan
	est  execmodel.Estimate
}

// lookup is the one walk through the memoization tiers: the per-run
// memo (L1, under the entry's ids), then the injected SharedCache (L2,
// under the content key, which key builds only now), then compute,
// filling every tier above the one that answered.  The on-disk store is not
// consulted: a pricing or a transition costs less to recompute than a
// record costs to read.  Two runs sharing one SharedCache that miss the
// same key concurrently both compute it (the models are pure, so the
// duplicate work is harmless and the values identical).
//
// The cache-shared fault site fires on every L2 lookup (so chaos sweeps
// exercise the layer even when cold) and its Corrupt action poisons the
// cost — the float64 cost(&v) points at — that an L2 hit serves and
// promotes to L1, which the Result certificate catches by re-deriving
// costs straight from the models.  A foreign value under our key can
// only mean a corrupted cache; it is a miss.
func lookup[K comparable, V any](r *Result, l1 *memo[K, V], id K, kind int, key func() cacheKey, cost func(*V) *float64, compute func() V) (_ V, fromL2 bool) {
	if v, ok := l1.get(id); ok {
		return v, false
	}
	sl := r.shared
	var k cacheKey
	if sl != nil {
		if ferr := r.opt.Fault.Err(stage.CacheShared); ferr != nil {
			panic(ferr)
		}
		k = key()
		got, _ := sl.cache.get(k)
		hit, ok := got.(V)
		sl.traffic[kind].count(ok)
		if ok {
			t := cost(&hit)
			*t = r.opt.Fault.Corrupt(stage.CacheShared, *t)
			l1.put(id, hit)
			return hit, true
		}
	}
	v := compute()
	l1.put(id, v)
	if sl != nil {
		sl.cache.put(k, v)
	}
	return v, false
}

// price evaluates one candidate layout for a phase through the tiers:
// the compiler model simulates the communication the layout induces and
// the execution model prices the resulting schedule.  key is the interned
// l.FullKey().
func (r *Result) price(pr *PhaseResult, l *layout.Layout, key ident) (*compmodel.Plan, execmodel.Estimate) {
	// The cache fault site: price has no error return, so an injected
	// failure panics and surfaces as the usual typed *InternalError via
	// the package's recovery boundaries — semantically right for a
	// broken memoization layer.  Corruption perturbs the estimate an L1
	// hit or a fresh evaluation hands back (never the stored value),
	// which the Result certificate catches.
	if ferr := r.opt.Fault.Err(stage.Cache); ferr != nil {
		panic(ferr)
	}
	v, fromL2 := lookup(r, r.prices, priceID{pr.sig.id, key.id}, kindPrice,
		func() cacheKey { return newCacheKey(r.keys.price, pr.sig, key, ident{}) },
		func(p *priced) *float64 { return &p.est.Time },
		func() priced {
			plan := compmodel.Analyze(r.Unit, pr.Info, l, r.opt.Compiler)
			return priced{plan: plan, est: execmodel.Evaluate(plan, pr.DataType, r.Machine, r.opt.Compiler)}
		})
	if !fromL2 {
		v.est.Time = r.opt.Fault.Corrupt(stage.Cache, v.est.Time)
	}
	return v.plan, v.est
}

// remapCost prices moving the named live arrays between two candidates'
// layouts through the tiers.  live is the interned joinNames(names),
// built once per edge by the caller instead of once per lookup.
func (r *Result) remapCost(from, to *Candidate, names []string, live ident) float64 {
	v, _ := lookup(r, r.remaps, remapID{from.key.id, to.key.id, live.id}, kindRemap,
		func() cacheKey { return newCacheKey(r.keys.remap, from.key, to.key, live) },
		func(c *float64) *float64 { return c },
		func() float64 { return remap.Cost(from.Layout, to.Layout, r.Unit.Arrays, names, r.Machine) })
	return v
}

// syncCacheStats snapshots the cache counters into the public Result
// field; called at the end of every public operation that prices
// candidates or transitions.
func (r *Result) syncCacheStats() {
	r.Cache = CacheSummary{Pricing: r.prices.stats(), Remap: r.remaps.stats(), Store: r.store.summary()}
	if sl := r.shared; sl != nil {
		r.Cache.SharedPricing = sl.traffic[kindPrice].stats()
		r.Cache.SharedRemap = sl.traffic[kindRemap].stats()
		r.Cache.SharedSelection = sl.traffic[kindSelection].stats()
	}
}
