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

// cacheKey identifies one memoized value in every tier.  ctx is the
// content hash of what is fixed per run (see deriveSharedKeys); a, b
// and c are the entry's own parts, kept as separate strings so that
// building a key allocates nothing and part boundaries cannot collide:
//
//	pricing     {priceCtx, phase signature, layout FullKey, ""}
//	transition  {remapCtx, from FullKey, to FullKey, live-array list}
//	selection   {selCtx, "", "", ""}
//
// The phase signature (the canonical statement rendering) captures
// everything the compiler model reads from the phase and the FullKey
// the exact alignment and distribution, so phases with identical
// computations — repeated sweeps are the common case — share pricings.
type cacheKey struct{ ctx, a, b, c string }

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
// memo (L1), then the injected SharedCache (L2), then compute, filling
// every tier above the one that answered.  The on-disk store is not
// consulted: a pricing or a transition costs less to recompute than a
// record costs to read.  Two workers missing the same key concurrently
// both compute it (the models are pure, so the duplicate work is
// harmless and the values identical); both count as misses.
//
// The cache-shared fault site fires on every L2 lookup (so chaos sweeps
// exercise the layer even when cold) and its Corrupt action poisons the
// cost — the float64 cost(&v) points at — that an L2 hit serves and
// promotes to L1, which the Result certificate catches by re-deriving
// costs straight from the models.  A foreign value under our key can
// only mean a corrupted cache; it is a miss.
func lookup[V any](r *Result, l1 *memo[cacheKey, V], kind int, k cacheKey, cost func(*V) *float64, compute func() V) (_ V, fromL2 bool) {
	if v, ok := l1.get(k); ok {
		return v, false
	}
	sl := r.shared
	if sl != nil {
		if ferr := r.opt.Fault.Err(stage.CacheShared); ferr != nil {
			panic(ferr)
		}
		got, _ := sl.cache.get(k)
		hit, ok := got.(V)
		sl.traffic[kind].count(ok)
		if ok {
			t := cost(&hit)
			*t = r.opt.Fault.Corrupt(stage.CacheShared, *t)
			l1.put(k, hit)
			return hit, true
		}
	}
	v := compute()
	l1.put(k, v)
	if sl != nil {
		sl.cache.put(k, v)
	}
	return v, false
}

// price evaluates one candidate layout for a phase through the tiers:
// the compiler model simulates the communication the layout induces and
// the execution model prices the resulting schedule.
func (r *Result) price(pr *PhaseResult, l *layout.Layout, fullKey string) (*compmodel.Plan, execmodel.Estimate) {
	// The cache fault site: price has no error return, so an injected
	// failure panics and surfaces as the usual typed *InternalError via
	// the package's recovery boundaries — semantically right for a
	// broken memoization layer.  Corruption perturbs the estimate an L1
	// hit or a fresh evaluation hands back (never the stored value),
	// which the Result certificate catches.
	if ferr := r.opt.Fault.Err(stage.Cache); ferr != nil {
		panic(ferr)
	}
	k := cacheKey{ctx: r.keys.price, a: pr.sig, b: fullKey}
	v, fromL2 := lookup(r, r.prices, kindPrice, k,
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

// remapCost prices moving the named live arrays between two layouts
// through the tiers.  fromKey/toKey are the layouts' FullKeys (carried
// by their candidates) and joined is joinNames(names), built once per
// edge by the caller instead of once per lookup.
func (r *Result) remapCost(from, to *layout.Layout, fromKey, toKey string, names []string, joined string) float64 {
	k := cacheKey{ctx: r.keys.remap, a: fromKey, b: toKey, c: joined}
	v, _ := lookup(r, r.remaps, kindRemap, k,
		func(c *float64) *float64 { return c },
		func() float64 { return remap.Cost(from, to, r.Unit.Arrays, names, r.Machine) })
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
