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

// sharedLayer is one run's view of the injected SharedCache: the
// precomputed content-hash key prefixes plus per-run traffic counters
// (the SharedCache's own counters span its whole lifetime).
type sharedLayer struct {
	cache *SharedCache
	keys  sharedKeys

	priceHits, priceMisses atomic.Int64
	remapHits, remapMisses atomic.Int64
	selHits, selMisses     atomic.Int64
}

// priceEntryKey builds the full shared-cache key for one pricing.
func (k sharedKeys) priceEntryKey(pk priceKey) string {
	return k.price + "\x1f" + pk.sig + "\x1f" + pk.layout
}

// remapEntryKey builds the full shared-cache key for one transition.
func (k sharedKeys) remapEntryKey(rk remapKey) string {
	return k.remap + "\x1f" + rk.from + "\x1f" + rk.to + "\x1f" + rk.names
}

// priceKey identifies one (phase computation, candidate layout)
// pricing.  The machine model, compiler options and default trip count
// are fixed per run, so they are not part of the key; the phase
// signature (its canonical statement rendering) captures everything the
// compiler model reads from the phase, and the layout's FullKey
// captures the exact alignment and distribution.  Phases with identical
// computations — repeated sweeps are the common case — therefore share
// pricings.
type priceKey struct {
	sig    string
	layout string
}

// priced is one memoized candidate evaluation.  The Plan is shared by
// every candidate with the same key; plans are read-only after
// construction, so sharing is safe.
type priced struct {
	plan *compmodel.Plan
	est  execmodel.Estimate
}

// priceCache memoizes candidate pricings for one run.  Safe for
// concurrent use.  A nil priceCache disables memoization (every lookup
// misses and nothing is stored), which keeps call sites unconditional.
type priceCache struct {
	mu     sync.Mutex
	m      map[priceKey]priced
	hits   atomic.Int64
	misses atomic.Int64
}

func newPriceCache(disabled bool) *priceCache {
	if disabled {
		return nil
	}
	return &priceCache{m: map[priceKey]priced{}}
}

func (c *priceCache) get(k priceKey) (priced, bool) {
	if c == nil {
		return priced{}, false
	}
	c.mu.Lock()
	v, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

func (c *priceCache) put(k priceKey, v priced) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

func (c *priceCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// price evaluates one candidate layout for a phase through the cache:
// the compiler model simulates the communication the layout induces and
// the execution model prices the resulting schedule.  Two workers
// missing the same key concurrently both compute it (the models are
// pure, so the duplicate work is harmless and the values identical);
// both count as misses.
func (r *Result) price(pr *PhaseResult, l *layout.Layout) (*compmodel.Plan, execmodel.Estimate) {
	// The cache fault site: price has no error return, so an injected
	// failure panics and surfaces as the usual typed *InternalError via
	// the package's recovery boundaries — semantically right for a
	// broken memoization layer.  Corruption perturbs the estimate a
	// cached (or fresh) lookup hands back, which the Result certificate
	// catches by re-deriving costs straight from the models.
	if ferr := r.opt.Fault.Err(stage.Cache); ferr != nil {
		panic(ferr)
	}
	k := priceKey{sig: pr.sig, layout: l.FullKey()}
	if v, ok := r.prices.get(k); ok {
		v.est.Time = r.opt.Fault.Corrupt(stage.Cache, v.est.Time)
		return v.plan, v.est
	}
	// Per-run miss: consult the shared cross-run layer before paying for
	// a model evaluation.  The on-disk store is not consulted: a pricing
	// costs less to recompute than a record costs to read.
	if v, ok := r.sharedPriceGet(k); ok {
		r.prices.put(k, v)
		return v.plan, v.est
	}
	plan := compmodel.Analyze(r.Unit, pr.Info, l, r.opt.Compiler)
	est := execmodel.Evaluate(plan, pr.DataType, r.Machine, r.opt.Compiler)
	r.prices.put(k, priced{plan: plan, est: est})
	if sl := r.shared; sl != nil {
		sl.cache.put(sl.keys.priceEntryKey(k), priced{plan: plan, est: est})
	}
	est.Time = r.opt.Fault.Corrupt(stage.Cache, est.Time)
	return plan, est
}

// sharedPriceGet looks a pricing up in the process-wide shared cache.
// The cache-shared fault site fires on every lookup (so chaos sweeps
// exercise the layer even when cold), and its Corrupt action poisons
// the estimate a hit serves — which the Result certificate catches by
// re-deriving costs straight from the models.
func (r *Result) sharedPriceGet(k priceKey) (priced, bool) {
	sl := r.shared
	if sl == nil {
		return priced{}, false
	}
	if ferr := r.opt.Fault.Err(stage.CacheShared); ferr != nil {
		panic(ferr)
	}
	v, ok := sl.cache.get(sl.keys.priceEntryKey(k))
	if !ok {
		sl.priceMisses.Add(1)
		return priced{}, false
	}
	p, good := v.(priced)
	if !good {
		// A foreign value under our key can only mean a corrupted
		// cache; treat it as a miss and recompute.
		sl.priceMisses.Add(1)
		return priced{}, false
	}
	sl.priceHits.Add(1)
	p.est.Time = r.opt.Fault.Corrupt(stage.CacheShared, p.est.Time)
	return p, true
}

// remapKey identifies one transition pricing: the exact source and
// target layouts plus the live-array list the cost is charged for.  The
// machine model and the array table are fixed per run.
type remapKey struct {
	from, to string
	names    string
}

// remapCache memoizes transition costs for one run.  Safe for
// concurrent use; nil disables it.
type remapCache struct {
	mu     sync.Mutex
	m      map[remapKey]float64
	hits   atomic.Int64
	misses atomic.Int64
}

func newRemapCache(disabled bool) *remapCache {
	if disabled {
		return nil
	}
	return &remapCache{m: map[remapKey]float64{}}
}

func (c *remapCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// remapCost prices moving the named live arrays between two layouts
// through the cache.  fromKey/toKey are the layouts' FullKeys,
// precomputed by the caller so hot loops build each key once per
// candidate instead of once per lookup; they are ignored (and may be
// empty) when the cache is disabled.
func (r *Result) remapCost(from, to *layout.Layout, fromKey, toKey string, names []string, joined string) float64 {
	if r.remaps == nil {
		return remap.Cost(from, to, r.Unit.Arrays, names, r.Machine)
	}
	k := remapKey{from: fromKey, to: toKey, names: joined}
	r.remaps.mu.Lock()
	v, ok := r.remaps.m[k]
	r.remaps.mu.Unlock()
	if ok {
		r.remaps.hits.Add(1)
		return v
	}
	r.remaps.misses.Add(1)
	if sv, sok := r.sharedRemapGet(k); sok {
		r.remaps.mu.Lock()
		r.remaps.m[k] = sv
		r.remaps.mu.Unlock()
		return sv
	}
	v = remap.Cost(from, to, r.Unit.Arrays, names, r.Machine)
	r.remaps.mu.Lock()
	r.remaps.m[k] = v
	r.remaps.mu.Unlock()
	if sl := r.shared; sl != nil {
		sl.cache.put(sl.keys.remapEntryKey(k), v)
	}
	return v
}

// sharedRemapGet looks a transition cost up in the process-wide shared
// cache; same fault-site semantics as sharedPriceGet.
func (r *Result) sharedRemapGet(k remapKey) (float64, bool) {
	sl := r.shared
	if sl == nil {
		return 0, false
	}
	if ferr := r.opt.Fault.Err(stage.CacheShared); ferr != nil {
		panic(ferr)
	}
	v, ok := sl.cache.get(sl.keys.remapEntryKey(k))
	if !ok {
		sl.remapMisses.Add(1)
		return 0, false
	}
	c, good := v.(float64)
	if !good {
		sl.remapMisses.Add(1)
		return 0, false
	}
	sl.remapHits.Add(1)
	return r.opt.Fault.Corrupt(stage.CacheShared, c), true
}

// syncCacheStats snapshots the cache counters into the public Result
// field; called at the end of every public operation that prices
// candidates or transitions.
func (r *Result) syncCacheStats() {
	r.Cache = CacheSummary{Pricing: r.prices.stats(), Remap: r.remaps.stats()}
	if sl := r.shared; sl != nil {
		r.Cache.SharedPricing = CacheStats{Hits: sl.priceHits.Load(), Misses: sl.priceMisses.Load()}
		r.Cache.SharedRemap = CacheStats{Hits: sl.remapHits.Load(), Misses: sl.remapMisses.Load()}
		r.Cache.SharedSelection = CacheStats{Hits: sl.selHits.Load(), Misses: sl.selMisses.Load()}
	}
	r.Cache.Store = r.store.summary()
}
