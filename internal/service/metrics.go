package service

// The /metrics endpoint: a JSON snapshot of the server's counters.
// The per-request analysis counters aggregate the same core.Stats
// struct every Response carries (and the CLI's -stats line prints), so
// the counter vocabulary is identical on all three surfaces; the
// server adds the request/queue/dedup counters and the process-wide
// shared-cache and store snapshots only it can see.

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// counters is the server's own traffic accounting plus the aggregated
// per-run totals.
type counters struct {
	requests atomic.Int64 // POST /v1/analyze arrivals
	ok       atomic.Int64 // 200 responses produced (per flight, not per waiter)
	failed   atomic.Int64 // typed error responses produced
	rejected atomic.Int64 // 429 backpressure rejections (full queue + shed)
	analyses atomic.Int64 // core.Analyze invocations (the singleflight counter)
	dedup    atomic.Int64 // requests served by joining an in-flight analysis

	// Resilience accounting (PR 8).
	shed               atomic.Int64 // 429s issued by the delay-based shedder (subset of rejected)
	drainRejected      atomic.Int64 // typed 503s issued while draining
	crashes            atomic.Int64 // crash-shaped flight failures (panic/internal/fault/watchdog)
	quarantineRejected atomic.Int64 // typed 422s answered from the crash table
	watchdogTrips      atomic.Int64 // flights that overran their hard wall
	watchdogAbandoned  atomic.Int64 // tripped flights that would not unwind within grace

	// Incremental accounting (PR 9).
	incrementalFlights atomic.Int64 // flights served through a Session.Update

	mu     sync.Mutex
	totals core.Stats // summed Response stats across completed analyses
}

// addResult folds one completed analysis into the aggregated totals.
func (c *counters) addResult(res *core.Result) {
	st := core.NewStats(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &c.totals
	t.V = core.WireV1
	t.ElapsedUS += st.ElapsedUS
	if t.StageUS == nil {
		t.StageUS = map[string]int64{}
	}
	for name, us := range st.StageUS {
		t.StageUS[name] += us
	}
	addCacheStats(&t.Cache.Pricing, st.Cache.Pricing)
	addCacheStats(&t.Cache.Remap, st.Cache.Remap)
	addCacheStats(&t.Cache.SharedPricing, st.Cache.SharedPricing)
	addCacheStats(&t.Cache.SharedRemap, st.Cache.SharedRemap)
	addCacheStats(&t.Cache.SharedSelection, st.Cache.SharedSelection)
	t.Cache.Store.Hits += st.Cache.Store.Hits
	t.Cache.Store.Misses += st.Cache.Store.Misses
	t.Cache.Store.Writes += st.Cache.Store.Writes
	t.Cache.Store.DecodeFailures += st.Cache.Store.DecodeFailures
	// Entries/Bytes/Quarantined/Evictions are store-lifetime snapshots,
	// not per-run traffic; the live snapshot in Metrics.Store carries
	// them, so the totals keep the latest view rather than a sum.
	t.Cache.Store.Entries = st.Cache.Store.Entries
	t.Cache.Store.Bytes = st.Cache.Store.Bytes
	t.Cache.Store.Quarantined = st.Cache.Store.Quarantined
	t.Cache.Store.Evictions = st.Cache.Store.Evictions
	t.Cache.Store.MemoryOnly = t.Cache.Store.MemoryOnly || st.Cache.Store.MemoryOnly
	t.Incremental.Add(st.Incremental)
	t.Solver.Solves += st.Solver.Solves
	t.Solver.Nodes += st.Solver.Nodes
	t.Solver.LPPivots += st.Solver.LPPivots
	t.Solver.LPWarm += st.Solver.LPWarm
	t.Solver.LPCold += st.Solver.LPCold
	t.Solver.RCFixed += st.Solver.RCFixed
	t.Solver.Presolved += st.Solver.Presolved
	// Route is categorical, not additive: the totals keep the latest
	// run's route so the field always names a real route.
	if st.Solver.Route != "" {
		t.Solver.Route = st.Solver.Route
	}
}

func addCacheStats(dst *core.CacheStats, s core.CacheStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
}

// snapshotTotals returns a deep copy of the aggregated totals.
func (c *counters) snapshotTotals() core.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.totals
	t.V = core.WireV1
	stages := make(map[string]int64, len(c.totals.StageUS))
	for k, v := range c.totals.StageUS {
		stages[k] = v
	}
	t.StageUS = stages
	return t
}

// StoreMetrics is the live snapshot of the process-wide store (L3):
// lifetime traffic and residency, unlike the per-run StoreSummary
// inside the totals.
type StoreMetrics struct {
	Configured    bool  `json:"configured"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Writes        int64 `json:"writes"`
	DiskReads     int64 `json:"disk_reads"`
	Evictions     int64 `json:"evictions"`
	Quarantined   int64 `json:"quarantined"`
	ReadFailures  int64 `json:"read_failures"`
	WriteFailures int64 `json:"write_failures"`
}

// Metrics is the /metrics document.  Counter names are part of the
// wire contract (the CI service job fails when one goes missing).
type Metrics struct {
	V int `json:"v"`
	// Request accounting.
	RequestsTotal    int64 `json:"requests_total"`
	RequestsOK       int64 `json:"requests_ok"`
	RequestsFailed   int64 `json:"requests_failed"`
	RequestsRejected int64 `json:"requests_rejected"`
	// Singleflight: AnalysesTotal counts actual core.Analyze runs;
	// DedupInflightHits counts requests answered by joining one.
	AnalysesTotal     int64 `json:"analyses_total"`
	DedupInflightHits int64 `json:"dedup_inflight_hits"`
	// Admission control.
	QueueDepth       int64 `json:"queue_depth"`
	QueueCapacity    int   `json:"queue_capacity"`
	InFlight         int64 `json:"inflight"`
	InFlightCapacity int   `json:"inflight_capacity"`
	// Adaptive shedding: ShedTotal counts delay-based 429s (a subset of
	// requests_rejected), Shedding is the live CoDel state, and
	// DrainRatePerSec the measured completion throughput behind honest
	// Retry-After values.  DrainRejections counts typed 503s issued
	// after Drain; Draining mirrors /readyz.
	ShedTotal       int64   `json:"shed_total"`
	Shedding        bool    `json:"shedding"`
	DrainRatePerSec float64 `json:"drain_rate_per_sec"`
	DrainRejections int64   `json:"drain_rejections"`
	Draining        bool    `json:"draining"`
	// Watchdog: trips are flights shot past their hard wall; abandoned
	// are trips whose goroutine would not unwind within the grace.
	WatchdogTrips     int64 `json:"watchdog_trips"`
	WatchdogAbandoned int64 `json:"watchdog_abandoned"`
	// Quarantine: CrashesTotal counts crash-shaped flight failures,
	// QuarantinedKeys the live crash-table population, and
	// QuarantineRejections the typed 422s answered without running.
	CrashesTotal         int64 `json:"crashes_total"`
	QuarantinedKeys      int   `json:"quarantined_keys"`
	QuarantineRejections int64 `json:"quarantine_rejections"`
	// Incremental re-analysis: IncrementalFlights counts flights served
	// through an edit-aware Session.Update instead of a cold Analyze,
	// IncrementalSessions is the live session-table population, and
	// IncrementalReuseRatio the aggregate reused/(reused+replayed)
	// artifact ratio across those flights (the per-stage replayed and
	// reused counters live under totals.incremental.stages).
	IncrementalFlights    int64   `json:"incremental_flights"`
	IncrementalSessions   int     `json:"incremental_sessions"`
	IncrementalReuseRatio float64 `json:"incremental_reuse_ratio"`
	// Totals aggregates the per-run core.Stats (stage times, cache
	// traffic, solver effort) across every completed analysis.
	Totals core.Stats `json:"totals"`
	// CacheHitRates derives the layer hit rates from Totals: l1_* are
	// the per-run caches, l2_* the process-wide shared cache entries
	// this server's runs touched, l3_store the on-disk store.
	CacheHitRates map[string]float64 `json:"cache_hit_rates"`
	// SharedCache is the process-wide L2's lifetime view.
	SharedCache core.SharedCacheStats `json:"shared_cache"`
	// Store is the process-wide L3's lifetime view.
	Store StoreMetrics `json:"store"`
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	totals := s.m.snapshotTotals()
	rate := func(st core.CacheStats) float64 { return st.HitRate() }
	now := time.Now()
	shedding, drainRate := s.shed.snapshot(now, int(s.queued.Load()))
	m := Metrics{
		V:                 core.WireV1,
		RequestsTotal:     s.m.requests.Load(),
		RequestsOK:        s.m.ok.Load(),
		RequestsFailed:    s.m.failed.Load(),
		RequestsRejected:  s.m.rejected.Load(),
		AnalysesTotal:     s.m.analyses.Load(),
		DedupInflightHits: s.m.dedup.Load(),
		QueueDepth:        s.queued.Load(),
		QueueCapacity:     s.cfg.MaxQueue,
		InFlight:          s.inflight.Load(),
		InFlightCapacity:  s.cfg.MaxInFlight,

		ShedTotal:       s.m.shed.Load(),
		Shedding:        shedding,
		DrainRatePerSec: drainRate,
		DrainRejections: s.m.drainRejected.Load(),
		Draining:        s.Draining(),

		WatchdogTrips:     s.m.watchdogTrips.Load(),
		WatchdogAbandoned: s.m.watchdogAbandoned.Load(),

		CrashesTotal:         s.m.crashes.Load(),
		QuarantinedKeys:      s.crashes.quarantined(now),
		QuarantineRejections: s.m.quarantineRejected.Load(),

		IncrementalFlights:    s.m.incrementalFlights.Load(),
		IncrementalSessions:   s.sessions.size(),
		IncrementalReuseRatio: totals.Incremental.ReuseRatio,

		Totals: totals,
		CacheHitRates: map[string]float64{
			"l1_pricing":   rate(totals.Cache.Pricing),
			"l1_remap":     rate(totals.Cache.Remap),
			"l2_pricing":   rate(totals.Cache.SharedPricing),
			"l2_remap":     rate(totals.Cache.SharedRemap),
			"l2_selection": rate(totals.Cache.SharedSelection),
			"l3_store": core.CacheStats{
				Hits:   totals.Cache.Store.Hits,
				Misses: totals.Cache.Store.Misses,
			}.HitRate(),
		},
		SharedCache: s.cache.Stats(),
	}
	if st := s.store; st != nil {
		ss := st.Stats()
		m.Store = StoreMetrics{
			Configured:    true,
			Entries:       ss.Entries,
			Bytes:         ss.Bytes,
			Hits:          ss.Hits,
			Misses:        ss.Misses,
			Writes:        ss.Writes,
			DiskReads:     ss.DiskReads,
			Evictions:     ss.Evictions,
			Quarantined:   ss.Quarantined,
			ReadFailures:  ss.ReadFailures,
			WriteFailures: ss.WriteFailures,
		}
	}
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Metrics())
}
