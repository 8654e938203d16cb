package main

// The benchmark's vocabulary: workload names, op counts and the metric
// tables.  BENCHMARK.json at the repo root carries the same workloads
// and metrics (bench_test.go holds the two equal); what BENCHMARK.json
// has no key for — op counts, the exact flag, the default seed — lives
// here and in bench/baseline.json.

// defaultSeed is the seed of `run` and `trace` when none is given.  A
// seed only draws the order in which pinned inputs are visited (program
// order, request order, chain order), never the inputs themselves, so
// every seed does the same amount of work and every answer stays pinned.
const defaultSeed = 1

// repeats is how many interleaved passes over all workloads one `run`
// makes; a metric's value is the median of its repeat values.
const repeats = 3

// workloadSpec names one workload and fixes its size.
type workloadSpec struct {
	Name string
	// Why is the one-line reason in BENCHMARK.json.
	Why string
	// OpsPerRepeat is the fixed op count of one `run` repeat; RoundOps is
	// how many ops are timed back to back between two untimed pauses
	// (answer checks, per-round re-setup, counter snapshots).
	OpsPerRepeat, RoundOps int
	// Clients is the number of closed-loop goroutines issuing ops.
	Clients int
	// CycleRounds is how many rounds visit every pinned input once when
	// rounds differ from each other (edit-chain: one round per chain); a
	// timed section ends only on a cycle boundary, so every measurement
	// averages over the same inputs whatever the seed.
	CycleRounds int
}

var workloadSpecs = []workloadSpec{
	{"cold-golden", "cold CLI pass over the 7 golden programs: time spread evenly over parse/dep/align/selection with tiny dense LPs, the row a scale-only change must not move", 100, 10, 1, 1},
	{"scale-path", "stencil-deep 500 phases: path-shaped layout graph takes the tree-DP route, so the op is the non-selection layers (parse, keys, dep, align, spaces)", 60, 6, 1, 1},
	{"scale-ring", "conflict-ring 200 phases: a cycle forces the 0-1 ILP onto the sparse simplex, selection is most of the op; scale-path must not move with it", 50, 5, 1, 1},
	{"sweep-fill", "Session.Analyze at 6 unpriced points against a fresh SharedCache: wide dense ILP and remap matrices, every cache lookup misses and fills", 50, 5, 1, 1},
	{"edit-chain", "Session.Update over 24-edit chains on the 16-phase sweeps program: the -watch loop, parse replayed and dep/align/pricing mostly reused", 240, editsInChain, 1, editChains},
	{"layoutd-warm", "client round trips to an in-process layoutd, closed loop with 2 clients over 70 warm requests: service, client, wire and HTTP dominate, caches are all reads", 2100, 210, 2, 1},
	{"restart-store", "cold pass over the 7 golden programs against a warm on-disk store: the second autolayout -store run, to be compared with cold-golden's recompute cost", 60, 6, 1, 1},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloadSpecs {
		if workloadSpecs[i].Name == name {
			return &workloadSpecs[i]
		}
	}
	return nil
}

// metricSpec is one named metric.  Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.  Exact marks counts that must repeat exactly between two
// executions of the same op (the determinism check).  Floor is an
// absolute worsening, in the metric's unit, below which `compare` does
// not call a cell worse whatever the ratio says (a 40 ms set-up that
// reads 53 ms is the machine, not the change).
type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
	Exact              bool
	Floor              float64
}

// endToEnd are the gated metrics, the same on every workload.
// failed_share is the eighth number of the table but has no entry here:
// it is 0 on a healthy tree, and the driver gates failures through the
// result line's failed/attempted counts instead.
var endToEnd = []metricSpec{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25},
}

func lower(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "lower"}
}

func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

func exact(name string) metricSpec {
	return metricSpec{Name: name, Unit: "count", Better: "lower", Exact: true}
}

// perLayer are the traced run's metrics, one block per Go package.
var perLayer = []metricSpec{
	lower("fortran.lex_us", "us"), lower("fortran.parse_us", "us"), lower("fortran.sema_us", "us"),
	lower("fortran.print_us", "us"), lower("fortran.tokens", "count"), higher("fortran.tokens_per_s", "1/s"),
	lower("artifact.unit_key_us", "us"), lower("artifact.phase_key_us", "us"),
	lower("pcfg.build_us", "us"), lower("pcfg.phases", "count"), lower("pcfg.edges", "count"),
	lower("dep.analyze_us", "us"), lower("dep.us_per_phase", "us"),
	lower("align.spaces_us", "us"), exact("cag.solves"), lower("cag.solve_us", "us"),
	lower("cag.bb_nodes", "count"), lower("cag.lp_pivots", "count"), lower("cag.vars_max", "count"),
	lower("distrib.space_us", "us"), exact("distrib.candidates"),
	lower("compmodel.analyze_us", "us"), lower("execmodel.evaluate_us", "us"), lower("pricing.evals", "count"),
	lower("layout.fullkey_us", "us"),
	lower("remap.cost_us", "us"), exact("remap.evals"), lower("remap.moved_us", "us"),
	lower("layoutgraph.build_us", "us"), lower("layoutgraph.solve_us", "us"),
	higher("layoutgraph.route_tree_dp", "count"), lower("layoutgraph.route_ilp", "count"), lower("layoutgraph.binaries", "count"),
	exact("ilp.bb_nodes"), higher("ilp.presolved", "count"), higher("ilp.rc_fixed", "count"),
	exact("lp.pivots"), higher("lp.warm", "count"), lower("lp.cold", "count"), lower("lp.sparse_solves", "count"), lower("lp.us_per_pivot", "us"),
	lower("verify.selection_us", "us"), lower("verify.certify_us", "us"),
	lower("core.analyze_us", "us"),
	lower("core.stage_us.parse", "us"), lower("core.stage_us.dep", "us"), lower("core.stage_us.align-solve", "us"),
	lower("core.stage_us.space-build", "us"), lower("core.stage_us.pricing", "us"), lower("core.stage_us.selection", "us"),
	lower("core.unattributed_us", "us"), lower("core.glue_us", "us"),
	higher("core.l1_price_hit_ratio", "ratio"), higher("core.l1_remap_hit_ratio", "ratio"),
	higher("core.l2_price_hit_ratio", "ratio"), higher("core.l2_remap_hit_ratio", "ratio"),
	higher("core.sel_cache_hits", "count"), higher("core.l3_hit_ratio", "ratio"),
	lower("core.session_new_us", "us"), lower("core.session_analyze_us", "us"),
	lower("core.update_us", "us"), higher("core.inc_reuse_ratio", "ratio"), lower("core.inc_replayed", "count"), higher("core.inc_reused", "count"),
	lower("core.update_drift_ratio", "ratio"), lower("core.cold_drift_ratio", "ratio"),
	lower("core.wire_decode_us", "us"), lower("core.request_key_us", "us"), lower("core.wire_encode_us", "us"),
	exact("core.response_bytes"), lower("core.emit_us", "us"),
	lower("store.open_us", "us"), lower("store.get_us", "us"), lower("store.put_us", "us"),
	exact("store.records"), lower("store.bytes", "count"), higher("store.hits", "count"), lower("store.misses", "count"), lower("store.decode_failures", "count"),
	lower("service.handler_us", "us"), lower("service.overhead_us", "us"), lower("service.analyses", "count"),
	higher("service.dedup_hits", "count"), lower("service.rejected", "count"), higher("service.incremental_flights", "count"),
	higher("service.session_reuse_ratio", "ratio"), lower("service.metrics_us", "us"),
	lower("client.rtt_us", "us"), lower("client.http_overhead_us", "us"), lower("client.retries", "count"), lower("client.request_bytes", "count"),
	lower("par.cpu_over_wall", "ratio"), higher("par.speedup", "ratio"),
	lower("run.samples", "count"), lower("run.op_p90_ms", "ms"), lower("run.op_max_ms", "ms"),
	lower("run.gc_cycles_per_op", "count"), lower("run.gc_pause_us_per_op", "us"),
	lower("run.trace_overhead_pct", "%"), lower("run.repeat_spread_pct", "%"),
}
