package main

// The traced run: per-layer metrics taken from outside the program, by
// timing calls into each package's public functions from the harness.
//
// It has three parts.  (1) A short untraced and a short traced timed
// section of the workload's own ops; the difference between the two is
// the tracing overhead, and the answers' stats give the cache-tier hit
// ratios as the workload really sees them.  (2) The layer replay: for
// every request of the workload's reference set, one cold core.Analyze,
// then each layer's public entry point called on the public fields of
// that Result (Unit, PCFG, Spaces, Phases[].Candidates[].Layout,
// Phases[].Info, LiveIn, Machine), so each layer is timed on exactly
// what core feeds it.  The replay ends by solving its own layout graph
// and fails unless that reproduces Result.TotalCost and Selection.Choice
// — and the evaluation counts of core's own caches.  (3) Probes that only
// make sense on one workload (session build, drift, daemon handler,
// direct store access, worker speed-up).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/artifact"
	"repro/internal/compmodel"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/distrib"
	"repro/internal/execmodel"
	"repro/internal/fortran"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/layoutgraph"
	"repro/internal/lp"
	"repro/internal/pcfg"
	"repro/internal/remap"
	"repro/internal/stage"
	"repro/internal/verify"
)

// counts accumulates named per-layer counts.
type counts map[string]float64

// traceBudget splits a traced run's --seconds between its parts.
const (
	untracedShare = 0.15
	tracedShare   = 0.25
	replayShare   = 0.30
	maxReplayReps = 5
)

// prober is implemented by workloads with layer metrics of their own.
type prober interface {
	probe(tr *tracer, c counts) error
}

// tracedRun produces every per-layer metric of one workload.  The
// returned measurement pools the untraced and traced timed sections (it
// carries the attempted/failed counts of the result line).
func tracedRun(w workload, stop stopRule, spansPath string) (*measurement, map[string]float64, error) {
	seconds := stop.seconds
	if seconds <= 0 {
		seconds = 8
	}
	plain, err := measure(w, stopRule{seconds: seconds * untracedShare}, nil, 0)
	if err != nil {
		return nil, nil, err
	}
	opsTr := newTracer()
	traced, err := measure(w, stopRule{seconds: seconds * tracedShare}, opsTr, len(plain.rounds))
	if err != nil {
		return nil, nil, err
	}
	layTr := newTracer()
	v, err := layerMetrics(w, layTr, seconds*replayShare)
	if err != nil {
		return nil, nil, err
	}

	// The workload's own ops: what the analysis step cost (mean) and
	// which tier answered.
	opSelf := opsTr.selfTimes()
	ops := float64(traced.attempted)
	for _, name := range []string{"core.session_analyze", "core.update", "client.rtt"} {
		if d, ok := opSelf[name]; ok {
			v[name+"_us"] = micros(d) / ops
		}
	}
	if v["client.rtt_us"] > 0 {
		v["client.http_overhead_us"] = v["client.rtt_us"] - v["service.handler_us"]
	}
	traced.tally.metrics(v, ops)

	all := &measurement{roundOps: plain.roundOps}
	for _, m := range []*measurement{plain, traced} {
		all.samples = append(all.samples, m.samples...)
		all.rounds = append(all.rounds, m.rounds...)
		all.attempted += m.attempted
		all.failed += m.failed
		if all.firstFail == nil {
			all.firstFail = m.firstFail
		}
	}
	all.runMetrics(v)
	v["run.trace_overhead_pct"] = (quantile(sortedMS(traced.samples), 0.5)/quantile(sortedMS(plain.samples), 0.5) - 1) * 100

	if spansPath != "" {
		b, err := json.Marshal(map[string][]span{"ops": opsTr.spans, "layers": layTr.spans})
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(spansPath, b, 0o644); err != nil {
			return nil, nil, err
		}
	}
	return all, v, nil
}

// layerMetrics replays the workload's reference set (at least once, at
// most maxReplayReps times, while budget seconds last), runs the
// workload's probe and turns counts and span self times into per-op
// metrics.
func layerMetrics(w workload, tr *tracer, budget float64) (counts, error) {
	name := w.common().spec.Name
	c := counts{}
	refs, refOps := w.references()
	reps := 0
	for t0 := time.Now(); reps < maxReplayReps && (reps == 0 || time.Since(t0).Seconds() < budget); reps++ {
		for i := range refs {
			if err := replay(tr, &refs[i], c); err != nil {
				return nil, fmt.Errorf("%s: replay of %s: %w", name, refs[i].Key, err)
			}
		}
	}
	perOp := float64(reps * refOps)
	for k := range c {
		if k != "cag.vars_max" { // a maximum, not a sum
			c[k] /= perOp
		}
	}
	// A replay span is named like its metric without the _us.
	self := tr.selfTimes()
	us := func(stem string) float64 { return micros(self[stem]) / perOp }
	for _, s := range perLayer {
		if stem, ok := strings.CutSuffix(s.Name, "_us"); ok {
			if _, seen := self[stem]; seen {
				c[s.Name] = us(stem)
			}
		}
	}
	layerSum := 0.0
	for _, stem := range coreCalls {
		layerSum += us(stem)
	}
	c["core.glue_us"] = c["core.analyze_us"] - layerSum
	c["core.unattributed_us"] = c["core.analyze_us"] - c["core.stage_sum_us"]
	delete(c, "core.stage_sum_us")
	if c["fortran.lex_us"] > 0 {
		c["fortran.tokens_per_s"] = c["fortran.tokens"] / c["fortran.lex_us"] * 1e6
	}
	if n := c["pcfg.phases"]; n > 0 {
		c["dep.us_per_phase"] = c["dep.analyze_us"] / n
	}
	if p := c["lp.pivots"]; p > 0 {
		c["lp.us_per_pivot"] = (c["layoutgraph.solve_us"] + c["cag.solve_us"]) / p
	}
	// Probes come last and write finished metrics: their spans are in
	// the file for reading, not for the sums above.
	if p, ok := w.(prober); ok {
		if err := p.probe(tr, c); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", name, err)
		}
	}
	return c, nil
}

// runMetrics writes the harness's own diagnostics of a timed section.
func (m *measurement) runMetrics(v map[string]float64) {
	ms := sortedMS(m.samples)
	n := float64(len(ms))
	var wall, cpu, gcPause time.Duration
	var gcCycles uint32
	for _, r := range m.rounds {
		wall, cpu, gcPause, gcCycles = wall+r.wall, cpu+r.cpu, gcPause+r.gcPause, gcCycles+r.gcCycles
	}
	v["par.cpu_over_wall"] = cpu.Seconds() / wall.Seconds()
	v["run.samples"] = n
	v["run.op_p90_ms"] = quantile(ms, 0.9)
	v["run.op_max_ms"] = ms[len(ms)-1]
	v["run.gc_cycles_per_op"] = float64(gcCycles) / n
	v["run.gc_pause_us_per_op"] = micros(gcPause) / n
	var roundP50 []float64
	for i := 0; i+m.roundOps <= len(m.samples); i += m.roundOps {
		roundP50 = append(roundP50, quantile(sortedMS(m.samples[i:i+m.roundOps]), 0.5))
	}
	v["run.repeat_spread_pct"] = spread(roundP50) * 100
}

// coreCalls are the replayed calls core.Analyze itself makes; what is
// left of core.analyze_us after them is core.glue_us (caches, keys,
// liveness, fan-out).  fortran.lex is not among them (Parse lexes
// itself) and neither are the verify spans (Verify is off) nor the wire
// spans (they sit outside Analyze).
var coreCalls = []string{
	"fortran.parse", "fortran.sema", "artifact.unit_key", "pcfg.build", "fortran.print",
	"artifact.phase_key", "dep.analyze", "align.spaces", "distrib.space", "layout.fullkey",
	"compmodel.analyze", "execmodel.evaluate", "remap.cost", "remap.moved",
	"layoutgraph.build", "layoutgraph.solve",
}

// liveNames flattens a live set to the sorted list core passes to remap.
func liveNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for a := range set {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

// replay answers one request with a cold core.Analyze and then calls
// every layer on that Result's public fields, one span per call.
func replay(tr *tracer, r *wireRequest, c counts) error {
	ctx := context.Background()
	root := tr.begin("replay", -1)
	defer tr.end(root)
	var err error
	timed := func(name string, f func()) {
		s := tr.begin(name, root)
		f()
		tr.end(s)
	}

	// Wire and core.
	body, err := json.Marshal(&r.Req)
	if err != nil {
		return err
	}
	c["client.request_bytes"] += float64(len(body))
	var req *core.Request
	var opt core.Options
	timed("core.wire_decode", func() {
		if req, err = core.DecodeRequest(bytes.NewReader(body)); err == nil {
			opt, err = req.BuildOptions()
		}
	})
	if err != nil {
		return err
	}
	timed("core.request_key", func() { _ = req.Key(opt) })
	var res *core.Result
	timed("core.analyze", func() { res, err = core.Analyze(ctx, core.Input{Source: req.Source}, opt) })
	if err != nil {
		return err
	}
	for _, st := range stage.All {
		d := micros(res.StageTimes[st])
		c["core.stage_sum_us"] += d
		if _, gated := stageMetrics[st]; gated {
			c["core.stage_us."+st] += d
		}
	}
	var resp *core.Response
	timed("core.wire_encode", func() {
		resp = core.NewResponse(res)
		_, err = json.Marshal(resp)
	})
	if err != nil {
		return err
	}
	c["core.response_bytes"] += float64(responseBytes(resp))
	timed("core.emit", func() { _ = res.EmitHPF() })

	// Front end, on the source; everything after it on the Result.
	var toks []fortran.Token
	timed("fortran.lex", func() { toks, err = fortran.Lex(req.Source) })
	if err != nil {
		return err
	}
	c["fortran.tokens"] += float64(len(toks))
	var prog *fortran.Program
	timed("fortran.parse", func() { prog, err = fortran.Parse(req.Source) })
	if err != nil {
		return err
	}
	timed("fortran.sema", func() { _, err = fortran.Analyze(prog) })
	if err != nil {
		return err
	}
	u, g := res.Unit, res.PCFG
	var decls artifact.Key
	timed("artifact.unit_key", func() {
		_ = artifact.UnitKey(u)
		decls = artifact.DeclsKey(u)
	})
	timed("pcfg.build", func() { _, err = pcfg.Build(u, opt.PCFG) })
	if err != nil {
		return err
	}
	c["pcfg.phases"] += float64(len(g.Phases))
	c["pcfg.edges"] += float64(len(g.Edges))
	sigs := make([]string, len(g.Phases))
	timed("fortran.print", func() {
		for i, ph := range g.Phases {
			sigs[i] = fortran.PrintStmts(ph.Stmts())
		}
	})
	timed("artifact.phase_key", func() {
		for _, sig := range sigs {
			_ = artifact.PhaseKeyFrom(decls, sig)
		}
	})
	trip := opt.DefaultTrip
	if trip == 0 {
		trip = 100 // core's default
	}
	infos := map[int]*dep.PhaseInfo{}
	for p, ph := range g.Phases {
		timed("dep.analyze", func() { _ = dep.Analyze(u, ph.Stmts(), trip) })
		infos[ph.ID] = res.Phases[p].Info
	}

	// Alignment search spaces and their 0-1 solves.
	alignOpt := opt.Align
	alignOpt.Solver = &ilp.Solver{Context: ctx}
	alignOpt.Workers = opt.Workers
	var spaces *align.Spaces
	timed("align.spaces", func() { spaces, err = align.BuildSearchSpaces(ctx, u, g, infos, alignOpt) })
	if err != nil {
		return err
	}
	if len(spaces.Stats) != len(res.AlignStats) {
		return fmt.Errorf("replay made %d alignment solves, core %d", len(spaces.Stats), len(res.AlignStats))
	}
	pivots, warm, cold, sparse := 0, 0, 0, 0
	for _, st := range spaces.Stats {
		c["cag.solves"]++
		c["cag.solve_us"] += micros(st.Duration)
		c["cag.bb_nodes"] += float64(st.BBNodes)
		c["cag.lp_pivots"] += float64(st.LPPivots)
		c["cag.vars_max"] = max(c["cag.vars_max"], float64(st.Vars))
		pivots, warm, cold, sparse = pivots+st.LPPivots, warm+st.LPWarm, cold+st.LPCold, sparse+st.LPSparse
	}

	// Candidate spaces, keys and pricing (deduplicated as core's per-run
	// cache does, so the models see the evaluations core asks of them).
	dOpt := distrib.Options{Procs: opt.Procs, Cyclic: opt.Cyclic, MultiDim: opt.MultiDim}
	built, have := 0, 0
	for p, ph := range g.Phases {
		timed("distrib.space", func() { built += len(distrib.BuildSpace(res.Template, res.Spaces.PerPhase[ph.ID], dOpt)) })
		have += len(res.Phases[p].Candidates)
	}
	if built != have {
		return fmt.Errorf("replay built %d candidates, core %d", built, have)
	}
	c["distrib.candidates"] += float64(built)
	keys := make([][]string, len(res.Phases))
	for p, pr := range res.Phases {
		keys[p] = make([]string, len(pr.Candidates))
		timed("layout.fullkey", func() {
			for i, cand := range pr.Candidates {
				keys[p][i] = cand.Layout.FullKey()
			}
		})
	}
	type priceKey struct{ sig, layout string }
	priced := map[priceKey]float64{}
	lg := &layoutgraph.Graph{NodeCost: make([][]float64, len(res.Phases))}
	for p, pr := range res.Phases {
		lg.NodeCost[p] = make([]float64, len(pr.Candidates))
		for i, cand := range pr.Candidates {
			k := priceKey{sigs[p], keys[p][i]}
			t, ok := priced[k]
			if !ok {
				var plan *compmodel.Plan
				timed("compmodel.analyze", func() { plan = compmodel.Analyze(u, pr.Info, cand.Layout, opt.Compiler) })
				timed("execmodel.evaluate", func() { t = execmodel.Evaluate(plan, pr.DataType, res.Machine, opt.Compiler).Time })
				priced[k] = t
			}
			lg.NodeCost[p][i] = t * pr.Phase.Freq
		}
	}
	if got, want := int64(len(priced)), res.Cache.Pricing.Misses; got != want {
		return fmt.Errorf("replay priced %d candidates, core %d", got, want)
	}
	c["pricing.evals"] += float64(len(priced))

	// Layout graph: remap cost matrices (again deduplicated as core
	// does), then the selection solve.
	type remapKey struct{ from, to, names string }
	remaps := map[remapKey]float64{}
	remapCost := func(parent int, from, to *layout.Layout, fk, tk string, names []string, joined string) float64 {
		k := remapKey{fk, tk, joined}
		v, ok := remaps[k]
		if !ok {
			s := tr.begin("remap.cost", parent)
			v = remap.Cost(from, to, u.Arrays, names, res.Machine)
			tr.end(s)
			remaps[k] = v
		}
		return v
	}
	build := tr.begin("layoutgraph.build", root)
	for _, e := range g.Edges {
		from, to := res.Phases[e.From], res.Phases[e.To]
		edge := &layoutgraph.Edge{FromPhase: e.From, ToPhase: e.To, Cost: make([][]float64, len(from.Candidates))}
		live := liveNames(res.LiveIn[e.To])
		joined := strings.Join(live, "\x1f")
		for i, ci := range from.Candidates {
			edge.Cost[i] = make([]float64, len(to.Candidates))
			for j, cj := range to.Candidates {
				edge.Cost[i][j] = remapCost(build, ci.Layout, cj.Layout, keys[e.From][i], keys[e.To][j], live, joined) * e.Freq
			}
		}
		lg.Edges = append(lg.Edges, edge)
	}
	tr.end(build)
	var sel *layoutgraph.Selection
	timed("layoutgraph.solve", func() { sel, err = lg.SolveAutoWS(&ilp.Solver{Context: ctx}, lp.NewWorkspace()) })
	if err != nil {
		return err
	}
	if costString(sel.Cost) != costString(res.TotalCost) || !equalInts(sel.Choice, res.Selection.Choice) {
		return fmt.Errorf("replayed selection costs %s, core's %s (or the choices differ)", costString(sel.Cost), costString(res.TotalCost))
	}
	if sel.Solver == "tree-dp" {
		c["layoutgraph.route_tree_dp"]++
	} else {
		c["layoutgraph.route_ilp"]++
	}
	c["layoutgraph.binaries"] += float64(sel.Vars)
	c["ilp.bb_nodes"] += float64(sel.BBNodes)
	c["ilp.presolved"] += float64(sel.Presolved)
	c["ilp.rc_fixed"] += float64(sel.RCFixed)
	c["lp.pivots"] += float64(pivots + sel.LPPivots)
	c["lp.warm"] += float64(warm + sel.LPWarm)
	c["lp.cold"] += float64(cold + sel.LPCold)
	c["lp.sparse_solves"] += float64(sparse + sel.LPSparse)
	moved := tr.begin("remap.moved", root)
	for _, e := range g.Edges {
		from := res.Phases[e.From].Candidates[sel.Choice[e.From]].Layout
		to := res.Phases[e.To].Candidates[sel.Choice[e.To]].Layout
		if names := remap.Moved(from, to, liveNames(res.LiveIn[e.To])); len(names) > 0 {
			remapCost(moved, from, to, keys[e.From][sel.Choice[e.From]], keys[e.To][sel.Choice[e.To]], names, strings.Join(names, "\x1f"))
		}
	}
	tr.end(moved)
	if got, want := int64(len(remaps)), res.Cache.Remap.Misses; got != want {
		return fmt.Errorf("replay evaluated %d remaps, core %d", got, want)
	}
	c["remap.evals"] += float64(len(remaps))

	// The price of -verify.
	timed("verify.selection", func() { err = verify.CheckSelection(lg, sel) })
	if err != nil {
		return err
	}
	timed("verify.certify", func() { err = res.Certify() })
	return err
}

// stageMetrics are the stages with a core.stage_us.* metric.
var stageMetrics = map[string]bool{
	stage.Parse: true, stage.Dep: true, stage.AlignSolve: true,
	stage.SpaceBuild: true, stage.Pricing: true, stage.Selection: true,
}

// tally sums the run statistics the answers of the timed ops carried.
type tally struct {
	cache            core.CacheSummary
	replayed, reused int64
}

func (t *tally) add(answers []answer) {
	for _, a := range answers {
		c := a.resp.Stats.Cache
		for _, p := range []struct{ dst, src *core.CacheStats }{
			{&t.cache.Pricing, &c.Pricing}, {&t.cache.Remap, &c.Remap},
			{&t.cache.SharedPricing, &c.SharedPricing}, {&t.cache.SharedRemap, &c.SharedRemap},
			{&t.cache.SharedSelection, &c.SharedSelection},
		} {
			p.dst.Hits += p.src.Hits
			p.dst.Misses += p.src.Misses
		}
		t.cache.Store.Hits += c.Store.Hits
		t.cache.Store.Misses += c.Store.Misses
		t.cache.Store.DecodeFailures += c.Store.DecodeFailures
		for _, sr := range a.resp.Stats.Incremental.Stages {
			t.replayed += sr.Replayed
			t.reused += sr.Reused
		}
	}
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// metrics writes the tier hit ratios and per-op tier counts into v.
func (t *tally) metrics(v map[string]float64, ops float64) {
	c := t.cache
	v["core.l1_price_hit_ratio"] = c.Pricing.HitRate()
	v["core.l1_remap_hit_ratio"] = c.Remap.HitRate()
	v["core.l2_price_hit_ratio"] = c.SharedPricing.HitRate()
	v["core.l2_remap_hit_ratio"] = c.SharedRemap.HitRate()
	v["core.sel_cache_hits"] = float64(c.SharedSelection.Hits) / ops
	v["core.l3_hit_ratio"] = ratio(c.Store.Hits, c.Store.Misses)
	v["store.hits"] = float64(c.Store.Hits) / ops
	v["store.misses"] = float64(c.Store.Misses) / ops
	v["store.decode_failures"] = float64(c.Store.DecodeFailures) / ops
	v["core.inc_reuse_ratio"] = ratio(t.reused, t.replayed)
	v["core.inc_replayed"] = float64(t.replayed) / ops
	v["core.inc_reused"] = float64(t.reused) / ops
}
