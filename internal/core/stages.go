package core

// The staged-artifact pipeline.  analyze's former monolithic body is a
// sequence of typed stage functions named by the package stage
// vocabulary — parse → dep → align-solve → space-build → pricing →
// selection — each consuming and producing immutable artifact values
// carrying content-hash keys (package artifact):
//
//	front             Input                →  frontState
//	  stageParse        Input              →  unitArtifact
//	  stageDep          unitArtifact       →  depArtifact
//	  stageAlignSpaces  unit + dep         →  alignArtifact
//	backAnalyze       frontState           →  *Result
//	  stageCandidateSpaces (space-build)
//	  stagePricing         (pricing)
//	  reselect             (selection)
//
// The front half depends only on the program and the search-space
// options, never on the machine model or the processor count; Session
// caches its artifacts and re-runs only backAnalyze per (machine,
// procs) point.  Artifacts are immutable
// after their stage returns (extendAlignment runs inside
// stageAlignSpaces, not later), so concurrent back halves may share
// them freely.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/artifact"
	"repro/internal/dep"
	"repro/internal/distrib"
	"repro/internal/fortran"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/layoutgraph"
	"repro/internal/pcfg"
	"repro/internal/remap"
	"repro/internal/stage"
	"repro/internal/verify"
)

// unitArtifact is the parse stage's product: the analyzed program, its
// whole-program content-hash key, and the declaration-context key the
// per-phase artifact keys chain from.
type unitArtifact struct {
	unit  *fortran.Unit
	key   artifact.Key
	decls artifact.Key
}

// depArtifact is the dep stage's product: the PCFG with per-phase
// dependence information.  Since the incremental refactor the key is
// phase-granular: each phase gets a phase key (decls key + canonical
// statement rendering) and a dep key (phase key + the trip and
// probability options the stage read); the artifact's own key folds
// the per-phase dep keys with the PCFG's topology and frequencies.  An
// edit confined to one phase therefore changes exactly that phase's
// keys — every other phase's subgraph hashes identically across the
// edit, which is what Session.Update's invalidation walks on.
type depArtifact struct {
	graph *pcfg.Graph
	infos map[int]*dep.PhaseInfo
	key   artifact.Key

	declsKey  artifact.Key   // the unit's declaration-context key
	sigs      []string       // per phase index: canonical statement rendering
	phaseKeys []artifact.Key // per phase index: PhaseKeyFrom(declsKey, sig)
	depKeys   []artifact.Key // per phase index: phase key + stage options
}

// alignArtifact is the align-solve stage's product: the alignment
// search spaces with every candidate alignment already extended to a
// complete embedding (so the artifact is immutable downstream), plus
// the stage's graceful degradations.
type alignArtifact struct {
	spaces *align.Spaces
	degs   []Degradation
	key    artifact.Key
}

// timed starts a stopwatch for one stage; call the returned stop
// function when the stage finishes.
func timed(tm stage.Timings, st string) func() {
	start := time.Now()
	return func() { tm.Add(st, time.Since(start)) }
}

// stageParse produces the unit artifact: parse + semantic analysis for
// source input, or just the content hash for an already analyzed unit.
// On the incremental path a re-post — a source byte-identical to the
// one the session's last Update was given — is served the previous
// snapshot's unit artifact: identical bytes re-derive an identical
// key, so nothing is re-lexed, re-parsed or re-keyed.
func stageParse(in Input, opt Options, inc *incrementalRun, tm stage.Timings) (*unitArtifact, error) {
	defer timed(tm, stage.Parse)()
	u := in.Unit
	if u == nil {
		if ferr := opt.Fault.Err(stage.Parse); ferr != nil {
			return nil, ferr
		}
		if inc.reposted(in.Source) && inc.admitReuse(opt.Fault) {
			inc.count(stage.Parse, 0, 1)
			return inc.prev.unit, nil
		}
		prog, perr := fortran.Parse(in.Source)
		if perr != nil {
			return nil, perr
		}
		var err error
		u, err = fortran.Analyze(prog)
		if err != nil {
			return nil, err
		}
	}
	inc.count(stage.Parse, 1, 0)
	return &unitArtifact{unit: u, key: artifact.UnitKey(u), decls: artifact.DeclsKey(u)}, nil
}

// depPhaseKey folds one phase key with the options the dependence
// stage reads, yielding the per-phase dependence artifact key.  The
// probability options affect only the PCFG frequencies (hashed into
// the graph key, not here), but folding them in costs nothing and
// keeps the key an over- rather than under-approximation.
func depPhaseKey(phaseKey artifact.Key, opt Options) artifact.Key {
	return artifact.NewHasher("dep-phase").
		Str(string(phaseKey)).
		Int(opt.DefaultTrip).
		Int(opt.PCFG.DefaultTrip).
		Float(opt.PCFG.DefaultProb).
		Bool(opt.PCFG.IgnoreProbHints).
		Key()
}

// depGraphKey is the dep artifact's own key: the per-phase dep keys in
// program order plus the PCFG's execution frequencies and edge
// structure.  Phase labels and source lines are deliberately absent —
// they would re-key unchanged phases when an edit merely shifts line
// numbers.
func depGraphKey(g *pcfg.Graph, depKeys []artifact.Key) artifact.Key {
	h := artifact.NewHasher("dep")
	h.Int(len(depKeys))
	for i, k := range depKeys {
		h.Str(string(k)).Float(g.Phases[i].Freq)
	}
	h.Int(len(g.Edges))
	for _, e := range g.Edges {
		h.Int(e.From).Int(e.To).Float(e.Freq)
	}
	return h.Key()
}

// stageDep builds the PCFG and runs the per-phase dependence analysis.
// On the incremental path (inc carries a previous snapshot) phases
// whose phase key matches the previous run reuse the stored dependence
// info and only the changed phases are re-analyzed.
func stageDep(ctx context.Context, opt Options, ua *unitArtifact, inc *incrementalRun, tm stage.Timings) (*depArtifact, error) {
	defer timed(tm, stage.Dep)()
	g, err := pcfg.Build(ua.unit, opt.PCFG)
	if err != nil {
		return nil, err
	}
	n := len(g.Phases)
	sigs := make([]string, n)
	phaseKeys := make([]artifact.Key, n)
	for i, ph := range g.Phases {
		sigs[i] = fortran.PrintStmts(ph.Stmts())
		phaseKeys[i] = artifact.PhaseKeyFrom(ua.decls, sigs[i])
	}
	infoSlots := make([]*dep.PhaseInfo, n)
	todo := make([]int, 0, n)
	if prev := inc.prevDep(ua.decls); prev != nil {
		byKey := make(map[artifact.Key]*dep.PhaseInfo, len(prev.phaseKeys))
		for j, pk := range prev.phaseKeys {
			byKey[pk] = prev.infos[prev.graph.Phases[j].ID]
		}
		for i := range g.Phases {
			if info := byKey[phaseKeys[i]]; info != nil && inc.admitReuse(opt.Fault) {
				infoSlots[i] = info
				continue
			}
			todo = append(todo, i)
		}
		inc.count(stage.Dep, int64(len(todo)), int64(n-len(todo)))
	} else {
		for i := 0; i < n; i++ {
			todo = append(todo, i)
		}
	}
	for _, i := range todo {
		if err := canceled(ctx, stage.Dep); err != nil {
			return nil, err
		}
		if ferr := opt.Fault.Err(stage.Dep); ferr != nil {
			return nil, ferr
		}
		infoSlots[i] = dep.Analyze(ua.unit, g.Phases[i].Stmts(), opt.DefaultTrip)
	}
	infos := map[int]*dep.PhaseInfo{}
	for i, ph := range g.Phases {
		infos[ph.ID] = infoSlots[i]
	}
	depKeys := make([]artifact.Key, n)
	for i := range depKeys {
		depKeys[i] = depPhaseKey(phaseKeys[i], opt)
	}
	return &depArtifact{
		graph: g, infos: infos, key: depGraphKey(g, depKeys),
		declsKey: ua.decls, sigs: sigs, phaseKeys: phaseKeys, depKeys: depKeys,
	}, nil
}

// stageAlignSpaces builds the alignment search spaces, converts the
// stage's degradations, and extends every candidate alignment to a
// complete embedding.  Extending here, once, freezes the artifact so
// concurrent Session re-runs can share it without synchronization.
func stageAlignSpaces(ctx context.Context, opt Options, solver *ilp.Solver, ua *unitArtifact, da *depArtifact, inc *incrementalRun, tm stage.Timings) (*alignArtifact, error) {
	defer timed(tm, stage.AlignSolve)()
	alignOpt := opt.Align
	if alignOpt.Solver == nil {
		alignOpt.Solver = solver
	}
	alignOpt.Fault = opt.Fault
	alignOpt.Verify = opt.Verify.enabled()
	memoized := inc != nil && inc.memo != nil
	if memoized {
		alignOpt.Memo = alignMemo{inc}
	}
	spaces, err := align.BuildSearchSpaces(ctx, ua.unit, da.graph, da.infos, alignOpt)
	if err != nil {
		return nil, pipelineErr(stage.AlignSolve, err)
	}
	if err := canceled(ctx, stage.AlignSolve); err != nil {
		return nil, err
	}
	if !memoized {
		inc.count(stage.AlignSolve, int64(len(spaces.Stats)), 0)
	}
	var degs []Degradation
	for _, d := range spaces.Degradations {
		deg := Degradation{
			Subsystem: stage.AlignSolve,
			Detail:    fmt.Sprintf("%s: %s", d.Where, d.Reason),
			Gap:       d.Gap,
		}
		if opt.Strict {
			return nil, &StrictError{Deg: deg}
		}
		degs = append(degs, deg)
	}
	// Candidate layouts are *complete* data layouts: arrays a phase (or
	// its class) never couples get canonical embeddings, so transitions
	// account for every array that actually moves.
	for _, ph := range da.graph.Phases {
		for _, ac := range spaces.PerPhase[ph.ID] {
			extendAlignment(ua.unit, ac.Align)
		}
	}
	key := artifact.NewHasher("align-spaces").
		Str(string(da.key)).
		Float(alignOpt.ImportScale).
		Bool(alignOpt.Greedy).
		Key()
	return &alignArtifact{spaces: spaces, degs: degs, key: key}, nil
}

// front runs the machine-independent front half — parse → dep →
// align-solve — for every driver: Analyze (inc nil), NewSession (inc
// carries only the alignment memo) and Session.Update (inc also carries
// the previous snapshot, which is returned as is when the source is
// observably unchanged).
func front(ctx context.Context, start time.Time, in Input, opt Options, inc *incrementalRun, tm stage.Timings) (*frontState, error) {
	ua, err := stageParse(in, opt, inc, tm)
	if err != nil {
		return nil, err
	}
	// A re-post (stageParse served the previous unit) or an edit that
	// changes no content key, such as a comment, is the previous
	// snapshot; any other source replays parse and is diffed per phase
	// downstream.
	if inc != nil && inc.prev != nil && ua.key == inc.prev.unit.key {
		inc.count(stage.Dep, 0, int64(len(inc.prev.dep.graph.Phases)))
		inc.count(stage.AlignSolve, 0, int64(len(inc.prev.align.spaces.Stats)))
		return inc.prev, nil
	}
	da, err := stageDep(ctx, opt, ua, inc, tm)
	if err != nil {
		return nil, err
	}
	aa, err := stageAlignSpaces(ctx, opt, solverBudget(&opt, ctx, start), ua, da, inc, tm)
	if err != nil {
		return nil, err
	}
	return &frontState{unit: ua, dep: da, align: aa, front: tm}, nil
}

// backAnalyze is the machine-dependent back half of the pipeline:
// candidate search spaces, pricing, liveness and selection over a
// front-half snapshot — fresh from front, or a Session's cached one.
func backAnalyze(ctx context.Context, start time.Time, opt Options, st *frontState, tm stage.Timings) (*Result, error) {
	ua, da, aa := st.unit, st.dep, st.align
	// A cached front half degraded gracefully when it was built; a
	// Strict re-run must not silently accept that.
	if opt.Strict && len(aa.degs) > 0 {
		return nil, &StrictError{Deg: aa.degs[0]}
	}
	res := &Result{
		Unit:       ua.unit,
		PCFG:       da.graph,
		Template:   layout.Template{Extents: ua.unit.TemplateExtents()},
		AlignStats: aa.spaces.Stats,
		Spaces:     aa.spaces,
		Machine:    opt.Machine,
		StageTimes: tm,
		Artifacts: map[string]artifact.Key{
			stage.Parse:      ua.key,
			stage.Dep:        da.key,
			stage.AlignSolve: aa.key,
		},
		opt:       opt,
		alignDegs: aa.degs,
	}
	if !opt.NoCache {
		res.prices = &memo[priceID, priced]{}
		res.remaps = &memo[remapID, float64]{}
	}
	useShared := opt.Cache != nil && !opt.NoCache
	useStore := (opt.Store != nil || opt.StoreDir != "") && !opt.NoCache
	if useShared || useStore {
		res.keys = deriveSharedKeys(ua.decls, opt)
		if useShared {
			res.shared = &sharedLayer{cache: opt.Cache}
		}
		if useStore {
			res.store = newStoreLayer(opt)
		}
		// Selection reuse needs a fully content-determined solve: a
		// wall-clock budget can change the outcome (degradation), a
		// fault plan aimed at the solve must reach its injection sites,
		// and ForceILP asks for the 0-1 route, which a stored selection
		// from another route would silently answer.  Plans aimed
		// elsewhere (the store and cache sites among them) keep the
		// reuse path, so chaos runs still travel through L2 and L3.
		if opt.Timeout == 0 && !opt.ForceILP && !opt.Fault.Arms(stage.Selection, stage.ILPRoot, stage.BBNode) {
			res.selCtx = string(artifact.NewHasher("selection-ctx").
				Str(string(aa.key)).
				Str(res.keys.price.s).
				Str(res.keys.remap.s).
				Int(opt.Procs).
				Bool(opt.Cyclic).
				Bool(opt.MultiDim).
				Bool(opt.UseDP).
				Bool(opt.MergePhases).
				Key())
		}
	}
	if err := stageCandidateSpaces(ctx, opt, ua, da, aa, res, tm); err != nil {
		return nil, err
	}
	if err := stagePricing(ctx, opt, res, tm); err != nil {
		return nil, err
	}
	res.LiveIn = liveness(da.graph, da.infos)
	if err := res.reselect(ctx, solverBudget(&opt, ctx, start)); err != nil {
		return nil, err
	}
	// The final certificate: with verification on, re-derive the
	// Result's claimed costs from the models (bypassing the caches) and
	// re-check the selection's shape before handing it to the caller.
	if opt.Verify.enabled() {
		if cerr := res.Certify(); cerr != nil {
			return nil, cerr
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// stageCandidateSpaces builds the distribution search spaces (cross
// product, user-constraint filtering), independent per phase.
func stageCandidateSpaces(ctx context.Context, opt Options, ua *unitArtifact, da *depArtifact, aa *alignArtifact, res *Result, tm stage.Timings) error {
	defer timed(tm, stage.SpaceBuild)()
	dOpt := distrib.Options{Procs: opt.Procs, Cyclic: opt.Cyclic, MultiDim: opt.MultiDim}
	g := da.graph
	res.Phases = make([]*PhaseResult, len(g.Phases))
	for i, ph := range g.Phases {
		if err := canceled(ctx, stage.SpaceBuild); err != nil {
			return err
		}
		if ferr := opt.Fault.Err(stage.SpaceBuild); ferr != nil {
			return ferr
		}
		space := distrib.BuildSpace(res.Template, aa.spaces.PerPhase[ph.ID], dOpt)
		space = filterUserConstraints(ua.unit, space)
		if len(space) == 0 {
			return &ValidationError{Msg: fmt.Sprintf("phase %d: user directives eliminate every candidate layout", ph.ID)}
		}
		pr := &PhaseResult{
			Phase:      ph,
			Info:       da.infos[ph.ID],
			DataType:   phaseType(ua.unit, ph),
			sig:        ident{s: da.sigs[i]},
			Candidates: make([]*Candidate, len(space)),
		}
		for j, pl := range space {
			pr.Candidates[j] = &Candidate{Layout: pl.Layout, AlignOrigin: pl.AlignOrigin}
		}
		res.Phases[i] = pr
	}
	return nil
}

// stagePricing prices every candidate, phase by phase.  A first pass
// gives every phase signature and candidate FullKey its ident.
func stagePricing(ctx context.Context, opt Options, res *Result, tm stage.Timings) error {
	defer timed(tm, stage.Pricing)()
	cands := 0
	for _, pr := range res.Phases {
		cands += len(pr.Candidates)
	}
	// Every string the run will intern: a signature per phase, a FullKey
	// per candidate, and in reselect a live list per edge and per remap.
	res.ids = newInterner(cands + len(res.Phases) + 2*len(res.PCFG.Edges))
	for _, pr := range res.Phases {
		pr.sig = res.ids.intern(pr.sig.s)
		for _, cand := range pr.Candidates {
			cand.key = res.ids.intern(cand.Layout.FullKey())
		}
	}
	for _, pr := range res.Phases {
		for _, cand := range pr.Candidates {
			if err := canceled(ctx, stage.Pricing); err != nil {
				return err
			}
			if ferr := opt.Fault.Err(stage.Pricing); ferr != nil {
				return ferr
			}
			cand.Plan, cand.Estimate = res.price(pr, cand.Layout, cand.key)
			cand.Cost = opt.Fault.Corrupt(stage.Pricing, cand.Estimate.Time*pr.Phase.Freq)
		}
	}
	return nil
}

// canceled reports a canceled or expired ctx labeled with the stage it
// interrupted.  Every per-item loop of the pipeline checks it before
// each item.
func canceled(ctx context.Context, st string) error {
	return pipelineErr(st, ctx.Err())
}

// pipelineErr labels a context error with the stage it interrupted (st
// is a package stage constant, the same vocabulary used by
// Degradation.Subsystem and the fault-injection sites); everything else,
// nil included, passes through.
func pipelineErr(st string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("core: canceled during %s: %w", st, err)
	}
	return err
}

// solverBudget derives the shared 0-1 solver for one run: the run's
// context and the Options.Timeout deadline (whichever cutoff is
// earliest wins inside the solver).  It also arms the solver with the
// run's fault plan and — when verification is on — installs the
// package verify certificates, so every 0-1 solve in the run is
// checked at the source.
func solverBudget(opt *Options, ctx context.Context, start time.Time) *ilp.Solver {
	s := ilp.Solver{Context: ctx, Fault: opt.Fault}
	if opt.Timeout > 0 {
		s.Deadline = start.Add(opt.Timeout)
	}
	if opt.Verify.enabled() {
		s.Certify = verify.CheckILP
		s.CertifyLP = verify.CheckLP
	}
	return &s
}

// summarizeSolver recomputes Result.Solver from the alignment stats
// and the current Selection.  It rebuilds from scratch so repeated
// reselections (Reselect after InsertCandidate) never double-count.
func (r *Result) summarizeSolver() {
	s := SolverSummary{}
	for _, st := range r.AlignStats {
		s.Solves++
		s.Nodes += st.BBNodes
		s.LPPivots += st.LPPivots
		s.LPWarm += st.LPWarm
		s.LPCold += st.LPCold
		s.RCFixed += st.RCFixed
		s.Presolved += st.Presolved
	}
	// A routed selection counts as a solve even with zero
	// branch-and-bound nodes (the elimination DP and a fully presolved
	// ILP both answer without branching); the greedy fallback reports
	// an empty route and no solve.
	if sel := r.Selection; sel != nil && (sel.Solver != "" || sel.BBNodes > 0) {
		s.Solves++
		s.Nodes += sel.BBNodes
		s.LPPivots += sel.LPPivots
		s.LPWarm += sel.LPWarm
		s.LPCold += sel.LPCold
		s.RCFixed += sel.RCFixed
		s.Presolved += sel.Presolved
		s.Route = sel.Solver
	}
	r.Solver = s
}

// reselect solves the selection with the given budget, degrading to
// the exact elimination DP or the greedy per-phase heuristic when the
// ILP is cut off without an incumbent, and rebuilds
// Result.Degradations.
func (r *Result) reselect(ctx context.Context, solver *ilp.Solver) error {
	defer timed(r.StageTimes, stage.Selection)()
	lg := &layoutgraph.Graph{NodeCost: make([][]float64, len(r.Phases))}
	for p, pr := range r.Phases {
		lg.NodeCost[p] = make([]float64, len(pr.Candidates))
		for i, c := range pr.Candidates {
			lg.NodeCost[p][i] = c.Cost
		}
	}
	if n := len(r.PCFG.Edges); n > 0 {
		lg.Edges = make([]*layoutgraph.Edge, n)
		for k, e := range r.PCFG.Edges {
			if err := canceled(ctx, stage.Selection); err != nil {
				return err
			}
			names := liveNames(r.LiveIn[e.To])
			live := r.ids.intern(joinNames(names))
			from, to := r.Phases[e.From], r.Phases[e.To]
			edge := &layoutgraph.Edge{FromPhase: e.From, ToPhase: e.To}
			edge.Cost = make([][]float64, len(from.Candidates))
			for i, ci := range from.Candidates {
				edge.Cost[i] = make([]float64, len(to.Candidates))
				for j, cj := range to.Candidates {
					edge.Cost[i][j] = r.remapCost(ci, cj, names, live) * e.Freq
				}
			}
			lg.Edges[k] = edge
		}
	}
	if r.opt.MergePhases {
		lg.Ties = r.mergeTies(lg)
		r.MergedPairs = len(lg.Ties)
	}
	if ferr := r.opt.Fault.Err(stage.Selection); ferr != nil {
		return ferr
	}
	// Selection reuse: the solve is fully determined by the layout
	// graph, which is fully determined by the content keys folded into
	// selCtx — so an identical problem already solved under the shared
	// cache or found in the store can skip the 0-1 solve.  A reused
	// selection still passes through CheckSelection below (against the
	// freshly built graph), so a poisoned entry or a tampered record is
	// caught, not served.
	reuse := r.selCtx != "" && !r.spacesDirty
	var sel *layoutgraph.Selection
	if reuse {
		sel = r.selectionGet()
	}
	if sel == nil {
		// The elimination DP answers every graph under its table cap
		// without building a 0-1 model; SolveAutoWS leaves only graphs
		// over the cap to the ILP.  Both minimize the same perturbed
		// objective, so the route does not change the cost.
		var err error
		switch {
		case r.opt.UseDP:
			sel, err = lg.SolveElim(solver)
		case r.opt.ForceILP:
			sel, err = lg.SolveILP(solver, nil)
		default:
			sel, err = lg.SolveAutoWS(solver, nil)
		}
		var noInc *layoutgraph.NoIncumbentError
		if errors.As(err, &noInc) {
			// The ILP was cut off before finding any feasible choice.
			// Degrade: the DP is exact (it ignores the budget) whenever
			// the graph is under its cap; otherwise the greedy per-phase
			// argmin always answers.
			if dp, dperr := lg.SolveElim(solver); dperr == nil {
				sel, err = dp, nil
				sel.Degraded = true
				sel.DegradeReason = fmt.Sprintf("%v; exact elimination DP fallback", noInc)
				sel.Gap = 0
			} else {
				sel, err = lg.SolveGreedy(), nil
				sel.DegradeReason = fmt.Sprintf("%v; %s", noInc, sel.DegradeReason)
			}
		}
		if err != nil {
			return pipelineErr(stage.Selection, err)
		}
		if reuse && !sel.Degraded {
			r.selectionPut(sel)
		}
	}
	// Cancellation is a hard stop even when an incumbent exists;
	// deadline-based degradation goes through Options.Timeout.
	if err := canceled(ctx, stage.Selection); err != nil {
		return err
	}
	// Corruption lands before certification so an injected wrong answer
	// is always in the checker's line of fire.
	sel.Cost = r.opt.Fault.Corrupt(stage.Selection, sel.Cost)
	if r.opt.Verify.enabled() {
		if cerr := verify.CheckSelection(lg, sel); cerr != nil {
			return cerr
		}
	}
	r.Degradations = append([]Degradation(nil), r.alignDegs...)
	if sel.Degraded {
		deg := Degradation{Subsystem: stage.Selection, Detail: sel.DegradeReason, Gap: sel.Gap}
		if r.opt.Strict {
			return &StrictError{Deg: deg}
		}
		r.Degradations = append(r.Degradations, deg)
	}
	// Store degradations ride along even under Strict: memory-only
	// caching forfeits no optimality, so failing the run would punish
	// exactly the fallback the store promises.
	r.Degradations = append(r.Degradations, r.store.degradations()...)
	r.Selection = sel
	r.TotalCost = sel.Cost
	r.summarizeSolver()
	for p, pr := range r.Phases {
		pr.Chosen = sel.Choice[p]
	}

	// Record the implied dynamic remappings.
	r.Remaps = nil
	r.Dynamic = false
	for _, e := range r.PCFG.Edges {
		pf, pt := r.Phases[e.From], r.Phases[e.To]
		from, to := pf.Candidates[pf.Chosen], pt.Candidates[pt.Chosen]
		moved := remap.Moved(from.Layout, to.Layout, liveNames(r.LiveIn[e.To]))
		if len(moved) == 0 {
			continue
		}
		r.Dynamic = true
		r.Remaps = append(r.Remaps, RemapDecision{
			Edge:   e,
			Arrays: moved,
			Cost:   r.remapCost(from, to, moved, r.ids.intern(joinNames(moved))) * e.Freq,
		})
	}
	r.syncCacheStats()
	return nil
}

// cloneSelection copies a selection deeply enough that the cached copy
// and the Result's never share the Choice slice.
func cloneSelection(s layoutgraph.Selection) layoutgraph.Selection {
	s.Choice = append([]int(nil), s.Choice...)
	return s
}

// selectionGet returns a private copy of the selection an identical
// problem already produced: from the shared cache (L2), else from the
// on-disk store (L3, promoting the record to L2; a payload failing the
// codec is quarantined and solved fresh).  The store-read Corrupt fault
// poisons the cost a disk hit serves.
func (r *Result) selectionGet() *layoutgraph.Selection {
	k := r.selKey()
	if sl := r.shared; sl != nil {
		v, _ := sl.cache.get(k)
		saved, ok := v.(layoutgraph.Selection)
		sl.traffic[kindSelection].count(ok)
		if ok {
			sel := cloneSelection(saved)
			return &sel
		}
	}
	payload, ok := r.store.get(r.selCtx)
	if !ok {
		return nil
	}
	sel, err := decodeSelection(payload)
	if err != nil {
		r.store.badDecode(r.selCtx)
		return nil
	}
	if r.shared != nil {
		r.shared.cache.put(k, cloneSelection(sel))
	}
	sel.Cost = r.opt.Fault.Corrupt(stage.StoreRead, sel.Cost)
	return &sel
}

// selKey is the selection's SharedCache key: the context alone.
func (r *Result) selKey() cacheKey {
	return newCacheKey(part(r.selCtx), ident{}, ident{}, ident{})
}

// selectionPut files a freshly solved selection under selCtx in L2 and
// L3; the store is addressed by the context hash alone.
func (r *Result) selectionPut(sel *layoutgraph.Selection) {
	if r.shared != nil {
		r.shared.cache.put(r.selKey(), cloneSelection(*sel))
	}
	if r.store != nil {
		r.store.put(r.selCtx, encodeSelection(*sel))
	}
}

// mergeTies finds adjacent phase pairs that can safely be tied
// together ("merged if remapping can never be profitable between
// them", §2.1).  Tying (p, q) removes the edge p→q as a potential
// remapping point, which is sound when any layout switch placed there
// can instead be placed just after q at no extra cost:
//
//   - p and q carry identical candidate layouts (same keys, same
//     order), so a common choice is well-defined;
//   - q's candidates all cost the same (a layout-indifferent phase),
//     so adopting p's layout is free for q; and
//   - every PCFG successor r of q has liveIn(r) ⊆ liveIn(q), so the
//     postponed remap moves no more data than the suppressed one.
func (r *Result) mergeTies(lg *layoutgraph.Graph) [][2]int {
	hasEdge := func(p, q int) bool {
		for _, e := range lg.Edges {
			if e.FromPhase == p && e.ToPhase == q {
				return true
			}
		}
		return false
	}
	var ties [][2]int
	for p := 0; p+1 < len(r.Phases); p++ {
		q := p + 1
		a, b := r.Phases[p], r.Phases[q]
		if len(a.Candidates) != len(b.Candidates) || !hasEdge(p, q) {
			continue
		}
		same := true
		for i := range a.Candidates {
			if a.Candidates[i].Layout.Key() != b.Candidates[i].Layout.Key() {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		// Layout indifference of q.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, c := range b.Candidates {
			lo = math.Min(lo, c.Cost)
			hi = math.Max(hi, c.Cost)
		}
		if hi-lo > 1e-9*math.Max(1, hi) {
			continue
		}
		// Successor live sets must shrink.
		shrinks := true
		for _, e := range r.PCFG.Successors(b.Phase.ID) {
			for arr := range r.LiveIn[e.To] {
				if !r.LiveIn[b.Phase.ID][arr] {
					shrinks = false
					break
				}
			}
			if !shrinks {
				break
			}
		}
		if shrinks {
			ties = append(ties, [2]int{p, q})
		}
	}
	return ties
}

// liveness computes, per phase, the arrays live on entry by backward
// dataflow over the PCFG to a fixed point:
//
//	liveIn(p) = reads(p) ∪ (∪_succ liveIn(succ) − killed(p))
//
// where killed(p) are the arrays phase p writes without reading (their
// incoming values are dead, so remapping them is wasted work — e.g.
// Adi's coefficient array is fully recomputed between sweeps).
func liveness(g *pcfg.Graph, infos map[int]*dep.PhaseInfo) map[int]map[string]bool {
	liveIn := map[int]map[string]bool{}
	for _, ph := range g.Phases {
		liveIn[ph.ID] = map[string]bool{}
		for a := range infos[ph.ID].ReadSet {
			liveIn[ph.ID][a] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.Phases) - 1; i >= 0; i-- {
			ph := g.Phases[i]
			pi := infos[ph.ID]
			for _, e := range g.Successors(ph.ID) {
				for a := range liveIn[e.To] {
					if pi.WriteSet[a] && !pi.ReadSet[a] {
						continue // killed here
					}
					if !liveIn[ph.ID][a] {
						liveIn[ph.ID][a] = true
						changed = true
					}
				}
			}
		}
	}
	return liveIn
}

// liveNames flattens a live set to a sorted name list.
func liveNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for a := range set {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

// joinNames joins a live-array list into the canonical cache-key form.
func joinNames(names []string) string {
	return strings.Join(names, "\x1f")
}

// extendAlignment adds canonical embeddings for every program array
// the alignment does not cover, making the layout complete.
func extendAlignment(u *fortran.Unit, a *layout.Alignment) {
	for _, name := range u.ArrayNames() {
		if _, ok := a.Map[name]; ok {
			continue
		}
		arr := u.Arrays[name]
		dims := make([]int, arr.Rank())
		for k := range dims {
			dims[k] = k
		}
		a.Set(name, dims)
	}
}

// phaseType is the widest element type among the phase's arrays.
func phaseType(u *fortran.Unit, ph *pcfg.Phase) fortran.DataType {
	dt := fortran.Real
	for _, a := range ph.Arrays {
		if arr := u.Arrays[a]; arr != nil && arr.Type == fortran.Double {
			dt = fortran.Double
		}
	}
	return dt
}

// filterUserConstraints drops candidates that contradict the user's
// !hpf$ directives (the partial-layout extension use case).
func filterUserConstraints(u *fortran.Unit, space []*distrib.PhaseLayout) []*distrib.PhaseLayout {
	if len(u.Distributes) == 0 && len(u.Aligns) == 0 {
		return space
	}
	var out []*distrib.PhaseLayout
	for _, pl := range space {
		if satisfiesUser(u, pl.Layout) {
			out = append(out, pl)
		}
	}
	return out
}

func satisfiesUser(u *fortran.Unit, l *layout.Layout) bool {
	for _, ud := range u.Distributes {
		dims, ok := l.Align.Map[ud.Array]
		if !ok {
			continue // array not in this phase: unconstrained here
		}
		for k := range dims {
			want := ud.Spec[k]
			got := l.ArrayDist(ud.Array)[k]
			switch want {
			case fortran.DistStar:
				if got.Kind != layout.Star && got.Procs > 1 {
					return false
				}
			case fortran.DistBlock:
				if got.Kind != layout.Block || got.Procs <= 1 {
					return false
				}
			case fortran.DistCyclic:
				if got.Kind != layout.Cyclic || got.Procs <= 1 {
					return false
				}
			}
		}
	}
	for _, ua := range u.Aligns {
		sDims, okS := l.Align.Map[ua.Source]
		tDims, okT := l.Align.Map[ua.Target]
		if !okS || !okT {
			continue
		}
		for k := range sDims {
			if k < len(tDims) && sDims[k] != tDims[k] {
				return false
			}
		}
	}
	return true
}
