// Package core is the data layout assistant tool: it ties the four
// framework steps of §2 together.
//
//  1. Program partitioning: the program is split into phases and the
//     phase control flow graph is built (package pcfg).
//  2. Search space construction: explicit alignment search spaces per
//     phase (package align, with 0-1 conflict resolution), crossed with
//     candidate distributions (package distrib).
//  3. Performance estimation: each candidate layout is priced with the
//     compiler model (package compmodel), execution model (package
//     execmodel) and machine model (package machine); remapping costs
//     come from package remap.
//  4. Layout selection: one candidate per phase minimizing total cost,
//     via the 0-1 formulation of the data layout graph (package
//     layoutgraph).
//
// A partially specified user layout (!hpf$ directives in the source)
// constrains the search spaces, implementing the paper's "extend a
// partially specified data layout" use case.
//
// # Staged-artifact pipeline
//
// The pipeline is an explicit sequence of typed stage functions named
// by the package stage vocabulary (parse → dep → align-solve →
// space-build → pricing → selection; see stages.go), each consuming
// and producing immutable artifact values carrying content-hash keys
// (package artifact).  Two consequences:
//
//   - The front half (parse, dependence analysis, PCFG, alignment
//     search spaces) is machine-independent, so a Session can cache it
//     once and re-run only the back half under different machine
//     models and processor counts — the assistant's interactive
//     re-tuning loop (§1).
//   - Pricing and remapping evaluations are content-addressed, so a
//     process-wide SharedCache (Options.Cache) can be reused across
//     concurrent and successive runs without invalidation.
package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/artifact"
	"repro/internal/cag"
	"repro/internal/compmodel"
	"repro/internal/dep"
	"repro/internal/execmodel"
	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/layoutgraph"
	"repro/internal/machine"
	"repro/internal/pcfg"
	"repro/internal/stage"
	"repro/internal/store"
)

// VerifyMode selects whether every solver product is independently
// certified (package verify) before the Result is returned.
type VerifyMode uint8

const (
	// VerifyAuto (the zero value) certifies inside test binaries and
	// skips certification in production runs: tests get the safety net by
	// default, production pays nothing unless asked.
	VerifyAuto VerifyMode = iota
	// VerifyOn always certifies; a failed certificate returns a
	// *CertificationError instead of the result.
	VerifyOn
	// VerifyOff never certifies.
	VerifyOff
)

// enabled resolves the mode: VerifyAuto follows testing.Testing().
func (m VerifyMode) enabled() bool {
	switch m {
	case VerifyOn:
		return true
	case VerifyOff:
		return false
	}
	return testing.Testing()
}

// Options parameterizes the tool: the framework is explicitly
// parameterized by compiler, machine, problem size (in the source) and
// processor count (§1).
type Options struct {
	// Procs is the number of available processors (required, ≥ 2).
	Procs int
	// Machine is the target machine model (nil ⇒ iPSC/860).
	Machine *machine.Model
	// PCFG options (trip/branch defaults).
	PCFG pcfg.Options
	// Compiler selects the target compiler's optimizations.
	Compiler compmodel.Options
	// Align configures alignment analysis.
	Align align.Options
	// Cyclic and MultiDim enable the extended distribution search
	// spaces (the prototype default is exhaustive 1-D BLOCK).
	Cyclic   bool
	MultiDim bool
	// UseDP runs the final selection by the variable-elimination DP
	// alone: the default route without its ILP fallback, so a layout
	// graph over the DP's table cap is a *layoutgraph.OverCapError
	// instead of a 0-1 solve (ablation baseline).
	UseDP bool
	// ForceILP runs the 0-1 formulation even on the layout graphs the
	// elimination DP would answer (every graph under its cap).  Both
	// minimize the same perturbed objective; this is the arm for the
	// paper's ILP-size figure, DP-vs-ILP benchmarks and tests that need
	// a solve with a budget to exhaust.  Not a wire option.
	ForceILP bool
	// DefaultTrip for dependence analysis (0 ⇒ 100).
	DefaultTrip int
	// Timeout bounds the wall-clock time spent in 0-1 solves across the
	// whole run (alignment and selection share the budget; zero means
	// none).  When it expires the tool degrades gracefully — feasible
	// incumbents, the exact elimination DP, or greedy heuristics — and
	// records what happened in Result.Degradations.
	Timeout time.Duration
	// Strict disables graceful degradation: any solve that would have
	// fallen back to a suboptimal answer fails instead with a
	// *StrictError naming the subsystem.
	Strict bool
	// Workers is accepted for compatibility; the pipeline runs on the
	// calling goroutine.  Validate still rejects a negative value.
	Workers int
	// NoCache disables every memoization layer — the per-run pricing
	// and remapping caches and any injected shared cache — so each
	// candidate and transition is evaluated from scratch and
	// Result.Cache stays zero.  Caching is on by default: phases
	// routinely share identical candidate layouts, so repeated
	// compiler/execution-model evaluations become map hits.
	NoCache bool
	// Cache is an optional process-wide shared cache for pricing and
	// remapping evaluations, safe across concurrent Analyze calls and
	// Sessions because entries are keyed by content hashes of
	// everything they depend on (program, machine model, compiler
	// options; see SharedCache).  nil preserves the per-run-only
	// behaviour; NoCache disables the shared layer too.
	Cache *SharedCache
	// StoreDir names a directory for the on-disk artifact store (L3):
	// solved selections persist across processes under the same
	// content-hash key the shared cache uses, so a restarted run skips
	// the 0-1 solve (pricings and remap costs are cheaper to recompute
	// than to read, and are not persisted).  "" disables the store;
	// NoCache disables it too.  A store that cannot be opened, or whose
	// IO keeps failing, degrades the run to memory-only caching with an
	// entry in Result.Degradations — never an analysis failure.
	StoreDir string
	// Store is an already opened artifact store to use instead of
	// opening StoreDir (e.g. one store shared across a sweep's runs).
	// When set it wins over StoreDir, and the caller owns its lifetime.
	Store *store.Store
	// Verify controls independent certification of every solver product
	// (package verify): LP and 0-1 solutions, alignment resolutions, the
	// final selection, and the Result's re-derived costs.  The zero
	// value, VerifyAuto, certifies in test binaries and skips in
	// production; a failed certificate surfaces as *CertificationError.
	Verify VerifyMode
	// Fault is the fault-injection plan driving chaos tests (package
	// fault).  nil — the default — disarms every injection site.
	Fault *fault.Plan
}

// Validate checks the options without normalizing them: the processor
// count must be at least 2, counts and budgets must be non-negative,
// the guessed branch probability must be 0 (the default) or strictly
// between 0 and 1 (the parser's own !prob rule), the import scale must
// be finite and non-negative, and a user-supplied machine model must be
// complete.  Analyze calls it first, so manual calls are needed only to
// fail early.
func (o *Options) Validate() error {
	if o.Procs < 2 {
		return &ValidationError{Msg: fmt.Sprintf("Procs = %d, need at least 2", o.Procs)}
	}
	if o.Workers < 0 {
		return &ValidationError{Msg: fmt.Sprintf("Workers = %d, need >= 0", o.Workers)}
	}
	if o.Timeout < 0 {
		return &ValidationError{Msg: fmt.Sprintf("Timeout = %v, need >= 0", o.Timeout)}
	}
	if o.DefaultTrip < 0 {
		return &ValidationError{Msg: fmt.Sprintf("DefaultTrip = %d, need >= 0", o.DefaultTrip)}
	}
	if o.PCFG.DefaultTrip < 0 {
		return &ValidationError{Msg: fmt.Sprintf("PCFG.DefaultTrip = %d, need >= 0", o.PCFG.DefaultTrip)}
	}
	if p := o.PCFG.DefaultProb; p != 0 && !(p > 0 && p < 1) {
		return &ValidationError{Msg: fmt.Sprintf("PCFG.DefaultProb = %g, need 0 (default) or 0 < p < 1", p)}
	}
	if s := o.Align.ImportScale; !(s >= 0) || math.IsInf(s, 1) {
		return &ValidationError{Msg: fmt.Sprintf("Align.ImportScale = %g, need finite and >= 0", s)}
	}
	if o.Machine != nil {
		if err := o.Machine.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults returns a copy with every optional field normalized:
// nil machine ⇒ iPSC/860, DefaultTrip 0 ⇒ 100 (matching the PCFG's own
// trip default).  It is the single defaulting path shared by Analyze,
// Session and the CLIs.
func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.IPSC860()
	}
	if o.DefaultTrip == 0 {
		o.DefaultTrip = 100
	}
	return o
}

// Candidate is one evaluated candidate layout of a phase.
type Candidate struct {
	Layout      *layout.Layout
	AlignOrigin string
	Plan        *compmodel.Plan
	Estimate    execmodel.Estimate
	// Cost is the frequency-weighted estimated time (µs).
	Cost float64

	// key is the interned Layout.FullKey(), the layout's part of every
	// memoization key, built once when the candidate is priced.
	key ident
}

// PhaseResult bundles a phase with its search space.
type PhaseResult struct {
	Phase      *pcfg.Phase
	Info       *dep.PhaseInfo
	Candidates []*Candidate
	// Chosen indexes Candidates after selection.
	Chosen int
	// DataType is the widest element type in the phase.
	DataType fortran.DataType

	// sig is the phase's canonical statement rendering, the phase
	// component of the pricing memoization key (interned by stagePricing).
	sig ident
}

// ChosenLayout returns the selected candidate's layout.
func (pr *PhaseResult) ChosenLayout() *layout.Layout {
	return pr.Candidates[pr.Chosen].Layout
}

// RemapDecision is a remapping the selected layouts imply on an edge.
type RemapDecision struct {
	Edge   *pcfg.Edge
	Arrays []string
	// Cost is the frequency-weighted remap cost (µs).
	Cost float64
}

// SolverSummary aggregates the 0-1 solver effort behind one Result:
// the alignment resolutions plus the solve that produced the layout
// selection.  LPWarm counts node relaxations warm-started by
// dual-simplex reoptimization from the parent basis; LPCold counts
// from-scratch two-phase solves; RCFixed counts binaries eliminated by
// root reduced-cost presolve.  A selection answered by the DP or the
// greedy fallback contributes no solve; one served from the shared
// cache reports the effort of the solve that produced it.
type SolverSummary struct {
	Solves   int `json:"solves"`
	Nodes    int `json:"nodes"`
	LPPivots int `json:"lp_pivots"`
	LPWarm   int `json:"lp_warm"`
	LPCold   int `json:"lp_cold"`
	RCFixed  int `json:"rc_fixed"`
	// Presolved counts binaries fixed by constraint-propagation
	// presolve across all solves.
	Presolved int `json:"presolved"`
	// LPSparse is always 0: the sparse revised simplex it counted is
	// gone (the dense tableau is the only LP engine).  The wire field
	// is pinned and the benchmark harness reads it, so it stays until a
	// benchmark-only change removes both.
	LPSparse int `json:"lp_sparse"`
	// Route names how the layout selection was answered: "tree-dp"
	// (exact polynomial DP on a forest-shaped layout graph),
	// "presolved" or "dense" (ILP variants), or "" when the
	// selection came from an explicit baseline or fallback.
	Route string `json:"route"`
}

// Result is the tool's output.
type Result struct {
	Unit     *fortran.Unit
	PCFG     *pcfg.Graph
	Template layout.Template
	Phases   []*PhaseResult
	// Selection is the solved layout selection.
	Selection *layoutgraph.Selection
	// TotalCost is the estimated whole-program execution time (µs).
	TotalCost float64
	// Remaps lists the dynamic remappings of the chosen layout.
	Remaps []RemapDecision
	// AlignStats records the 0-1 alignment solves (sizes, durations).
	AlignStats []cag.Stats
	// Solver aggregates the 0-1 solver effort behind this result: every
	// alignment resolution plus the solve that produced Selection.
	// Recomputed by each (re)selection, so it stays consistent after
	// Reselect.
	Solver SolverSummary
	// Spaces is the alignment search space construction result.
	Spaces *align.Spaces
	// LiveIn maps each phase ID to the arrays live on entry (read in
	// the phase or carried through to a later reader); remapping on an
	// edge is charged only for live arrays.
	LiveIn map[int]map[string]bool
	// Machine is the model the estimates were priced against.
	Machine *machine.Model
	// Elapsed is the total tool running time (for a Session re-run,
	// the back half only — the front half was cached).
	Elapsed time.Duration
	// Dynamic reports whether the chosen layout remaps at runtime.
	Dynamic bool

	// Degradations lists every graceful fallback taken during the run
	// (empty for a fully optimal solve).  The layouts are valid either
	// way; entries describe forfeited optimality, with gaps when known.
	Degradations []Degradation

	// Cache reports the hit rates of the run's memoization layers (all
	// zero with Options.NoCache).
	Cache CacheSummary

	// Incremental reports, for a Session.Update run, how much of the
	// pipeline was reused from the previous run's artifacts versus
	// replayed (zero value for cold Analyze and Session.Analyze runs).
	Incremental IncrementalSummary

	// StageTimes records the wall-clock time spent in each pipeline
	// stage, keyed by the package stage vocabulary.  Stages that run
	// again later (selection, after a Reselect) accumulate.  Session
	// re-runs carry only back-half stages; Session.FrontTimes has the
	// cached front half.
	StageTimes stage.Timings

	// Artifacts carries the content-hash keys of the stage products
	// this result was derived from (stage.Parse → unit, stage.Dep →
	// dependence-annotated PCFG, stage.AlignSolve → alignment spaces).
	// Results with equal artifact keys under equal options are
	// interchangeable.
	Artifacts map[string]artifact.Key

	// opt retains the invocation options for re-selection after search
	// space edits.
	opt Options
	// ids is the run's identity table: every phase signature, candidate
	// FullKey and live-array list the memoization layers see is interned
	// here first.
	ids *interner
	// prices and remaps are the run's memoization layers (L1; nil when
	// Options.NoCache); they stay attached so InsertCandidate and
	// Reselect keep benefiting from them.
	prices *memo[priceID, priced]
	remaps *memo[remapID, float64]
	// keys holds the run's cacheKey contexts (zero without a shared
	// cache or store: a per-run memo needs no context).
	keys sharedKeys
	// shared is the run's view of the injected SharedCache (L2; nil
	// when none, or with Options.NoCache).
	shared *sharedLayer
	// store is the run's view of the on-disk artifact store (nil when
	// no StoreDir/Store, or with Options.NoCache).
	store *storeLayer
	// selCtx is the content-hash key under which this run's selection
	// solve may be reused from the shared cache ("" when ineligible:
	// no shared cache, a timeout/custom solver, or an armed fault
	// plan, any of which can change the solve's outcome or must
	// exercise its sites).
	selCtx string
	// spacesDirty is set by InsertCandidate/DeleteCandidate: the
	// search spaces no longer match the artifact keys, so Reselect
	// must solve fresh rather than reuse a cached selection.
	spacesDirty bool
	// alignDegs retains the alignment-stage degradations so Reselect
	// can rebuild Degradations (the selection entries change per call).
	alignDegs []Degradation
}

// Input is the program Analyze works on: dialect source code, or an
// already parsed and analyzed unit.  Exactly one side is normally set;
// when both are, Unit wins and Source is ignored.
type Input struct {
	// Source is dialect source code; Analyze parses and analyzes it.
	Source string
	// Unit is an already analyzed program, bypassing the parser.
	Unit *fortran.Unit
}

// begin opens every driver: a nil context means Background, and the
// clock Options.Timeout runs against starts here.
func begin(ctx context.Context) (context.Context, time.Time) {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx, time.Now()
}

// Analyze runs the complete framework: option validation and
// defaulting, parsing (when the input is source), phase partitioning,
// search space construction, candidate pricing and layout selection.
// It is the single entry point for one-shot runs; use Session to reuse
// the machine-independent front half across re-runs.
//
// The context and Options.Timeout are plumbed into every 0-1 solve: a
// canceled or expired context fails the run with a hard error, while an
// exhausted Timeout degrades it gracefully (see Result.Degradations).
// The Timeout clock starts before parsing, so parse time counts against
// the budget rather than stretching it.
func Analyze(ctx context.Context, in Input, opt Options) (res *Result, err error) {
	defer promoteCert(&err)
	defer guard(&err)
	ctx, start := begin(ctx)
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	tm := stage.Timings{}
	st, err := front(ctx, start, in, opt, nil, tm)
	if err != nil {
		return nil, err
	}
	return backAnalyze(ctx, start, opt, st, tm)
}

// Reselect re-solves the final layout selection over the current
// candidate search spaces.  The tool's envisioned use (§2) lets the
// user browse the explicit search spaces and insert or delete
// candidates; call Reselect afterwards to recompute the optimal
// selection, total cost and remapping decisions.  Each call gets a
// fresh Options.Timeout budget; transition costs already priced by the
// original run come from the remap cache.
func (r *Result) Reselect() (err error) {
	defer promoteCert(&err)
	defer guard(&err)
	ctx := context.Background()
	if err := r.reselect(ctx, solverBudget(&r.opt, ctx, time.Now())); err != nil {
		return err
	}
	if r.opt.Verify.enabled() {
		return r.Certify()
	}
	return nil
}

// InsertCandidate adds a user-supplied candidate layout to a phase's
// search space (the §2 browsing interface: "insert new candidate
// layouts into ... the search spaces"), estimating it with the same
// models as the generated candidates.  Missing arrays get canonical
// embeddings.  It returns the new candidate's index; call Reselect to
// fold it into the selection.
func (r *Result) InsertCandidate(phase int, l *layout.Layout, origin string) (idx int, err error) {
	defer guard(&err)
	if phase < 0 || phase >= len(r.Phases) {
		return 0, fmt.Errorf("core: no phase %d", phase)
	}
	if l == nil {
		return 0, &ValidationError{Msg: "nil candidate layout"}
	}
	l = l.Clone()
	extendAlignment(r.Unit, l.Align)
	if verr := l.Validate(); verr != nil {
		return 0, &ValidationError{Msg: fmt.Sprintf("candidate layout: %v", verr)}
	}
	pr := r.Phases[phase]
	for i, c := range pr.Candidates {
		if c.Layout.Key() == l.Key() {
			return i, fmt.Errorf("core: phase %d already has an identical candidate (index %d)", phase, i)
		}
	}
	key := r.ids.intern(l.FullKey())
	plan, est := r.price(pr, l, key)
	pr.Candidates = append(pr.Candidates, &Candidate{
		Layout:      l,
		AlignOrigin: origin,
		Plan:        plan,
		Estimate:    est,
		Cost:        est.Time * pr.Phase.Freq,
		key:         key,
	})
	r.spacesDirty = true
	r.syncCacheStats()
	return len(pr.Candidates) - 1, nil
}

// DeleteCandidate removes candidate i from a phase's search space
// ("delete candidate layouts from the search spaces").  The last
// candidate of a phase cannot be deleted.  Call Reselect afterwards.
func (r *Result) DeleteCandidate(phase, i int) error {
	if phase < 0 || phase >= len(r.Phases) {
		return fmt.Errorf("core: no phase %d", phase)
	}
	pr := r.Phases[phase]
	if i < 0 || i >= len(pr.Candidates) {
		return fmt.Errorf("core: phase %d has no candidate %d", phase, i)
	}
	if len(pr.Candidates) == 1 {
		return fmt.Errorf("core: cannot delete the last candidate of phase %d", phase)
	}
	pr.Candidates = append(pr.Candidates[:i], pr.Candidates[i+1:]...)
	if pr.Chosen >= len(pr.Candidates) {
		pr.Chosen = 0
	}
	r.spacesDirty = true
	return nil
}

// EvaluatePinned estimates the whole-program cost when every phase is
// forced to the candidate matching the given picker (e.g. a fixed
// static layout), including remapping costs where placements differ.
// It returns the total µs and the per-phase candidate indices; an
// error if some phase has no matching candidate.
func (r *Result) EvaluatePinned(pick func(pr *PhaseResult) int) (float64, []int, error) {
	choice := make([]int, len(r.Phases))
	total := 0.0
	for p, pr := range r.Phases {
		i := pick(pr)
		if i < 0 || i >= len(pr.Candidates) {
			return 0, nil, fmt.Errorf("core: phase %d has no matching candidate", p)
		}
		choice[p] = i
		total += pr.Candidates[i].Cost
	}
	for _, e := range r.PCFG.Edges {
		from := r.Phases[e.From].Candidates[choice[e.From]]
		to := r.Phases[e.To].Candidates[choice[e.To]]
		names := liveNames(r.LiveIn[e.To])
		total += r.remapCost(from, to, names, r.ids.intern(joinNames(names))) * e.Freq
	}
	return total, choice, nil
}
