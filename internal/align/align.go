// Package align implements alignment analysis (§2.2.1, §3.1, §3.2):
// building weighted component affinity graphs per phase, resolving
// inter-dimensional alignment conflicts with 0-1 integer programming,
// partitioning phases into conflict-free classes, and constructing the
// explicit alignment search spaces via the import heuristic.
package align

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/cag"
	"repro/internal/dep"
	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/ilp"
	"repro/internal/layout"
	"repro/internal/lp"
	"repro/internal/pcfg"
	"repro/internal/stage"
	"repro/internal/verify"
)

// Options configures alignment analysis.
type Options struct {
	// ImportScale multiplies the source CAG's weights during an import
	// so its preferences dominate the sink's (§3.2); 0 means 1000.
	ImportScale float64
	// Greedy uses the greedy conflict-resolution baseline instead of
	// the optimal 0-1 formulation (ablation).
	Greedy bool
	// Solver is the 0-1 solver (nil for defaults).  One solver value
	// may be shared by concurrent resolutions: Solve only reads its
	// configuration, and every resolution builds its own problem.
	Solver *ilp.Solver
	// Workers is accepted for compatibility; the construction runs on
	// the calling goroutine.
	Workers int
	// Verify enables independent certification of every resolution:
	// legality of the assignment (orientation completeness, type-2
	// constraints) and recomputation of the cut weight, for optimal,
	// degraded and greedy resolutions alike (verify.CheckAlignment).
	Verify bool
	// Fault is the chaos fault-injection plan (nil outside tests); the
	// stage.AlignSolve site fires around every resolution, and its
	// Corrupt action perturbs the claimed cut weight.
	Fault *fault.Plan
	// Memo is an optional cross-run memoization layer for conflict
	// resolutions, keyed by the content hash of the (graph, dimension,
	// resolver) triple.  Unchanged phases of an edited program present
	// byte-identical CAGs, so their 0-1 solves hit the memo
	// (core.Session's incremental Update path installs one).  Only
	// proven-optimal resolutions are stored, and — poison-proof rule —
	// a memo hit is re-certified like a fresh solve when Verify is on.
	// Implementations must be safe for concurrent use; resolutions are
	// treated as immutable by both sides.
	Memo Memo
}

// Memo is the resolution memoization interface Options.Memo accepts.
type Memo interface {
	GetResolution(key string) (*cag.Resolution, bool)
	PutResolution(key string, res *cag.Resolution)
}

// Defaults returns the options BuildSearchSpaces runs with: every zero
// field replaced by its default.
func (o Options) Defaults() Options {
	if o.ImportScale == 0 {
		o.ImportScale = 1000
	}
	return o
}

// BuildCAG constructs the weighted CAG of one phase.  Every pair of
// dimensions of distinct arrays subscripted by the same induction
// variable in an assignment records an alignment preference; the edge
// direction follows the flow of values under the owner-computes rule
// (from the read array to the written array) and the weight models the
// communication volume — the size of the array that would have to be
// communicated if the preference is unsatisfied (§3.1), scaled by the
// phase's execution frequency.
func BuildCAG(u *fortran.Unit, pi *dep.PhaseInfo, freq float64) *cag.Graph {
	g := cag.NewGraph()
	add := func(arr *fortran.Array) {
		if g.Rank(arr.Name) == 0 {
			g.AddArray(arr.Name, arr.Rank())
		}
	}
	for _, ai := range pi.Assigns {
		if ai.LHS != nil {
			add(ai.LHS.Array)
		}
		for _, r := range ai.Reads {
			add(r.Array)
		}
	}
	for _, ai := range pi.Assigns {
		if ai.LHS == nil {
			continue
		}
		lhs := ai.LHS
		for _, r := range ai.Reads {
			if r.Array.Name == lhs.Array.Name {
				continue
			}
			cost := float64(r.Array.Bytes()) * freq * ai.Guard
			for ld, ls := range lhs.Subs {
				if !ls.Single {
					continue
				}
				for rd, rs := range r.Subs {
					if !rs.Single || rs.Var != ls.Var {
						continue
					}
					g.AddPreference(
						cag.Node{Array: r.Array.Name, Dim: rd},
						cag.Node{Array: lhs.Array.Name, Dim: ld},
						cost,
					)
				}
			}
		}
	}
	return g
}

// Class is one conflict-free phase class of the search space
// construction (§3.2).
type Class struct {
	ID     int
	Phases []int
	CAG    *cag.Graph
	Arrays map[string]bool
	// Cands are the class's alignment candidates: its own optimal
	// alignment first, then imported ones.
	Cands []*Candidate
}

// Candidate is one alignment candidate of a class or phase.
type Candidate struct {
	// Part is the alignment information (conflict-free partitioning).
	Part cag.Partitioning
	// Assignment orients every node onto a template dimension.
	Assignment map[cag.Node]int
	// Origin documents the candidate's provenance.
	Origin string
}

// PhaseCandidate is a class candidate projected onto one phase.
type PhaseCandidate struct {
	Align  *layout.Alignment
	Part   cag.Partitioning
	Origin string
}

// Degradation records one alignment solve that was cut off by a
// node/time budget and fell back to an incumbent or the greedy
// heuristic.
type Degradation struct {
	// Where identifies the solve ("phase 3", "class 0", "import 1->2").
	Where string
	// Reason describes the cutoff and the fallback used.
	Reason string
	// Gap is the relative optimality gap when known; negative when not.
	Gap float64
}

// Spaces is the result of alignment search space construction.
type Spaces struct {
	Classes    []*Class
	PhaseClass map[int]int
	// PerPhase maps phase ID to its deduplicated candidate alignments.
	PerPhase map[int][]*PhaseCandidate
	// Stats collects one entry per 0-1 conflict resolution performed.
	Stats []cag.Stats
	// Degradations lists the solves that were cut off by a budget and
	// degraded to an incumbent or the greedy heuristic (empty when every
	// resolution was proven optimal).
	Degradations []Degradation
	// TemplateRank is the program template dimensionality used.
	TemplateRank int
}

// BuildSearchSpaces runs the full §3.2 heuristic:
//
//  1. initialize per-phase CAGs (resolving any intra-phase conflicts);
//  2. partition phases into classes in reverse postorder, greedily
//     merging CAGs while conflict-free;
//  3. import each class's optimal alignment into every other class's
//     search space (scale, merge, re-resolve, restrict, ⊑-dedup);
//  4. project class candidates onto per-phase candidate alignments.
//
// Every resolution is recorded as it is produced, so Stats and
// Degradations follow the order of the steps above.  A canceled ctx
// aborts the construction between solves.
func BuildSearchSpaces(ctx context.Context, u *fortran.Unit, g *pcfg.Graph, infos map[int]*dep.PhaseInfo, opt Options) (*Spaces, error) {
	opt = opt.Defaults()
	d := u.MaxRank()
	if d == 0 {
		return nil, fmt.Errorf("align: program has no arrays")
	}
	sp := &Spaces{
		PhaseClass:   map[int]int{},
		PerPhase:     map[int][]*PhaseCandidate{},
		TemplateRank: d,
	}

	// One lp.Workspace, created at the first resolution, serves every
	// 0-1 solve of the call: warm starts and buffer reuse.  resolve
	// records each resolution as it is produced.
	var ws *lp.Workspace
	resolve := func(cg *cag.Graph, where string) (*cag.Resolution, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ws == nil {
			ws = lp.NewWorkspace()
		}
		r, err := resolveOne(cg, d, opt, ws, where)
		if err != nil {
			return nil, fmt.Errorf("align: %s: %w", where, err)
		}
		sp.record(r)
		return r.res, nil
	}

	// Step 1: per-phase conflict-free CAGs.
	phaseCAG := map[int]*cag.Graph{}
	for _, ph := range g.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pg := BuildCAG(u, infos[ph.ID], ph.Freq)
		if pg.HasConflict() {
			res, err := resolve(pg, fmt.Sprintf("phase %d", ph.ID))
			if err != nil {
				return nil, err
			}
			pg = keptGraph(pg, res.Assignment)
		}
		phaseCAG[ph.ID] = pg
	}

	// Step 2: greedy class partitioning in reverse postorder.
	for _, id := range g.ReversePostorder() {
		pg := phaseCAG[id]
		placed := false
		if len(sp.Classes) > 0 {
			last := sp.Classes[len(sp.Classes)-1]
			merged := last.CAG.Merge(pg)
			if !merged.HasConflict() {
				last.CAG = merged
				last.Phases = append(last.Phases, id)
				for _, a := range pg.Arrays() {
					last.Arrays[a] = true
				}
				sp.PhaseClass[id] = last.ID
				placed = true
			}
		}
		if !placed {
			c := &Class{ID: len(sp.Classes), Phases: []int{id}, CAG: pg.Clone(), Arrays: map[string]bool{}}
			for _, a := range pg.Arrays() {
				c.Arrays[a] = true
			}
			sp.Classes = append(sp.Classes, c)
			sp.PhaseClass[id] = c.ID
		}
	}

	// Base candidate per class: the class CAG's own alignment.
	for _, c := range sp.Classes {
		res, err := resolve(c.CAG, fmt.Sprintf("class %d", c.ID))
		if err != nil {
			return nil, err
		}
		c.Cands = append(c.Cands, &Candidate{
			Part:       res.Aligned.Restrict(c.Arrays),
			Assignment: restrictAssignment(res.Assignment, c.Arrays),
			Origin:     fmt.Sprintf("class %d optimal", c.ID),
		})
	}

	// Step 3: imports between classes, sink-major.  An import reads only
	// the class CAGs, which are fixed after step 2, so each pair's solve
	// can be followed at once by its ⊑-dedup against the sink's growing
	// candidate list.
	for _, sink := range sp.Classes {
		for _, src := range sp.Classes {
			if src == sink {
				continue
			}
			scaled := src.CAG.Clone()
			scaled.ScaleWeights(opt.ImportScale)
			res, err := resolve(scaled.Merge(sink.CAG), fmt.Sprintf("import %d->%d", src.ID, sink.ID))
			if err != nil {
				return nil, err
			}
			cand := &Candidate{
				Part:       res.Aligned.Restrict(sink.Arrays),
				Assignment: restrictAssignment(res.Assignment, sink.Arrays),
				Origin:     fmt.Sprintf("imported from class %d", src.ID),
			}
			if !weakerOrEqual(cand, sink.Cands) {
				sink.Cands = append(sink.Cands, cand)
			}
		}
	}

	// Step 4: project onto phases, deduplicating.  The projection for
	// the dedup test uses the phase's own arrays (§3.2: identical
	// projections collapse), but the resulting alignment keeps the
	// whole class's arrays so phases of one class place shared arrays
	// consistently and transitions between them stay remap-free.
	for _, ph := range g.Phases {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := sp.Classes[sp.PhaseClass[ph.ID]]
		phaseArrays := map[string]bool{}
		for _, a := range ph.Arrays {
			phaseArrays[a] = true
		}
		classArrays := map[string]bool{}
		for a := range c.Arrays {
			classArrays[a] = true
		}
		for a := range phaseArrays {
			classArrays[a] = true
		}
		var cands []*PhaseCandidate
		for _, cc := range c.Cands {
			pc := &PhaseCandidate{
				Part:   cc.Part.Restrict(phaseArrays),
				Align:  toAlignment(u, cc.Assignment, classArrays, d),
				Origin: cc.Origin,
			}
			dup := false
			for _, prev := range cands {
				if prev.Part.Equal(pc.Part) && sameAlignment(prev.Align, pc.Align) {
					dup = true
					break
				}
			}
			if !dup {
				cands = append(cands, pc)
			}
		}
		sp.PerPhase[ph.ID] = cands
	}
	return sp, nil
}

// resolution bundles one 0-1 solve's outputs: the resolution and, when
// the solve was cut off by a budget, its degradation.
type resolution struct {
	res *cag.Resolution
	deg *Degradation
}

// resolveOne dispatches to the ILP or greedy resolver.  Stats and
// degradations travel in the returned resolution for record to fold
// into the Spaces.  The stage.AlignSolve fault site fires here, and
// Options.Verify certifies the resolution — after any injected
// corruption, so a corrupted resolution cannot escape.
func resolveOne(g *cag.Graph, d int, opt Options, ws *lp.Workspace, where string) (*resolution, error) {
	if err := opt.Fault.Err(stage.AlignSolve); err != nil {
		return nil, err
	}
	var memoKey string
	if opt.Memo != nil {
		memoKey = resolutionMemoKey(g, d, opt)
		if res, ok := opt.Memo.GetResolution(memoKey); ok {
			// Re-certify the memoized resolution exactly like a fresh
			// solve — a corrupted memo entry must not escape.
			if opt.Verify {
				if cerr := verify.CheckAlignment(g, d, res); cerr != nil {
					return nil, cerr
				}
			}
			return &resolution{res: res}, nil
		}
	}
	var res *cag.Resolution
	var err error
	if opt.Greedy {
		res, err = cag.ResolveGreedy(g, d)
	} else {
		res, err = cag.Resolve(g, d, opt.Solver, ws)
	}
	if err != nil {
		return nil, err
	}
	res.CutWeight = opt.Fault.Corrupt(stage.AlignSolve, res.CutWeight)
	if opt.Verify {
		if cerr := verify.CheckAlignment(g, d, res); cerr != nil {
			return nil, cerr
		}
	}
	out := &resolution{res: res}
	if !opt.Greedy && res.Degraded {
		out.deg = &Degradation{Where: where, Reason: res.DegradeReason, Gap: res.Gap}
	}
	// Only proven-optimal resolutions are worth memoizing: a degraded
	// one depends on the budget that cut it off, not just the graph.
	if opt.Memo != nil && !res.Degraded {
		opt.Memo.PutResolution(memoKey, res)
	}
	return out, nil
}

// resolutionMemoKey is the content hash of everything one 0-1
// resolution depends on: the graph (sorted arrays with ranks, sorted
// edges with bit-exact weights), the template dimensionality and the
// resolver choice.  Budget-shaped options (Solver, Timeout) are
// deliberately absent — callers must only install a Memo when the
// solve is fully content-determined (no budget, default solver), the
// same precondition core applies to selection reuse.
func resolutionMemoKey(g *cag.Graph, d int, opt Options) string {
	h := artifact.NewHasher("align-memo")
	h.Int(d).Bool(opt.Greedy)
	arrays := g.Arrays()
	h.Int(len(arrays))
	for _, a := range arrays {
		h.Str(a).Int(g.Rank(a))
	}
	edges := g.Edges()
	h.Int(len(edges))
	for _, e := range edges {
		h.Str(e.From.String()).Str(e.To.String()).Float(e.Weight)
	}
	return string(h.Key())
}

// record folds one resolution's stats and degradation into the Spaces.
func (sp *Spaces) record(r *resolution) {
	if r.res.Stats.Vars > 0 {
		sp.Stats = append(sp.Stats, r.res.Stats)
	}
	if r.deg != nil {
		sp.Degradations = append(sp.Degradations, *r.deg)
	}
}

// keptGraph drops the edges cut by an assignment, leaving the
// conflict-free CAG that initializes the phase's search space.
func keptGraph(g *cag.Graph, assignment map[cag.Node]int) *cag.Graph {
	out := cag.NewGraph()
	for _, a := range g.Arrays() {
		out.AddArray(a, g.Rank(a))
	}
	for _, e := range g.Edges() {
		if assignment[e.From] == assignment[e.To] {
			out.AddWeight(e.From, e.To, e.Weight)
		}
	}
	return out
}

func restrictAssignment(asg map[cag.Node]int, arrays map[string]bool) map[cag.Node]int {
	out := map[cag.Node]int{}
	for n, k := range asg {
		if arrays[n.Array] {
			out[n] = k
		}
	}
	return out
}

// weakerOrEqual reports whether cand's alignment information refines
// (is weaker than or equal to) some existing candidate's — the §3.2
// dedup test: such a candidate adds no information and is skipped.
func weakerOrEqual(cand *Candidate, existing []*Candidate) bool {
	for _, e := range existing {
		if cand.Part.Refines(e.Part) {
			return true
		}
	}
	return false
}

// toAlignment converts a node assignment into a layout.Alignment over
// the given arrays.  Arrays missing from the assignment (possible when
// a phase references an array its class never coupled) get canonical
// embeddings onto free template dimensions.
func toAlignment(u *fortran.Unit, asg map[cag.Node]int, arrays map[string]bool, d int) *layout.Alignment {
	a := layout.NewAlignment()
	var names []string
	for n := range arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := u.Arrays[name]
		if arr == nil {
			continue
		}
		dims := make([]int, arr.Rank())
		used := map[int]bool{}
		missing := false
		for k := range dims {
			t, ok := asg[cag.Node{Array: name, Dim: k}]
			if !ok {
				missing = true
				break
			}
			dims[k] = t
			used[t] = true
		}
		if missing {
			// Canonical embedding on the lowest free dimensions.
			used = map[int]bool{}
			for k := range dims {
				for t := 0; t < d; t++ {
					if !used[t] {
						dims[k] = t
						used[t] = true
						break
					}
				}
			}
		}
		a.Set(name, dims)
	}
	return a
}

func sameAlignment(a, b *layout.Alignment) bool {
	if len(a.Map) != len(b.Map) {
		return false
	}
	for n, dims := range a.Map {
		other, ok := b.Map[n]
		if !ok || len(other) != len(dims) {
			return false
		}
		for k := range dims {
			if dims[k] != other[k] {
				return false
			}
		}
	}
	return true
}
