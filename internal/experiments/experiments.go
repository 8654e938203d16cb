// Package experiments reproduces the paper's evaluation (§4): the 99
// test cases over Adi, Erlebacher, Tomcatv and Shallow, the
// estimated-vs-measured comparisons of Figures 3-7, and the summary
// statistics of §6 (optimal selections, worst-case loss, 0-1 problem
// sizes and solve times).
//
// A test case is (program, problem size, element type, processor
// count).  For each case the tool's estimates are compared against
// "measured" times from the discrete-event simulator executing the
// SPMD lowering of each candidate whole-program layout:
//
//   - one static layout per template dimension (distribute dim k
//     everywhere), and
//   - the dynamic layout that gives every phase its locally best
//     candidate and pays remapping on the transitions,
//
// mirroring the candidate sets of the paper's figures (row, column,
// remapped for Adi; dim 1/2/3 and one-remap for Erlebacher; ...).
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/programs"
	"repro/internal/remap"
	"repro/internal/sim"
	"repro/internal/spmd"
)

// Case is one test case (§4: "A test case consists of a data type for
// the arrays in the program, a problem size, and a given number of
// processors used").
type Case struct {
	Program string
	N       int
	Type    fortran.DataType
	Procs   int
}

func (c Case) String() string {
	return fmt.Sprintf("%s n=%d %s p=%d", c.Program, c.N, c.Type, c.Procs)
}

// LayoutEval is one whole-program candidate layout with its estimated
// and measured (simulated) execution times in µs.
type LayoutEval struct {
	Name      string
	Choice    []int // candidate index per phase
	Estimated float64
	Measured  float64
}

// CaseResult is the outcome of one test case.
type CaseResult struct {
	Case    Case
	Layouts []LayoutEval
	// ToolChoice is the tool's selected layout (its own choice vector,
	// which may coincide with one of Layouts).
	ToolChoice LayoutEval
	// ToolPickName names the candidate the tool's selection matches
	// ("dynamic" / "dim k" / "other").
	ToolPickName string
	// OptimalPicked reports whether the tool's layout has the best
	// measured time among all candidates (within 0.5%).
	OptimalPicked bool
	// LossPct is the measured loss of the tool's pick relative to the
	// best candidate, in percent.
	LossPct float64
	// RankedCorrectly reports whether ordering candidates by estimate
	// matches ordering by measurement.
	RankedCorrectly bool
	// Tool is the full tool result (search spaces, stats).
	Tool *core.Result
}

// Run evaluates one test case.  modify customizes the tool invocation
// (nil for defaults).
func Run(c Case, modify func(*core.Options)) (*CaseResult, error) {
	spec, ok := programs.ByName(c.Program)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown program %q", c.Program)
	}
	src := spec.Source(c.N, c.Type)
	opt := core.Options{Procs: c.Procs}
	if modify != nil {
		modify(&opt)
	}
	res, err := core.Analyze(context.Background(), core.Input{Source: src}, opt)
	if err != nil {
		return nil, err
	}
	return evaluate(c, res)
}

// evaluate builds the CaseResult for one finished tool run: the static
// and remapped candidate layouts, their estimates and measurements, and
// the tool's own pick.  Shared by Run (cold analysis) and the
// session-reusing figure sweeps.
func evaluate(c Case, res *core.Result) (*CaseResult, error) {
	cr := &CaseResult{Case: c, Tool: res}

	// Static candidates: every complete layout available in all phases
	// (for conflict-free programs that is one per template dimension;
	// Tomcatv's two alignment classes contribute four).
	for _, sc := range staticChoices(res) {
		est, _, err := res.EvaluatePinned(pickFromChoice(sc.choice))
		if err != nil {
			return nil, err
		}
		meas, err := Measure(res, sc.choice)
		if err != nil {
			return nil, err
		}
		cr.Layouts = append(cr.Layouts, LayoutEval{
			Name:      sc.name,
			Choice:    sc.choice,
			Estimated: est,
			Measured:  meas,
		})
	}

	// Remapped (dynamic) candidate: each dependence-carrying phase gets
	// its locally best layout; dependence-free phases join a neighbour
	// group, with the layout switch placed on the edge that moves the
	// least live data (e.g. Adi remaps between the row and column sweep
	// groups where only x is live).  Skipped when it collapses to a
	// static layout or is not promising (estimate beyond 3x the best
	// static — the paper measured only "promising data layouts").
	if dyn, ok := remappedChoice(res); ok && !sameChoice(dyn, cr.Layouts) {
		est, _, err := res.EvaluatePinned(pickFromChoice(dyn))
		if err != nil {
			return nil, err
		}
		bestStatic := math.Inf(1)
		for _, l := range cr.Layouts {
			if l.Estimated < bestStatic {
				bestStatic = l.Estimated
			}
		}
		if est <= 3*bestStatic {
			meas, err := Measure(res, dyn)
			if err != nil {
				return nil, err
			}
			cr.Layouts = append(cr.Layouts, LayoutEval{
				Name: "remapped", Choice: dyn, Estimated: est, Measured: meas,
			})
		}
	}

	// The tool's own selection.
	toolMeas, err := Measure(res, res.Selection.Choice)
	if err != nil {
		return nil, err
	}
	cr.ToolChoice = LayoutEval{
		Name:      "tool",
		Choice:    res.Selection.Choice,
		Estimated: res.TotalCost,
		Measured:  toolMeas,
	}
	cr.ToolPickName = "other"
	for _, l := range cr.Layouts {
		if equalChoice(l.Choice, res.Selection.Choice) {
			cr.ToolPickName = l.Name
			break
		}
	}

	// Optimality and ranking statistics.
	best := math.Inf(1)
	for _, l := range cr.Layouts {
		if l.Measured < best {
			best = l.Measured
		}
	}
	if toolMeas < best {
		best = toolMeas
	}
	cr.OptimalPicked = toolMeas <= best*1.005
	cr.LossPct = (toolMeas - best) / best * 100
	if cr.LossPct < 0 {
		cr.LossPct = 0
	}
	cr.RankedCorrectly = rankingAgrees(cr.Layouts)
	return cr, nil
}

// namedChoice is one global static layout.
type namedChoice struct {
	name   string
	key    string
	choice []int
}

// staticChoices enumerates the complete layouts present in every
// phase's search space (by layout key) and names them by the array
// placement they induce: "row (BLOCK,*)" / "col (*,BLOCK)" for the
// canonical 2-D layouts, "dimK" in higher dimensions, with /b suffixes
// for alternative alignments sharing a distributed dimension.
func staticChoices(res *core.Result) []namedChoice {
	// Key sets per phase; keep keys available everywhere.
	common := map[string][]int{}
	for i, cand := range res.Phases[0].Candidates {
		common[cand.Layout.Key()] = append(make([]int, 0, len(res.Phases)), i)
	}
	for _, pr := range res.Phases[1:] {
		for key, choice := range common {
			found := -1
			for i, cand := range pr.Candidates {
				if cand.Layout.Key() == key {
					found = i
					break
				}
			}
			if found < 0 {
				delete(common, key)
				continue
			}
			common[key] = append(choice, found)
		}
	}
	d := res.Template.Rank()
	var out []namedChoice
	for key, choice := range common {
		cand := res.Phases[0].Candidates[choice[0]]
		dims := cand.Layout.DistributedTemplateDims()
		name := "static"
		if len(dims) == 1 {
			// Orient the name by the placement of the lexicographically
			// first full-rank array (stable across alignments).
			k := dims[0]
			for _, a := range cand.Layout.Align.Arrays() {
				if len(cand.Layout.Align.Map[a]) == d {
					if dd := cand.Layout.DistributedDims(a); len(dd) == 1 {
						k = dd[0]
					}
					break
				}
			}
			name = dimName(k, d)
		}
		out = append(out, namedChoice{name: name, key: key, choice: choice})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key < out[j].key
	})
	// Disambiguate duplicate names.
	for i := 1; i < len(out); i++ {
		if out[i].name == out[i-1].name || strings.HasPrefix(out[i-1].name, out[i].name+"/") {
			base := strings.SplitN(out[i].name, "/", 2)[0]
			out[i].name = fmt.Sprintf("%s/%c", base, 'b'+byte(i-firstWith(out, base))-1)
		}
	}
	return out
}

// firstWith finds the first index whose name starts with base.
func firstWith(out []namedChoice, base string) int {
	for i, nc := range out {
		if strings.SplitN(nc.name, "/", 2)[0] == base {
			return i
		}
	}
	return 0
}

// remappedChoice builds the structural dynamic layout: anchor phases
// (those with loop-carried flow dependences) take their locally best
// candidate; runs of dependence-free phases between anchors inherit an
// adjacent anchor's layout, with the switch on the cheapest live edge.
// Returns ok=false when there are no anchors (nothing to remap for).
func remappedChoice(res *core.Result) ([]int, bool) {
	n := len(res.Phases)
	keys := make([]string, n)
	var anchors []int
	for p, pr := range res.Phases {
		if len(pr.Info.FlowDeps()) == 0 {
			continue
		}
		best := 0
		for i, cand := range pr.Candidates {
			if cand.Cost < pr.Candidates[best].Cost {
				best = i
			}
		}
		keys[p] = pr.Candidates[best].Layout.Key()
		anchors = append(anchors, p)
	}
	if len(anchors) == 0 {
		return nil, false
	}
	layoutOf := func(p int) *layout.Layout {
		for _, cand := range res.Phases[p].Candidates {
			if cand.Layout.Key() == keys[p] {
				return cand.Layout
			}
		}
		return nil
	}
	// Fill neutral runs between consecutive anchors, cyclically (the
	// benchmark programs all iterate, so the last run wraps to the
	// first anchor).
	for ai, l := range anchors {
		r := anchors[(ai+1)%len(anchors)]
		lKey, rKey := keys[l], keys[r]
		// Positions strictly between l and r in cyclic phase order.
		var run []int
		for q := (l + 1) % n; q != r; q = (q + 1) % n {
			run = append(run, q)
		}
		if len(run) == 0 {
			continue
		}
		if lKey == rKey {
			for _, q := range run {
				keys[q] = lKey
			}
			continue
		}
		// Candidate switch edges: before run[0], between members, or
		// after run[-1]; pick the one moving the least live data.
		lLay, rLay := layoutOf(l), layoutOf(r)
		bestEdge, bestCost := 0, math.Inf(1)
		targets := append(append([]int{}, run...), r)
		for k, q := range targets {
			c := remap.Cost(lLay, rLay, res.Unit.Arrays, liveNamesOf(res, q), res.Machine)
			if c < bestCost {
				bestCost, bestEdge = c, k
			}
		}
		for k, q := range run {
			if k < bestEdge {
				keys[q] = lKey
			} else {
				keys[q] = rKey
			}
		}
	}
	// Resolve keys to candidate indices.
	choice := make([]int, n)
	for p, pr := range res.Phases {
		idx := -1
		for i, cand := range pr.Candidates {
			if cand.Layout.Key() == keys[p] {
				idx = i
				break
			}
		}
		if idx < 0 {
			// No matching candidate (distinct alignment classes): take
			// the cheapest.
			idx = 0
			for i, cand := range pr.Candidates {
				if cand.Cost < pr.Candidates[idx].Cost {
					idx = i
				}
			}
		}
		choice[p] = idx
	}
	return choice, true
}

func pickFromChoice(choice []int) func(*core.PhaseResult) int {
	i := -1
	return func(pr *core.PhaseResult) int {
		i++
		return choice[i]
	}
}

func sameChoice(choice []int, layouts []LayoutEval) bool {
	for _, l := range layouts {
		if equalChoice(l.Choice, choice) {
			return true
		}
	}
	return false
}

func equalChoice(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func dimName(k, d int) string {
	if d == 2 {
		return []string{"row (BLOCK,*)", "col (*,BLOCK)"}[k]
	}
	return fmt.Sprintf("dim%d", k+1)
}

// Measure simulates the whole program under the given per-phase
// candidate choice: every phase execution (weighted by frequency) plus
// every remapping the choice implies on PCFG edges.
func Measure(res *core.Result, choice []int) (float64, error) {
	total := 0.0
	for p, pr := range res.Phases {
		cand := pr.Candidates[choice[p]]
		prog := spmd.LowerPhase(res.Unit, pr.Info, cand.Layout, cand.Plan, pr.DataType, res.Machine)
		r, err := sim.Run(prog, res.Machine)
		if err != nil {
			return 0, fmt.Errorf("phase %d: %w", pr.Phase.ID, err)
		}
		total += r.Makespan * pr.Phase.Freq
	}
	for _, e := range res.PCFG.Edges {
		from := res.Phases[e.From].Candidates[choice[e.From]].Layout
		to := res.Phases[e.To].Candidates[choice[e.To]].Layout
		moved := remap.Moved(from, to, liveNamesOf(res, e.To))
		if len(moved) == 0 {
			continue
		}
		prog := spmd.LowerRemap(from, to, res.Unit.Arrays, moved)
		r, err := sim.Run(prog, res.Machine)
		if err != nil {
			return 0, fmt.Errorf("remap %d->%d: %w", e.From, e.To, err)
		}
		total += r.Makespan * e.Freq
	}
	return total, nil
}

// liveNamesOf flattens the tool's live-in set for a phase.
func liveNamesOf(res *core.Result, phase int) []string {
	set := res.LiveIn[phase]
	names := make([]string, 0, len(set))
	for a := range set {
		names = append(names, a)
	}
	sort.Strings(names)
	return names
}

// rankingAgrees checks that sorting by estimate and by measurement
// produce the same order (ties in measurement within 0.5% accepted in
// either order).
func rankingAgrees(layouts []LayoutEval) bool {
	byEst := append([]LayoutEval(nil), layouts...)
	sort.Slice(byEst, func(i, j int) bool { return byEst[i].Estimated < byEst[j].Estimated })
	for i := 0; i+1 < len(byEst); i++ {
		a, b := byEst[i], byEst[i+1]
		if a.Measured > b.Measured*1.005 {
			return false
		}
	}
	return true
}

// Suite returns the paper's 99 test cases: 40 Adi, 21 Erlebacher,
// 19 Tomcatv, 19 Shallow.
func Suite() []Case {
	var cases []Case
	// Adi: 4 sizes × 5 processor counts × 2 element types = 40.
	for _, n := range []int{64, 128, 256, 512} {
		for _, p := range []int{2, 4, 8, 16, 32} {
			for _, dt := range []fortran.DataType{fortran.Real, fortran.Double} {
				cases = append(cases, Case{"adi", n, dt, p})
			}
		}
	}
	// Erlebacher: 3 sizes × 7 processor counts = 21 (double).
	for _, n := range []int{32, 64, 96} {
		for _, p := range []int{2, 4, 8, 16, 32, 64, 128} {
			cases = append(cases, Case{"erlebacher", n, fortran.Double, p})
		}
	}
	// Tomcatv: 3 sizes × 6 processor counts = 18, plus one large = 19
	// (double).
	for _, n := range []int{128, 256, 512} {
		for _, p := range []int{2, 4, 8, 16, 32, 64} {
			cases = append(cases, Case{"tomcatv", n, fortran.Double, p})
		}
	}
	cases = append(cases, Case{"tomcatv", 1024, fortran.Double, 32})
	// Shallow: 3 sizes × 5 processor counts = 15, plus four large = 19
	// (real).
	for _, n := range []int{128, 256, 384} {
		for _, p := range []int{2, 4, 8, 16, 32} {
			cases = append(cases, Case{"shallow", n, fortran.Real, p})
		}
	}
	for _, p := range []int{8, 16, 32, 64} {
		cases = append(cases, Case{"shallow", 512, fortran.Real, p})
	}
	return cases
}

// Summary aggregates a set of case results (the §6 numbers: "In 84
// cases, the tool selected the optimal data layout.  In the cases where
// the tool selected a suboptimal layout, the performance loss incurred
// was within 9.3%").
type Summary struct {
	Cases          int
	OptimalPicked  int
	MaxLossPct     float64
	RankingCorrect int
	// MaxSolveMS is the slowest 0-1 solve seen (alignment or
	// selection), in milliseconds (paper: all under 1.1 s).
	MaxSolveMS float64
}

// Summarize aggregates results.
func Summarize(results []*CaseResult) Summary {
	var s Summary
	for _, r := range results {
		s.Cases++
		if r.OptimalPicked {
			s.OptimalPicked++
		}
		if r.LossPct > s.MaxLossPct {
			s.MaxLossPct = r.LossPct
		}
		if r.RankedCorrectly {
			s.RankingCorrect++
		}
		for _, st := range r.Tool.AlignStats {
			if ms := float64(st.Duration.Microseconds()) / 1000; ms > s.MaxSolveMS {
				s.MaxSolveMS = ms
			}
		}
		if ms := float64(r.Tool.Selection.Duration.Microseconds()) / 1000; ms > s.MaxSolveMS {
			s.MaxSolveMS = ms
		}
	}
	return s
}
