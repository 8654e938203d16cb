package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/programs"
)

// Figure3 reproduces the paper's Figure 3: the Adi 512×512 double
// precision test case on 16 processors with its three candidate data
// layouts, estimated and measured, and the tool's pick (the paper: the
// tool picked the static row-wise layout and ranked all alternatives
// correctly).
func Figure3() (*CaseResult, string, error) {
	cr, err := Run(Case{"adi", 512, fortran.Double, 16}, nil)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Adi test case (512x512, double precision, 16 processors)\n")
	fmt.Fprintf(&b, "%-16s %14s %14s\n", "layout", "estimated(s)", "measured(s)")
	for _, l := range cr.Layouts {
		fmt.Fprintf(&b, "%-16s %14.3f %14.3f\n", l.Name, l.Estimated/1e6, l.Measured/1e6)
	}
	fmt.Fprintf(&b, "tool picked: %s (estimated %.3fs, measured %.3fs); optimal=%v ranking-correct=%v\n",
		cr.ToolPickName, cr.ToolChoice.Estimated/1e6, cr.ToolChoice.Measured/1e6,
		cr.OptimalPicked, cr.RankedCorrectly)
	return cr, b.String(), nil
}

// SeriesPoint is one processor count of a figure's series.
type SeriesPoint struct {
	Procs   int
	Results *CaseResult
}

// Figure is an estimated-vs-measured series over processor counts.
type Figure struct {
	Title  string
	Points []SeriesPoint
}

// Render prints the figure as text: one block per processor count,
// layouts with estimated and measured times.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	if len(f.Points) == 0 {
		return b.String()
	}
	names := make([]string, 0, len(f.Points[0].Results.Layouts))
	for _, l := range f.Points[0].Results.Layouts {
		names = append(names, l.Name)
	}
	fmt.Fprintf(&b, "%-6s", "procs")
	for _, n := range names {
		fmt.Fprintf(&b, " %13s-est %13s-mea", n, n)
	}
	fmt.Fprintf(&b, "  %s\n", "tool-pick")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%-6d", pt.Procs)
		for _, n := range names {
			var le *LayoutEval
			for i := range pt.Results.Layouts {
				if pt.Results.Layouts[i].Name == n {
					le = &pt.Results.Layouts[i]
				}
			}
			if le == nil {
				fmt.Fprintf(&b, " %17s %17s", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %17.3f %17.3f", le.Estimated/1e6, le.Measured/1e6)
		}
		fmt.Fprintf(&b, "  %s", pt.Results.ToolPickName)
		if !pt.Results.OptimalPicked {
			fmt.Fprintf(&b, " (suboptimal, +%.1f%%)", pt.Results.LossPct)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// series runs one program over a processor grid.  The program, its
// dependence structure and its alignment spaces are identical at every
// grid point, so the sweep reuses one core.Session (the cached
// machine-independent front half) plus a shared pricing cache, and
// re-runs only pricing and selection per point — the staged pipeline's
// intended sweep shape.
func series(title, program string, n int, dt fortran.DataType, procs []int, modify func(*core.Options)) (*Figure, error) {
	spec, ok := programs.ByName(program)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown program %q", program)
	}
	src := spec.Source(n, dt)
	shared := core.NewSharedCache(0)
	point := func(p int) core.Options {
		opt := core.Options{Procs: p}
		if modify != nil {
			modify(&opt)
		}
		opt.Cache = shared
		return opt
	}
	sess, err := core.NewSession(context.Background(), core.Input{Source: src}, point(procs[0]))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", program, err)
	}
	f := &Figure{Title: title}
	for _, p := range procs {
		res, err := sess.Analyze(context.Background(), point(p))
		if err != nil {
			return nil, fmt.Errorf("%s p=%d: %w", program, p, err)
		}
		cr, err := evaluate(Case{program, n, dt, p}, res)
		if err != nil {
			return nil, fmt.Errorf("%s p=%d: %w", program, p, err)
		}
		f.Points = append(f.Points, SeriesPoint{Procs: p, Results: cr})
	}
	return f, nil
}

// Figure4 reproduces Figure 4: Adi 256×256, double precision — the
// five test cases (2..32 processors), three layouts each.
func Figure4() (*Figure, error) {
	return series("Figure 4: Adi 256x256 double precision (times in seconds)",
		"adi", 256, fortran.Double, []int{2, 4, 8, 16, 32}, nil)
}

// Figure5 reproduces Figure 5: Erlebacher 64³, double precision — the
// four candidate layouts (three static dimensions, dynamic remap).
func Figure5() (*Figure, error) {
	return series("Figure 5: Erlebacher 64x64x64 double precision (times in seconds)",
		"erlebacher", 64, fortran.Double, []int{2, 4, 8, 16, 32, 64, 128}, nil)
}

// Figure6 reproduces Figure 6: Tomcatv 128×128 double precision, with
// both estimate variants — the prototype's guessed 50% branch
// probability and the actual (annotated) probabilities.
func Figure6() (guessed, actual *Figure, err error) {
	guessed, err = series("Figure 6 (top): Tomcatv 128x128 double, guessed 50% branch probability",
		"tomcatv", 128, fortran.Double, []int{2, 4, 8, 16, 32, 64},
		func(o *core.Options) { o.PCFG.IgnoreProbHints = true })
	if err != nil {
		return nil, nil, err
	}
	actual, err = series("Figure 6 (bottom): Tomcatv 128x128 double, actual branch probabilities",
		"tomcatv", 128, fortran.Double, []int{2, 4, 8, 16, 32, 64}, nil)
	return guessed, actual, err
}

// Figure7 reproduces Figure 7: Shallow 384×384, real — five test
// cases, row vs. column distribution.
func Figure7() (*Figure, error) {
	return series("Figure 7: Shallow 384x384 real (times in seconds)",
		"shallow", 384, fortran.Real, []int{2, 4, 8, 16, 32}, nil)
}

// Figure2 renders the inter-dimensional alignment information lattice
// for two two-dimensional arrays a and b (the paper's Figure 2).
func Figure2() string {
	nodes := []cag.Node{{Array: "a", Dim: 0}, {Array: "a", Dim: 1}, {Array: "b", Dim: 0}, {Array: "b", Dim: 1}}
	var all []cag.Partitioning
	var rec func(i int, parts [][]cag.Node)
	rec = func(i int, parts [][]cag.Node) {
		if i == len(nodes) {
			p := cag.NewPartitioning(parts)
			if !p.HasConflict() {
				all = append(all, p)
			}
			return
		}
		for j := range parts {
			parts[j] = append(parts[j], nodes[i])
			rec(i+1, parts)
			parts[j] = parts[j][:len(parts[j])-1]
		}
		rec(i+1, append(parts, []cag.Node{nodes[i]}))
	}
	rec(0, nil)
	// Order by information content: coarser (fewer parts) first.
	sort.Slice(all, func(i, j int) bool {
		if all[i].NumParts() != all[j].NumParts() {
			return all[i].NumParts() < all[j].NumParts()
		}
		return all[i].String() < all[j].String()
	})
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2: lattice of conflict-free alignments of two 2-D arrays a, b")
	for _, p := range all {
		covers := 0
		for _, q := range all {
			if !q.Equal(p) && q.Refines(p) {
				covers++
			}
		}
		fmt.Fprintf(&b, "  %-40s refined-by %d\n", p.String(), covers)
	}
	fmt.Fprintf(&b, "  %d lattice elements\n", len(all))
	return b.String()
}

// Figure8 renders the appendix's example: the conflicting CAG of two
// 2-D arrays x, y with edges x1->y1 and x2->y1, its 0-1 formulation
// size and the optimal resolution.
func Figure8() (string, error) {
	g := cag.NewGraph()
	g.AddArray("x", 2)
	g.AddArray("y", 2)
	g.AddPreference(cag.Node{Array: "x", Dim: 0}, cag.Node{Array: "y", Dim: 0}, 5)
	g.AddPreference(cag.Node{Array: "x", Dim: 1}, cag.Node{Array: "y", Dim: 0}, 3)
	res, err := cag.Resolve(g, 2, nil, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: alignment conflict resolution as a 0-1 problem")
	fmt.Fprintf(&b, "  CAG: %v\n", g)
	fmt.Fprintf(&b, "  0-1 problem: %d variables, %d constraints\n", res.Stats.Vars, res.Stats.Constraints)
	fmt.Fprintf(&b, "  optimal partitioning: %v (cut weight %.0f)\n", res.Aligned, res.CutWeight)
	return b.String(), nil
}

// ILPSizeRow is one program's 0-1 problem statistics (the numbers the
// paper reports inline in §4: variables, constraints, CPLEX
// milliseconds).
type ILPSizeRow struct {
	Program       string
	Phases        int
	AlignSolves   int
	AlignVars     []int
	AlignCons     []int
	AlignMS       []float64
	SelectVars    int
	SelectCons    int
	SelectMS      float64
	SelectBBNodes int
}

// ILPSizes runs the tool once per program at its headline test case
// and collects every 0-1 problem's size and solve time.
func ILPSizes() ([]ILPSizeRow, error) {
	headline := []Case{
		{"adi", 512, fortran.Double, 16},
		{"erlebacher", 64, fortran.Double, 16},
		{"tomcatv", 128, fortran.Double, 16},
		{"shallow", 384, fortran.Real, 16},
	}
	var rows []ILPSizeRow
	for _, c := range headline {
		spec, _ := programs.ByName(c.Program)
		// ForceILP: the table reports the 0-1 formulation's size, so the
		// default route (the elimination DP, which never builds the ILP)
		// is bypassed.
		res, err := core.Analyze(context.Background(), core.Input{Source: spec.Source(c.N, c.Type)}, core.Options{Procs: c.Procs, ForceILP: true})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Program, err)
		}
		row := ILPSizeRow{
			Program:       c.Program,
			Phases:        len(res.PCFG.Phases),
			AlignSolves:   len(res.AlignStats),
			SelectVars:    res.Selection.Vars,
			SelectCons:    res.Selection.Constraints,
			SelectMS:      float64(res.Selection.Duration.Microseconds()) / 1000,
			SelectBBNodes: res.Selection.BBNodes,
		}
		for _, st := range res.AlignStats {
			row.AlignVars = append(row.AlignVars, st.Vars)
			row.AlignCons = append(row.AlignCons, st.Constraints)
			row.AlignMS = append(row.AlignMS, float64(st.Duration.Microseconds())/1000)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderILPSizes prints the ILP statistics table.
func RenderILPSizes(rows []ILPSizeRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "0-1 problem sizes and solve times (paper §4 inline numbers)")
	fmt.Fprintf(&b, "%-12s %7s %28s %28s\n", "program", "phases", "alignment (vars/cons/ms)", "selection (vars/cons/ms)")
	for _, r := range rows {
		align := "none needed"
		if r.AlignSolves > 0 {
			parts := make([]string, r.AlignSolves)
			for i := 0; i < r.AlignSolves; i++ {
				parts[i] = fmt.Sprintf("%d/%d/%.0f", r.AlignVars[i], r.AlignCons[i], r.AlignMS[i])
			}
			align = strings.Join(parts, ", ")
		}
		fmt.Fprintf(&b, "%-12s %7d %28s %18d/%d/%.0f\n",
			r.Program, r.Phases, align, r.SelectVars, r.SelectCons, r.SelectMS)
	}
	return b.String()
}

// RenderSummary prints the §6 headline statistics for a set of results.
func RenderSummary(results []*CaseResult, s Summary) string {
	var b strings.Builder
	perProgram := map[string]*Summary{}
	for _, r := range results {
		ps := perProgram[r.Case.Program]
		if ps == nil {
			ps = &Summary{}
			perProgram[r.Case.Program] = ps
		}
		ps.Cases++
		if r.OptimalPicked {
			ps.OptimalPicked++
		}
		if r.LossPct > ps.MaxLossPct {
			ps.MaxLossPct = r.LossPct
		}
		if r.RankedCorrectly {
			ps.RankingCorrect++
		}
	}
	fmt.Fprintln(&b, "Summary over the test-case suite (paper §6: 84/99 optimal, max loss 9.3%, ILPs < 1.1s)")
	fmt.Fprintf(&b, "%-12s %6s %8s %9s %8s\n", "program", "cases", "optimal", "ranked-ok", "max-loss")
	var names []string
	for n := range perProgram {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ps := perProgram[n]
		fmt.Fprintf(&b, "%-12s %6d %8d %9d %7.1f%%\n", n, ps.Cases, ps.OptimalPicked, ps.RankingCorrect, ps.MaxLossPct)
	}
	fmt.Fprintf(&b, "%-12s %6d %8d %9d %7.1f%%   slowest 0-1 solve: %.1f ms\n",
		"TOTAL", s.Cases, s.OptimalPicked, s.RankingCorrect, s.MaxLossPct, s.MaxSolveMS)
	return b.String()
}

// RenderCases prints the full per-case listing: one row per test case
// with every candidate layout's estimated and measured times and the
// tool's pick — the underlying data of the §4 discussion.
func RenderCases(results []*CaseResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-44s %-14s %9s\n", "case", "layouts est/meas (s)", "tool pick", "loss")
	for _, r := range results {
		var cells []string
		for _, l := range r.Layouts {
			cells = append(cells, fmt.Sprintf("%s %.3g/%.3g", shortName(l.Name), l.Estimated/1e6, l.Measured/1e6))
		}
		loss := ""
		if !r.OptimalPicked {
			loss = fmt.Sprintf("+%.1f%%", r.LossPct)
		}
		fmt.Fprintf(&b, "%-34s %-44s %-14s %9s\n",
			r.Case.String(), strings.Join(cells, "  "), shortName(r.ToolPickName), loss)
	}
	return b.String()
}

func shortName(n string) string {
	switch {
	case strings.HasPrefix(n, "row"):
		return "row"
	case strings.HasPrefix(n, "col"):
		return "col"
	default:
		return n
	}
}
