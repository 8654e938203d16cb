package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/programs"
)

// AblationRow is one program's estimated whole-program times under the
// framework's design alternatives.
type AblationRow struct {
	Program string
	// Base is the paper configuration: 0-1 alignment + 0-1 selection,
	// vectorization + coalescing on, 1-D BLOCK spaces.
	Base float64
	// GreedyAlign swaps the 0-1 alignment resolution for the greedy
	// heuristic the paper declines.
	GreedyAlign float64
	// DPSelect runs the selection by the elimination DP alone (no ILP
	// fallback over its cap).
	DPSelect float64
	// NoVectorize disables message vectorization in the compiler model.
	NoVectorize float64
	// NoCoalesce disables message coalescing.
	NoCoalesce float64
	// CGP enables coarse-grain pipelining (absent from the paper's
	// target compiler).
	CGP float64
	// Interchange enables loop interchange.
	Interchange float64
	// Extended enables CYCLIC and multi-dimensional distributions.
	Extended float64
}

// Ablations runs every configuration over the four benchmark programs
// at a representative test case (n from the headline size scaled down
// for speed, 16 processors).
func Ablations() ([]AblationRow, error) {
	cases := []struct {
		name string
		n    int
		dt   fortran.DataType
	}{
		{"adi", 256, fortran.Double},
		{"erlebacher", 32, fortran.Double},
		{"tomcatv", 128, fortran.Double},
		{"shallow", 256, fortran.Real},
	}
	var rows []AblationRow
	for _, c := range cases {
		spec, _ := programs.ByName(c.name)
		src := spec.Source(c.n, c.dt)
		run := func(mod func(*core.Options)) (float64, error) {
			opt := core.Options{Procs: 16}
			mod(&opt)
			res, err := core.Analyze(context.Background(), core.Input{Source: src}, opt)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", c.name, err)
			}
			return res.TotalCost / 1e3, nil
		}
		row := AblationRow{Program: c.name}
		var err error
		// The base is the paper's configuration, so its selection is the
		// 0-1 solve the DPSelect column is compared against.
		if row.Base, err = run(func(o *core.Options) { o.ForceILP = true }); err != nil {
			return nil, err
		}
		if row.GreedyAlign, err = run(func(o *core.Options) { o.Align = align.Options{Greedy: true} }); err != nil {
			return nil, err
		}
		if row.DPSelect, err = run(func(o *core.Options) { o.UseDP = true }); err != nil {
			return nil, err
		}
		if row.NoVectorize, err = run(func(o *core.Options) { o.Compiler.NoMessageVectorization = true }); err != nil {
			return nil, err
		}
		if row.NoCoalesce, err = run(func(o *core.Options) { o.Compiler.NoMessageCoalescing = true }); err != nil {
			return nil, err
		}
		if row.CGP, err = run(func(o *core.Options) { o.Compiler.CoarseGrainPipelining = true }); err != nil {
			return nil, err
		}
		if row.Interchange, err = run(func(o *core.Options) { o.Compiler.LoopInterchange = true }); err != nil {
			return nil, err
		}
		if row.Extended, err = run(func(o *core.Options) { o.Cyclic = true; o.MultiDim = true }); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblations prints the ablation table (estimated ms per
// configuration).
func RenderAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations: estimated whole-program time (ms) per design alternative, 16 processors")
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"program", "base", "greedy", "dp-sel", "no-vec", "no-coal", "cgp", "interchg", "extended")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			r.Program, r.Base, r.GreedyAlign, r.DPSelect, r.NoVectorize, r.NoCoalesce,
			r.CGP, r.Interchange, r.Extended)
	}
	b.WriteString(`
Reading guide: greedy alignment and DP selection should match the 0-1
optimum on these programs (the paper's point is optimality at acceptable
cost, not that heuristics always lose); disabling vectorization blows up
message counts; coarse-grain pipelining and loop interchange — absent
from the paper's target compiler — rescue the pipelined/sequentialized
layouts; extended distribution spaces never hurt.
`)
	return b.String()
}

// CSV renders a figure's series as comma-separated values for external
// plotting: procs, then per layout estimated and measured seconds.
func (f *Figure) CSV() string {
	var b strings.Builder
	if len(f.Points) == 0 {
		return ""
	}
	b.WriteString("procs")
	var names []string
	for _, l := range f.Points[0].Results.Layouts {
		names = append(names, l.Name)
		clean := strings.NewReplacer(" ", "", ",", ".", "(", "", ")", "", "*", "s").Replace(l.Name)
		fmt.Fprintf(&b, ",%s_est,%s_meas", clean, clean)
	}
	b.WriteString(",tool_pick\n")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%d", pt.Procs)
		for _, n := range names {
			found := false
			for _, l := range pt.Results.Layouts {
				if l.Name == n {
					fmt.Fprintf(&b, ",%.6f,%.6f", l.Estimated/1e6, l.Measured/1e6)
					found = true
					break
				}
			}
			if !found {
				b.WriteString(",,")
			}
		}
		fmt.Fprintf(&b, ",%s\n", strings.ReplaceAll(pt.Results.ToolPickName, ",", ";"))
	}
	return b.String()
}
