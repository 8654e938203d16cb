package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/programs"
)

// ablationPoint runs one configuration on a small Adi.
func ablationPoint(t *testing.T, mod func(*core.Options)) *core.Result {
	t.Helper()
	opt := core.Options{Procs: 8}
	if mod != nil {
		mod(&opt)
	}
	res, err := core.Analyze(context.Background(), core.Input{Source: programs.Adi(64, fortran.Double)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAblationRelations(t *testing.T) {
	base := ablationPoint(t, nil)

	// Greedy alignment: Adi has no conflicts, so identical result.
	greedy := ablationPoint(t, func(o *core.Options) { o.Align = align.Options{Greedy: true} })
	if diff := greedy.TotalCost - base.TotalCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("greedy alignment changed conflict-free Adi: %v vs %v", greedy.TotalCost, base.TotalCost)
	}

	// Disabling vectorization must not improve the estimate.
	noVec := ablationPoint(t, func(o *core.Options) { o.Compiler.NoMessageVectorization = true })
	if noVec.TotalCost < base.TotalCost-1e-6 {
		t.Errorf("disabling vectorization improved the estimate: %v vs %v", noVec.TotalCost, base.TotalCost)
	}

	// Coarse-grain pipelining and interchange can only help.
	cgp := ablationPoint(t, func(o *core.Options) { o.Compiler.CoarseGrainPipelining = true })
	if cgp.TotalCost > base.TotalCost+1e-6 {
		t.Errorf("CGP worsened the estimate: %v vs %v", cgp.TotalCost, base.TotalCost)
	}
	inter := ablationPoint(t, func(o *core.Options) { o.Compiler.LoopInterchange = true })
	if inter.TotalCost > base.TotalCost+1e-6 {
		t.Errorf("interchange worsened the estimate: %v vs %v", inter.TotalCost, base.TotalCost)
	}

	// Bigger search spaces can only help.
	ext := ablationPoint(t, func(o *core.Options) { o.Cyclic = true; o.MultiDim = true })
	if ext.TotalCost > base.TotalCost+1e-6 {
		t.Errorf("extended spaces worsened the selection: %v vs %v", ext.TotalCost, base.TotalCost)
	}
}

func TestRenderAblations(t *testing.T) {
	rows := []AblationRow{{
		Program: "adi", Base: 100, GreedyAlign: 100, DPSelect: 100,
		NoVectorize: 250, NoCoalesce: 120, CGP: 90, Interchange: 95,
		Extended: 100,
	}}
	text := RenderAblations(rows)
	if !strings.Contains(text, "adi") || !strings.Contains(text, "Reading guide") {
		t.Errorf("render:\n%s", text)
	}
}

func TestFigureCSV(t *testing.T) {
	f := &Figure{
		Title: "t",
		Points: []SeriesPoint{{
			Procs: 4,
			Results: &CaseResult{
				ToolPickName: "row (BLOCK,*)",
				Layouts: []LayoutEval{
					{Name: "row (BLOCK,*)", Estimated: 2e6, Measured: 1.5e6},
					{Name: "col (*,BLOCK)", Estimated: 4e6, Measured: 4.2e6},
				},
			},
		}},
	}
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "procs,") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4,2.000000,1.500000,4.000000,4.200000,") {
		t.Errorf("row: %s", lines[1])
	}
	if strings.Contains(lines[1], "BLOCK,*") {
		t.Error("unescaped comma in CSV value")
	}
	empty := (&Figure{}).CSV()
	if empty != "" {
		t.Errorf("empty figure CSV = %q", empty)
	}
}
