package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/execmodel"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/programs"
)

const adiSmall = `
program adi
  parameter (n = 32, niter = 4)
  double precision x(n,n), b(n,n), arow(n), acol(n)
  do i = 1, n
    arow(i) = 0.25
    acol(i) = 0.3
  end do
  do j = 1, n
    do i = 1, n
      x(i,j) = 1.0 / (i + j)
    end do
  end do
  do iter = 1, niter
    do j = 1, n
      do i = 1, n
        b(i,j) = 2.0 + arow(j)*arow(j)
      end do
    end do
    do j = 2, n
      do i = 1, n
        x(i,j) = x(i,j) - x(i,j-1)*b(i,j)/b(i,j-1)
      end do
    end do
    do j = 1, n
      do i = 1, n
        b(i,j) = 2.0 + acol(i)*acol(i)
      end do
    end do
    do j = 1, n
      do i = 2, n
        x(i,j) = x(i,j) - x(i-1,j)*b(i,j)/b(i-1,j)
      end do
    end do
    do j = 1, n
      do i = 1, n
        x(i,j) = 0.5*x(i,j) + 0.125*b(i,j)
      end do
    end do
  end do
end
`

func TestAnalyzeEndToEnd(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 7 {
		t.Fatalf("phases = %d, want 7", len(res.Phases))
	}
	if res.TotalCost <= 0 {
		t.Error("no cost estimate")
	}
	if res.Selection == nil || len(res.Selection.Choice) != len(res.Phases) {
		t.Fatal("selection missing")
	}
	// Every phase has a chosen candidate and complete layouts.
	for _, pr := range res.Phases {
		l := pr.ChosenLayout()
		for _, name := range res.Unit.ArrayNames() {
			if _, ok := l.Align.Map[name]; !ok {
				t.Errorf("phase %d layout misses array %s", pr.Phase.ID, name)
			}
		}
	}
}

func TestSelectionBeatsAnyStatic(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < res.Template.Rank(); k++ {
		k := k
		cost, _, err := res.EvaluatePinned(func(pr *PhaseResult) int {
			for i, c := range pr.Candidates {
				dims := c.Layout.DistributedTemplateDims()
				if len(dims) == 1 && dims[0] == k {
					return i
				}
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCost > cost+1e-6 {
			t.Errorf("selection (%v) worse than static dim %d (%v)", res.TotalCost, k, cost)
		}
	}
}

func TestProcsValidation(t *testing.T) {
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 1}); err == nil {
		t.Fatal("expected error for 1 processor")
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := Analyze(context.Background(), Input{Source: "not fortran"}, Options{Procs: 4}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestUserDistributeConstraint(t *testing.T) {
	// Pin x to a column-wise layout; the tool must respect it even
	// though row-wise is better, and the estimate must grow.
	free, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Analyze(context.Background(), Input{Source: strings.Replace(adiSmall,
		"program adi\n", "program adi\n!hpf$ distribute x(*,block)\n", 1)},
		Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pinned.Phases {
		l := pr.ChosenLayout()
		if dims := l.DistributedDims("x"); len(dims) != 1 || dims[0] != 1 {
			t.Fatalf("phase %d: x distributed %v, want column (user pin)", pr.Phase.ID, dims)
		}
	}
	if pinned.TotalCost < free.TotalCost-1e-9 {
		t.Errorf("pinned column layout (%v) must not beat the free choice (%v)",
			pinned.TotalCost, free.TotalCost)
	}
}

func TestUserAlignConstraint(t *testing.T) {
	src := strings.Replace(adiSmall, "program adi\n",
		"program adi\n!hpf$ align x with b\n", 1)
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Phases {
		l := pr.ChosenLayout()
		for k := 0; k < 2; k++ {
			if l.Align.Of("x", k) != l.Align.Of("b", k) {
				t.Fatalf("phase %d violates user align", pr.Phase.ID)
			}
		}
	}
}

func TestConflictingUserConstraintFails(t *testing.T) {
	src := strings.Replace(adiSmall, "program adi\n",
		"program adi\n!hpf$ distribute x(*,*)\n", 1)
	// Fully serial x eliminates every parallel candidate.
	if _, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4}); err == nil {
		t.Fatal("expected an error when directives eliminate all candidates")
	}
}

func TestDPSelectionAgreesWithILP(t *testing.T) {
	ilpRes, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	dpRes, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8, UseDP: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := ilpRes.TotalCost - dpRes.TotalCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("ILP %v vs DP %v", ilpRes.TotalCost, dpRes.TotalCost)
	}
}

func TestParagonMachine(t *testing.T) {
	ipsc, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	paragon, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8, Machine: machine.Paragon()})
	if err != nil {
		t.Fatal(err)
	}
	if paragon.TotalCost >= ipsc.TotalCost {
		t.Errorf("Paragon (%v) should beat iPSC/860 (%v)", paragon.TotalCost, ipsc.TotalCost)
	}
}

func TestExtendedDistributionSearchSpace(t *testing.T) {
	plain, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 16, Cyclic: true, MultiDim: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Phases[0].Candidates) <= len(plain.Phases[0].Candidates) {
		t.Errorf("extended space (%d) not larger than 1-D block space (%d)",
			len(ext.Phases[0].Candidates), len(plain.Phases[0].Candidates))
	}
	// A larger space can only improve (or match) the selection.
	if ext.TotalCost > plain.TotalCost+1e-6 {
		t.Errorf("extended space selection (%v) worse than plain (%v)", ext.TotalCost, plain.TotalCost)
	}
}

func TestGreedyAlignmentOption(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4, Align: align.Options{Greedy: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost <= 0 {
		t.Error("greedy alignment produced no result")
	}
}

func TestCompilerFlagsAffectEstimates(t *testing.T) {
	plain, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	cgp, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	cgp2 := Options{Procs: 8}
	cgp2.Compiler.CoarseGrainPipelining = true
	cgpRes, err := Analyze(context.Background(), Input{Source: adiSmall}, cgp2)
	if err != nil {
		t.Fatal(err)
	}
	_ = cgp
	if cgpRes.TotalCost > plain.TotalCost+1e-6 {
		t.Errorf("coarse-grain pipelining (%v) should not be worse than without (%v)",
			cgpRes.TotalCost, plain.TotalCost)
	}
}

func TestEmitHPF(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := res.EmitHPF()
	for _, want := range []string{
		"!hpf$ processors p(4)",
		"!hpf$ template t(32,32)",
		"!hpf$ align x(i,j) with t(i,j)",
		"!hpf$ distribute t(",
		"per-phase selection",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EmitHPF missing %q:\n%s", want, text)
		}
	}
}

func TestLivenessKillsRecomputedArrays(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 3 (the second coefficient reset) fully recomputes b, so b
	// must not be live on its entry.
	var resetID = -1
	for _, pr := range res.Phases {
		if pr.Info.WriteSet["b"] && !pr.Info.ReadSet["b"] {
			resetID = pr.Phase.ID
		}
	}
	if resetID < 0 {
		t.Fatal("no reset phase found")
	}
	if res.LiveIn[resetID]["b"] {
		t.Errorf("b live on entry to reset phase %d", resetID)
	}
	if !res.LiveIn[resetID]["x"] {
		t.Errorf("x should be live everywhere")
	}
}

func TestScheduleDiversityInCandidates(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[execmodel.Schedule]bool{}
	for _, pr := range res.Phases {
		for _, c := range pr.Candidates {
			seen[c.Estimate.Schedule] = true
		}
	}
	for _, want := range []execmodel.Schedule{
		execmodel.LooselySynchronous, execmodel.FinePipeline, execmodel.Sequentialized,
	} {
		if !seen[want] {
			t.Errorf("no candidate classified %v", want)
		}
	}
}

func TestSolverSummaryConsistent(t *testing.T) {
	// tomcatv resolves alignment conflicts through the 0-1 solver, so
	// the summary must show the alignment solves plus the selection.
	res, err := Analyze(context.Background(), Input{Source: programs.Tomcatv(32, fortran.Double)},
		Options{Procs: 8, Verify: VerifyOn})
	if err != nil {
		t.Fatal(err)
	}
	check := func(s SolverSummary) {
		t.Helper()
		if s.Solves == 0 || s.LPPivots == 0 {
			t.Errorf("implausible solver summary: %+v", s)
		}
		if s.LPWarm+s.LPCold != s.Nodes {
			t.Errorf("warm %d + cold %d != nodes %d", s.LPWarm, s.LPCold, s.Nodes)
		}
		// The summary must equal the per-solve records it aggregates.
		// A tree-dp-routed selection counts as a solve with zero nodes.
		want := SolverSummary{}
		for _, st := range res.AlignStats {
			want.Solves++
			want.Nodes += st.BBNodes
			want.LPPivots += st.LPPivots
			want.LPWarm += st.LPWarm
			want.LPCold += st.LPCold
			want.RCFixed += st.RCFixed
			want.Presolved += st.Presolved
		}
		if sel := res.Selection; sel.Solver != "" || sel.BBNodes > 0 {
			want.Solves++
			want.Nodes += sel.BBNodes
			want.LPPivots += sel.LPPivots
			want.LPWarm += sel.LPWarm
			want.LPCold += sel.LPCold
			want.RCFixed += sel.RCFixed
			want.Presolved += sel.Presolved
			want.Route = sel.Solver
		}
		if s != want {
			t.Errorf("summary %+v does not match records %+v", s, want)
		}
		if s.Route == "" {
			t.Errorf("selection route not recorded: %+v", s)
		}
	}
	check(res.Solver)
	if res.Solver.Solves < 2 {
		t.Errorf("tomcatv: %d solves, want alignment + selection", res.Solver.Solves)
	}
	// Reselect recomputes the summary idempotently — no double counting.
	before := res.Solver
	if err := res.Reselect(); err != nil {
		t.Fatal(err)
	}
	check(res.Solver)
	if res.Solver.Solves != before.Solves {
		t.Errorf("reselect changed solve count: %+v -> %+v", before, res.Solver)
	}
}

func TestInsertCandidateAndReselect(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := res.TotalCost
	// Insert a cyclic layout the 1-D BLOCK prototype never generates.
	a := layout.NewAlignment()
	a.Set("x", []int{0, 1})
	l := layout.MustLayout(res.Template, a, []layout.DimDist{
		{Kind: layout.Cyclic, Procs: 4}, {Kind: layout.Star, Procs: 1},
	})
	idx, err := res.InsertCandidate(0, l, "user")
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Phases[0]
	if pr.Candidates[idx].AlignOrigin != "user" {
		t.Error("origin not recorded")
	}
	// The inserted layout must cover every array.
	for _, name := range res.Unit.ArrayNames() {
		if _, ok := pr.Candidates[idx].Layout.Align.Map[name]; !ok {
			t.Errorf("inserted candidate misses %s", name)
		}
	}
	if err := res.Reselect(); err != nil {
		t.Fatal(err)
	}
	// A larger space can only match or improve the optimum.
	if res.TotalCost > before+1e-6 {
		t.Errorf("reselect worsened: %v -> %v", before, res.TotalCost)
	}
	// Duplicate insertion is rejected.
	if _, err := res.InsertCandidate(0, l, "dup"); err == nil {
		t.Error("duplicate insert accepted")
	}
	if _, err := res.InsertCandidate(99, l, "oob"); err == nil {
		t.Error("out-of-range phase accepted")
	}
}

func TestDeleteCandidateAndReselect(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := res.TotalCost
	// Delete every phase's currently chosen candidate: the tool must
	// find the best remaining selection, which cannot be cheaper.
	for p := range res.Phases {
		if err := res.DeleteCandidate(p, res.Phases[p].Chosen); err != nil {
			t.Fatal(err)
		}
	}
	if err := res.Reselect(); err != nil {
		t.Fatal(err)
	}
	if res.TotalCost < before-1e-6 {
		t.Errorf("deleting candidates improved the optimum: %v -> %v", before, res.TotalCost)
	}
	// Guard rails.
	for len(res.Phases[0].Candidates) > 1 {
		if err := res.DeleteCandidate(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := res.DeleteCandidate(0, 0); err == nil {
		t.Error("deleted the last candidate")
	}
	if err := res.DeleteCandidate(0, 7); err == nil {
		t.Error("deleted out-of-range candidate")
	}
}

func TestExplainPhase(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Explain the forward row sweep (a phase with a flow dependence).
	var sweep int = -1
	for p, pr := range res.Phases {
		if len(pr.Info.FlowDeps()) > 0 {
			sweep = p
			break
		}
	}
	if sweep < 0 {
		t.Fatal("no sweep phase")
	}
	text, err := res.ExplainPhase(sweep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flow dependence on x", "schedule", "loop nest"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
	if _, err := res.ExplainPhase(99); err == nil {
		t.Error("out-of-range phase accepted")
	}
	all := res.Explain()
	if !strings.Contains(all, "phase 0") || !strings.Contains(all, "phase 6") {
		t.Error("Explain should cover every phase")
	}
}
