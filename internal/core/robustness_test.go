package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/execmodel"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/pcfg"
	"repro/internal/stage"
)

// TestRank1Program: a purely 1-D program (vector template).
func TestRank1Program(t *testing.T) {
	src := `
program vec
  parameter (n = 1024)
  real a(n), b(n), c(n)
  do it = 1, 10
    do i = 2, n-1
      a(i) = b(i-1) + b(i+1)
    end do
    do i = 1, n
      b(i) = a(i) * c(i)
    end do
  end do
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Template.Rank() != 1 {
		t.Fatalf("template rank = %d, want 1", res.Template.Rank())
	}
	for _, pr := range res.Phases {
		if len(pr.Candidates) != 1 {
			t.Errorf("phase %d candidates = %d, want 1 (only one dim to distribute)", pr.Phase.ID, len(pr.Candidates))
		}
		if pr.Candidates[pr.Chosen].Estimate.Schedule != execmodel.LooselySynchronous {
			t.Errorf("phase %d schedule = %v", pr.Phase.ID, pr.Candidates[pr.Chosen].Estimate.Schedule)
		}
	}
}

// TestNonPowerOfTwoProcessors exercises block remainders, collectives
// and the selection with p not a power of two.
func TestNonPowerOfTwoProcessors(t *testing.T) {
	for _, procs := range []int{3, 6, 12} {
		res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: procs})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.TotalCost <= 0 {
			t.Errorf("procs=%d: no cost", procs)
		}
	}
}

// TestTopLevelBranch: IF at program top level (outside any loop).
func TestTopLevelBranch(t *testing.T) {
	src := `
program p
  parameter (n = 32)
  real a(n,n), b(n,n), s
  do j = 1, n
    do i = 1, n
      a(i,j) = 1.0
    end do
  end do
  !prob 0.3
  if (s .gt. 0.0) then
    do j = 1, n
      do i = 1, n
        b(i,j) = a(i,j) + 1.0
      end do
    end do
  else
    do j = 1, n
      do i = 1, n
        b(i,j) = a(i,j) - 1.0
      end do
    end do
  end if
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	if f := res.Phases[1].Phase.Freq; f != 0.3 {
		t.Errorf("then-arm freq = %v, want 0.3", f)
	}
}

// TestThreeDProgramOnFewProcessors: rank-3 template on 2 processors.
func TestThreeDProgramSmall(t *testing.T) {
	src := `
program p
  parameter (n = 8)
  real a(n,n,n), b(n,n,n)
  do k = 1, n
    do j = 1, n
      do i = 1, n
        a(i,j,k) = b(i,j,k) * 2.0
      end do
    end do
  end do
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases[0].Candidates) != 3 {
		t.Errorf("candidates = %d, want 3", len(res.Phases[0].Candidates))
	}
}

// TestMixedRankConflictFree: 1-D and 2-D arrays coupled in both
// dimensions (embedding choices).
func TestMixedRankEmbeddings(t *testing.T) {
	src := `
program p
  parameter (n = 32)
  real m(n,n), r(n), c(n)
  do j = 1, n
    do i = 1, n
      m(i,j) = r(i) * c(j)
    end do
  end do
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Phases[0].ChosenLayout()
	// r couples with m's dim 1, c with m's dim 2.
	if l.Align.Of("r", 0) != l.Align.Of("m", 0) {
		t.Errorf("r should share m's first template dim: %v", l.Align)
	}
	if l.Align.Of("c", 0) != l.Align.Of("m", 1) {
		t.Errorf("c should share m's second template dim: %v", l.Align)
	}
}

// TestManyProcessorsBeyondTable: processor counts past the training
// grid clamp rather than fail.
func TestManyProcessorsBeyondTable(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost <= 0 {
		t.Error("no cost at 256 processors")
	}
}

// TestDeterministicResults: two identical invocations agree exactly.
func TestDeterministicResults(t *testing.T) {
	a, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost {
		t.Errorf("nondeterministic totals: %v vs %v", a.TotalCost, b.TotalCost)
	}
	if fmt.Sprint(a.Selection.Choice) != fmt.Sprint(b.Selection.Choice) {
		t.Errorf("nondeterministic selections: %v vs %v", a.Selection.Choice, b.Selection.Choice)
	}
	for p := range a.Phases {
		if a.Phases[p].Candidates[a.Phases[p].Chosen].Layout.Key() !=
			b.Phases[p].Candidates[b.Phases[p].Chosen].Layout.Key() {
			t.Errorf("phase %d chose different layouts", p)
		}
	}
}

// TestMachineParameterizationMatters: the same program on the modern
// cluster model runs orders of magnitude faster in absolute terms, and
// — because message start-up shrank far less than flop time — the
// relative weight of communication *grows*, so the tool's conclusions
// legitimately differ between machines (§1: the framework is
// parameterized by the target machine).
func TestMachineParameterizationMatters(t *testing.T) {
	oldRes, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	modernRes, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8, Machine: machine.Cluster2020()})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := oldRes.TotalCost / modernRes.TotalCost; ratio < 50 {
		t.Errorf("modern machine only %.1fx faster; expected a large factor", ratio)
	}
	// On the modern machine communication dominates: the chosen
	// schedule mix must not contain the fine-grain pipeline the
	// iPSC/860 tolerated (per-stage start-ups dwarf the tiny chunks).
	for _, pr := range modernRes.Phases {
		if pr.Candidates[pr.Chosen].Estimate.Schedule == execmodel.FinePipeline {
			t.Errorf("phase %d: modern machine should avoid fine-grain pipelines", pr.Phase.ID)
		}
	}
}

// TestSubroutineProgramMatchesFlat: the automatic inliner (the paper
// hand-inlined Erlebacher for the same reason) yields the same layout
// decisions as writing the program flat.
func TestSubroutineProgramMatchesFlat(t *testing.T) {
	subbed := `
subroutine rowsweep(x, b, n)
  double precision x(n,n), b(n,n)
  integer n
  do j = 2, n
    do i = 1, n
      x(i,j) = x(i,j) - x(i,j-1)*b(i,j)/b(i,j-1)
    end do
  end do
end

subroutine colsweep(x, b, n)
  double precision x(n,n), b(n,n)
  integer n
  do j = 1, n
    do i = 2, n
      x(i,j) = x(i,j) - x(i-1,j)*b(i,j)/b(i-1,j)
    end do
  end do
end

program adi
  parameter (n = 32, niter = 4)
  double precision x(n,n), b(n,n)
  do iter = 1, niter
    call rowsweep(x, b, n)
    call colsweep(x, b, n)
  end do
end
`
	flat := `
program adi
  parameter (n = 32, niter = 4)
  double precision x(n,n), b(n,n)
  do iter = 1, niter
    do j = 2, n
      do i = 1, n
        x(i,j) = x(i,j) - x(i,j-1)*b(i,j)/b(i,j-1)
      end do
    end do
    do j = 1, n
      do i = 2, n
        x(i,j) = x(i,j) - x(i-1,j)*b(i,j)/b(i-1,j)
      end do
    end do
  end do
end
`
	a, err := Analyze(context.Background(), Input{Source: subbed}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(context.Background(), Input{Source: flat}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phases %d vs %d", len(a.Phases), len(b.Phases))
	}
	if diff := a.TotalCost - b.TotalCost; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("inlined cost %v vs flat %v", a.TotalCost, b.TotalCost)
	}
	for p := range a.Phases {
		ka := a.Phases[p].ChosenLayout().ArrayKey("x")
		kb := b.Phases[p].ChosenLayout().ArrayKey("x")
		if ka != kb {
			t.Errorf("phase %d: x placed %s vs %s", p, ka, kb)
		}
	}
}

// TestProcsValidation: too few processors is a typed validation error,
// not a plain string or a crash.
func TestProcsValidationTyped(t *testing.T) {
	for _, procs := range []int{-1, 0, 1} {
		_, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: procs})
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("Procs=%d: err = %v (%T), want *ValidationError", procs, err, err)
		}
	}
}

// TestZeroTripLoops: loops whose bounds make them never execute must
// not break phase construction or estimation.
func TestZeroTripLoops(t *testing.T) {
	src := `
program p
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 5, 4
    do i = 1, n
      a(i,j) = b(i,j)
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(i,j) + 1.0
    end do
  end do
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost < 0 {
		t.Errorf("negative cost %v", res.TotalCost)
	}
}

// TestDegenerateSinglePhase: a one-phase, one-statement program still
// runs end to end (the selection graph has one node and no edges).
func TestDegenerateSinglePhase(t *testing.T) {
	src := `
program p
  parameter (n = 8)
  real a(n)
  do i = 1, n
    a(i) = 0.0
  end do
end
`
	res, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(res.Phases))
	}
	if len(res.Degradations) != 0 {
		t.Errorf("unexpected degradations: %v", res.Degradations)
	}
}

// TestConflictingUserDirectives: directives that eliminate every
// candidate layout are a typed validation error naming the phase.
func TestConflictingUserDirectives(t *testing.T) {
	src := `
program p
!hpf$ distribute x(block,block)
  parameter (n = 16)
  real x(n,n)
  do j = 1, n
    do i = 1, n
      x(i,j) = 1.0
    end do
  end do
end
`
	// The prototype search space is 1-D BLOCK only, so BLOCK x BLOCK
	// matches no candidate.
	_, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 4})
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v (%T), want *ValidationError", err, err)
	}
	if !strings.Contains(err.Error(), "phase") {
		t.Errorf("error does not name the phase: %v", err)
	}
}

// TestTimeoutDegradesGracefully is the headline acceptance test: an
// immediately-expired budget still yields a complete, feasible layout,
// with the forfeited optimality recorded in Result.Degradations.
// ForceILP, because only a 0-1 solve has a budget to run out of: the
// default route answers adiSmall by the elimination DP, which ignores
// it.
func TestTimeoutDegradesGracefully(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8, Timeout: time.Nanosecond, ForceILP: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("no degradations recorded under a 1ns budget")
	}
	for _, d := range res.Degradations {
		if d.Subsystem == "" || d.Detail == "" {
			t.Errorf("incomplete degradation record: %+v", d)
		}
	}
	if res.Selection == nil || len(res.Selection.Choice) != len(res.Phases) {
		t.Fatal("degraded run did not produce a full selection")
	}
	for p, pr := range res.Phases {
		if pr.Chosen < 0 || pr.Chosen >= len(pr.Candidates) {
			t.Errorf("phase %d chose invalid candidate %d", p, pr.Chosen)
		}
	}
	if res.ExplainDegradations() == "" {
		t.Error("ExplainDegradations returned nothing")
	}
	// The same run at full budget must match or beat the degraded cost.
	full, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Degradations) != 0 {
		t.Errorf("unbudgeted run degraded: %v", full.Degradations)
	}
	if res.TotalCost+1e-9 < full.TotalCost {
		t.Errorf("degraded cost %v beats optimal %v", res.TotalCost, full.TotalCost)
	}
}

// TestStrictModeFailsHard: with Strict set, the same expired budget is
// a typed error naming the degraded subsystem instead of a fallback.
func TestStrictModeFailsHard(t *testing.T) {
	_, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 8, Timeout: time.Nanosecond, Strict: true, ForceILP: true})
	var serr *StrictError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v (%T), want *StrictError", err, err)
	}
	if serr.Deg.Subsystem != stage.AlignSolve && serr.Deg.Subsystem != stage.Selection {
		t.Errorf("strict error names subsystem %q", serr.Deg.Subsystem)
	}
}

// TestCanceledContext: cancellation is a hard stop, not a degradation.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Analyze(ctx, Input{Source: adiSmall}, Options{Procs: 8})
	if err == nil {
		t.Fatal("canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestRecoveryBoundary: an internal invariant violation (here: a phase
// with no candidates reaching selection) surfaces as *InternalError
// with the recovered message, not a panic.
func TestRecoveryBoundary(t *testing.T) {
	r := &Result{
		PCFG:   &pcfg.Graph{},
		Phases: []*PhaseResult{{Phase: &pcfg.Phase{}}},
	}
	err := r.Reselect()
	var ierr *InternalError
	if !errors.As(err, &ierr) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if !strings.Contains(ierr.Msg, "no candidates") {
		t.Errorf("recovered message %q does not describe the invariant", ierr.Msg)
	}
	if len(ierr.Stack) == 0 {
		t.Error("no stack captured")
	}
}

// TestInsertCandidateValidates: a structurally broken user layout is
// rejected with a typed error instead of corrupting the search space.
func TestInsertCandidateValidates(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := layout.NewAlignment()
	a.Set("x", []int{0, 5}) // template dim 5 does not exist
	bad := &layout.Layout{Template: res.Template, Align: a,
		Dist: []layout.DimDist{{Kind: layout.Block, Procs: 4}, {Kind: layout.Star, Procs: 1}}}
	if _, err := res.InsertCandidate(0, bad, "user"); err == nil {
		t.Fatal("invalid layout accepted")
	} else {
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("err = %v (%T), want *ValidationError", err, err)
		}
	}
	if _, err := res.InsertCandidate(0, nil, "user"); err == nil {
		t.Fatal("nil layout accepted")
	}
}

// TestInvalidMachineModel: an incomplete machine table is caught at
// entry by Model.Validate, not deep inside estimation.
func TestInvalidMachineModel(t *testing.T) {
	m, err := machine.ReadTable(strings.NewReader(
		"machine broken\nset shift 4 unit high 50 0.3\n"))
	if m != nil || err == nil {
		t.Fatal("incomplete table accepted by ReadTable")
	}
	var merr *machine.ModelError
	if !errors.As(err, &merr) {
		t.Errorf("err = %v (%T), want *machine.ModelError", err, err)
	}
}
