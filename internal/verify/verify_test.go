package verify_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cag"
	"repro/internal/ilp"
	"repro/internal/layoutgraph"
	"repro/internal/lp"
	"repro/internal/stage"
	"repro/internal/verify"
)

// certifyingSolver is a branch-and-bound solver with both package
// verify certificates installed, the way package core arms it.
func certifyingSolver() *ilp.Solver {
	return &ilp.Solver{Certify: verify.CheckILP, CertifyLP: verify.CheckLP}
}

// randProblem builds a random pure-binary 0-1 problem small enough for
// the exhaustive oracle.
func randProblem(rng *rand.Rand) (*lp.Problem, []int) {
	k := 1 + rng.Intn(8)
	p := lp.NewProblem()
	binaries := make([]int, k)
	for i := range binaries {
		binaries[i] = p.AddBinary(float64(rng.Intn(21) - 10))
	}
	for c, n := 0, rng.Intn(5); c < n; c++ {
		var terms []lp.Term
		for _, v := range binaries {
			if coeff := rng.Intn(11) - 5; coeff != 0 && rng.Intn(2) == 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: float64(coeff)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := []lp.Relation{lp.LE, lp.EQ, lp.GE}[rng.Intn(3)]
		p.AddConstraint(terms, rel, float64(rng.Intn(11)-3))
	}
	return p, binaries
}

// TestPropertyBBMatchesExhaustive is the randomized cross-check of the
// branch-and-bound solver against the exhaustive oracle with the
// verifier in the loop: every solve runs under CheckLP/CheckILP (so a
// wrong incumbent would fail before the comparison), statuses must
// agree, and optimal objectives must match to tolerance.
func TestPropertyBBMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 400; trial++ {
		p, binaries := randProblem(rng)
		got, err := certifyingSolver().Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("trial %d: certified solve failed: %v", trial, err)
		}
		want, err := ilp.SolveExhaustive(p, binaries)
		if err != nil {
			t.Fatalf("trial %d: exhaustive: %v", trial, err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v, exhaustive %v", trial, got.Status, want.Status)
		}
		if got.Status == ilp.Optimal {
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("trial %d: objective %v, exhaustive %v", trial, got.Objective, want.Objective)
			}
			if cerr := verify.CheckILP(p, binaries, got); cerr != nil {
				t.Fatalf("trial %d: optimal result fails a second certification: %v", trial, cerr)
			}
		}
	}
}

// fixedProblem is a small solvable 0-1 problem used by the corruption
// detection tests: minimize -x0-2x1 s.t. x0+x1 <= 1 (optimum x1=1,
// objective -2).
func fixedProblem() (*lp.Problem, []int) {
	p := lp.NewProblem()
	v0 := p.AddBinary(-1)
	v1 := p.AddBinary(-2)
	p.AddConstraint([]lp.Term{{Var: v0, Coeff: 1}, {Var: v1, Coeff: 1}}, lp.LE, 1)
	return p, []int{v0, v1}
}

func solveFixed(t *testing.T) (*lp.Problem, []int, *ilp.Result) {
	t.Helper()
	p, binaries := fixedProblem()
	res, err := certifyingSolver().Solve(p, binaries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ilp.Optimal {
		t.Fatalf("status %v", res.Status)
	}
	return p, binaries, res
}

func wantVerifyError(t *testing.T, err error, wantStage, wantCheck string) {
	t.Helper()
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v (%T), want *verify.Error", err, err)
	}
	if ve.Stage != wantStage || ve.Check != wantCheck {
		t.Fatalf("failure attributed to %s/%s, want %s/%s", ve.Stage, ve.Check, wantStage, wantCheck)
	}
}

func TestCheckILPHonestResultPasses(t *testing.T) {
	p, binaries, res := solveFixed(t)
	if err := verify.CheckILP(p, binaries, res); err != nil {
		t.Fatalf("honest result failed: %v", err)
	}
}

func TestCheckILPCatchesCorruptObjective(t *testing.T) {
	p, binaries, res := solveFixed(t)
	res.Objective += 1.5
	wantVerifyError(t, verify.CheckILP(p, binaries, res), stage.ILPRoot, "objective")
}

func TestCheckILPCatchesFlippedBinary(t *testing.T) {
	p, binaries, res := solveFixed(t)
	res.X[binaries[0]] = 1 - res.X[binaries[0]] // now x0=x1=1: violates x0+x1<=1
	if err := verify.CheckILP(p, binaries, res); err == nil {
		t.Fatal("flipped incumbent passed certification")
	}
}

func TestCheckILPCatchesFractionalBinary(t *testing.T) {
	p, binaries, res := solveFixed(t)
	res.X[binaries[1]] = 0.5
	wantVerifyError(t, verify.CheckILP(p, binaries, res), stage.BBNode, "integrality")
}

func TestCheckILPCatchesBoundViolation(t *testing.T) {
	p, binaries, res := solveFixed(t)
	res.Status = ilp.NodeLimit
	res.Bound = res.Objective + 5 // claims a bound the incumbent beats
	wantVerifyError(t, verify.CheckILP(p, binaries, res), stage.ILPRoot, "bound")
}

func TestCheckILPVacuousWithoutIncumbent(t *testing.T) {
	p, binaries := fixedProblem()
	if err := verify.CheckILP(p, binaries, &ilp.Result{Status: ilp.Infeasible}); err != nil {
		t.Fatalf("incumbent-free result failed: %v", err)
	}
}

func TestCheckLP(t *testing.T) {
	p, _ := fixedProblem()
	good := &lp.Solution{Status: lp.Optimal, X: []float64{0, 1}, Objective: -2}
	if err := verify.CheckLP(p, good); err != nil {
		t.Fatalf("honest LP solution failed: %v", err)
	}
	bad := &lp.Solution{Status: lp.Optimal, X: []float64{0, 1}, Objective: -7}
	wantVerifyError(t, verify.CheckLP(p, bad), stage.ILPRoot, "lp-objective")
	infeas := &lp.Solution{Status: lp.Optimal, X: []float64{1, 1}, Objective: -3}
	wantVerifyError(t, verify.CheckLP(p, infeas), stage.ILPRoot, "constraint")
	if err := verify.CheckLP(p, &lp.Solution{Status: lp.Infeasible}); err != nil {
		t.Fatalf("non-optimal solution should pass vacuously: %v", err)
	}
}

// alignFixture is a CAG with one 2-D array and one 1-D array coupled on
// the first dimension, plus a legal resolution onto 2 template dims.
func alignFixture() (*cag.Graph, *cag.Resolution) {
	g := cag.NewGraph()
	g.AddArray("m", 2)
	g.AddArray("r", 1)
	m0 := cag.Node{Array: "m", Dim: 0}
	m1 := cag.Node{Array: "m", Dim: 1}
	r0 := cag.Node{Array: "r", Dim: 0}
	g.AddWeight(m0, r0, 3)
	g.AddWeight(m1, r0, 1)
	res := &cag.Resolution{
		Assignment: map[cag.Node]int{m0: 0, m1: 1, r0: 0},
		CutWeight:  1, // only the m1–r0 preference is cut
	}
	return g, res
}

func TestCheckAlignment(t *testing.T) {
	g, res := alignFixture()
	if err := verify.CheckAlignment(g, 2, res); err != nil {
		t.Fatalf("legal resolution failed: %v", err)
	}

	g, res = alignFixture()
	delete(res.Assignment, cag.Node{Array: "r", Dim: 0})
	wantVerifyError(t, verify.CheckAlignment(g, 2, res), stage.AlignSolve, "orientation")

	g, res = alignFixture()
	res.Assignment[cag.Node{Array: "m", Dim: 1}] = 5
	wantVerifyError(t, verify.CheckAlignment(g, 2, res), stage.AlignSolve, "orientation")

	g, res = alignFixture()
	res.Assignment[cag.Node{Array: "m", Dim: 1}] = 0 // both dims of m on partition 0
	wantVerifyError(t, verify.CheckAlignment(g, 2, res), stage.AlignSolve, "type-2")

	g, res = alignFixture()
	res.CutWeight = 2.5
	wantVerifyError(t, verify.CheckAlignment(g, 2, res), stage.AlignSolve, "cut-weight")
}

// selectionFixture is a 2-phase layout graph with one transition edge
// and a correct minimal selection (choices 1 and 0, cost 2+3+1=6).
func selectionFixture() (*layoutgraph.Graph, *layoutgraph.Selection) {
	g := &layoutgraph.Graph{
		NodeCost: [][]float64{{5, 2}, {3, 9}},
		Edges: []*layoutgraph.Edge{{
			FromPhase: 0, ToPhase: 1,
			Cost: [][]float64{{0, 4}, {1, 2}},
		}},
	}
	return g, &layoutgraph.Selection{Choice: []int{1, 0}, Cost: 6}
}

func TestCheckSelection(t *testing.T) {
	g, sel := selectionFixture()
	if err := verify.CheckSelection(g, sel); err != nil {
		t.Fatalf("honest selection failed: %v", err)
	}

	g, sel = selectionFixture()
	sel.Cost = 5
	wantVerifyError(t, verify.CheckSelection(g, sel), stage.Selection, "total-cost")

	g, sel = selectionFixture()
	sel.Choice = []int{1}
	wantVerifyError(t, verify.CheckSelection(g, sel), stage.Selection, "choice-shape")

	g, sel = selectionFixture()
	sel.Choice[1] = 7
	wantVerifyError(t, verify.CheckSelection(g, sel), stage.Selection, "choice-range")

	g, sel = selectionFixture()
	g.Ties = [][2]int{{0, 1}}
	wantVerifyError(t, verify.CheckSelection(g, sel), stage.Selection, "ties")
}
