package ilp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6  ->  a=1,c=1 (17) vs b,c (20),
	// solved as min -(10a + 13b + 7c).
	p := lp.NewProblem()
	a := p.AddBinary(-10)
	b := p.AddBinary(-13)
	c := p.AddBinary(-7)
	p.AddConstraint([]lp.Term{{Var: a, Coeff: 3}, {Var: b, Coeff: 4}, {Var: c, Coeff: 2}}, lp.LE, 6)
	var s Solver
	res, err := s.Solve(p, []int{a, b, c}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Objective, -20, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=-20", res.Status, res.Objective)
	}
	if res.X[b] != 1 || res.X[c] != 1 || res.X[a] != 0 {
		t.Errorf("assignment = %v, want b=c=1", res.X)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(1)
	b := p.AddBinary(1)
	p.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.EQ, 2)
	// The second equality makes 0-1 feasibility impossible together with
	// the first.
	var s Solver
	res, err := s.Solve(p, []int{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestFractionalLPForcesBranching(t *testing.T) {
	// min -(x+y) s.t. 2x + 2y <= 3: LP optimum x=y=0.75, ILP optimum
	// picks exactly one variable.
	p := lp.NewProblem()
	x := p.AddBinary(-1)
	y := p.AddBinary(-1)
	p.AddConstraint([]lp.Term{{Var: x, Coeff: 2}, {Var: y, Coeff: 2}}, lp.LE, 3)
	var s Solver
	res, err := s.Solve(p, []int{x, y}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Objective, -1, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=-1", res.Status, res.Objective)
	}
	if res.Nodes < 3 {
		t.Errorf("expected branching (>=3 nodes), got %d", res.Nodes)
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddBinary(-1)
	y := p.AddBinary(-1)
	p.AddConstraint([]lp.Term{{Var: x, Coeff: 2}, {Var: y, Coeff: 2}}, lp.LE, 3)
	var s Solver
	if _, err := s.Solve(p, []int{x, y}, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{x, y} {
		lo, hi := p.Bounds(v)
		if lo != 0 || hi != 1 {
			t.Errorf("bounds of %d = [%v,%v], want [0,1]", v, lo, hi)
		}
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 5b + c  s.t.  c >= 3 - 4b, c >= 0, b binary.
	// b=0 -> c=3 obj 3;  b=1 -> c=0 obj 5.  Optimum b=0, c=3.
	p := lp.NewProblem()
	b := p.AddBinary(5)
	c := p.AddVariable(1, 0, lp.Inf)
	p.AddConstraint([]lp.Term{{Var: c, Coeff: 1}, {Var: b, Coeff: 4}}, lp.GE, 3)
	var s Solver
	res, err := s.Solve(p, []int{b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || !approx(res.Objective, 3, 1e-6) {
		t.Fatalf("got %v obj=%v, want optimal obj=3", res.Status, res.Objective)
	}
}

func TestPresetBinaryBoundsRespected(t *testing.T) {
	// Caller fixes a=1 beforehand; solver must honor it.
	p := lp.NewProblem()
	a := p.AddBinary(10)
	b := p.AddBinary(1)
	p.SetBounds(a, 1, 1)
	p.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.LE, 2)
	var s Solver
	res, err := s.Solve(p, []int{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.X[a] != 1 {
		t.Fatalf("fixed variable moved: %v", res.X)
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, bins := randomPartitionProblem(rng, 14)
	s := Solver{maxNodes: 2}
	res, err := s.Solve(p, bins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal && res.Nodes > 2 {
		t.Fatalf("node limit not respected: %d nodes", res.Nodes)
	}
}

// randomPartitionProblem builds a random set-partition-flavoured 0-1
// problem: groups of variables summing to one plus random couplings.
func randomPartitionProblem(rng *rand.Rand, n int) (*lp.Problem, []int) {
	p := lp.NewProblem()
	bins := make([]int, n)
	for i := range bins {
		bins[i] = p.AddBinary(rng.Float64()*10 - 5)
	}
	for i := 0; i+2 < n; i += 3 {
		p.AddConstraint([]lp.Term{
			{Var: bins[i], Coeff: 1},
			{Var: bins[i+1], Coeff: 1},
			{Var: bins[i+2], Coeff: 1},
		}, lp.EQ, 1)
	}
	extra := rng.Intn(4)
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p.AddConstraint([]lp.Term{{Var: bins[i], Coeff: 1}, {Var: bins[j], Coeff: 1}}, lp.LE, 1)
	}
	return p, bins
}

// TestQuickAgainstExhaustive cross-checks branch and bound against full
// enumeration on random small 0-1 problems.
func TestQuickAgainstExhaustive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		p, bins := randomPartitionProblem(rng, n)
		var s Solver
		bb, err := s.Solve(p, bins, nil)
		if err != nil {
			t.Logf("seed %d: bb error %v", seed, err)
			return false
		}
		ex, err := SolveExhaustive(p, bins)
		if err != nil {
			t.Logf("seed %d: exhaustive error %v", seed, err)
			return false
		}
		if bb.Status != ex.Status {
			t.Logf("seed %d: status %v vs %v", seed, bb.Status, ex.Status)
			return false
		}
		if bb.Status == Optimal && !approx(bb.Objective, ex.Objective, 1e-6) {
			t.Logf("seed %d: objective %v vs %v", seed, bb.Objective, ex.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickKnapsackAgainstDP cross-checks against a dynamic-programming
// knapsack oracle with integer weights; the solver minimizes the
// negated values.
func TestQuickKnapsackAgainstDP(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		w := make([]int, n)
		v := make([]float64, n)
		cap := 1 + rng.Intn(30)
		p := lp.NewProblem()
		bins := make([]int, n)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			w[i] = 1 + rng.Intn(10)
			v[i] = float64(rng.Intn(50))
			bins[i] = p.AddBinary(-v[i])
			terms[i] = lp.Term{Var: bins[i], Coeff: float64(w[i])}
		}
		p.AddConstraint(terms, lp.LE, float64(cap))
		var s Solver
		res, err := s.Solve(p, bins, nil)
		if err != nil || res.Status != Optimal {
			return false
		}
		// DP oracle.
		dp := make([]float64, cap+1)
		for i := 0; i < n; i++ {
			for c := cap; c >= w[i]; c-- {
				if dp[c-w[i]]+v[i] > dp[c] {
					dp[c] = dp[c-w[i]] + v[i]
				}
			}
		}
		return approx(-res.Objective, dp[cap], 1e-6)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveLimitEnforced(t *testing.T) {
	p := lp.NewProblem()
	bins := make([]int, ExhaustiveLimit+1)
	for i := range bins {
		bins[i] = p.AddBinary(1)
	}
	if _, err := SolveExhaustive(p, bins); err == nil {
		t.Fatal("expected error above exhaustive limit")
	}
}

// TestFixedSettings pins what used to be settings: the integrality
// tolerance, the node cap, and the exported Solver surface.
func TestFixedSettings(t *testing.T) {
	if intTol != 1e-6 {
		t.Errorf("intTol = %g, want 1e-6", intTol)
	}
	if defaultMaxNodes != 4_000_000 {
		t.Errorf("defaultMaxNodes = %d, want 4000000", defaultMaxNodes)
	}
	var exported []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Solver{})) {
		if f.IsExported() {
			exported = append(exported, f.Name)
		}
	}
	want := []string{"Deadline", "Context", "Certify", "CertifyLP", "Fault"}
	if !reflect.DeepEqual(exported, want) {
		t.Errorf("exported Solver fields = %v, want %v", exported, want)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || NodeLimit.String() != "node-limit" {
		t.Error("Status.String mismatch")
	}
}

func BenchmarkBranchAndBoundPartition24(b *testing.B) {
	// One near-unimodular instance (solves at the root) plus one odd-ring
	// cover (genuinely branches), so the metric tracks both the root-LP
	// cost and the per-node reoptimization cost.
	p, bins := randomPartitionProblem(rand.New(rand.NewSource(11)), 24)
	hp, hbins := hardCoverProblem(rand.New(rand.NewSource(3)), 25)
	var s Solver
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		r1, err := s.Solve(p, bins, nil)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := s.Solve(hp, hbins, nil)
		if err != nil {
			b.Fatal(err)
		}
		pivots += r1.LPPivots + r2.LPPivots
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

func TestNodeLimitIncumbentFeasible(t *testing.T) {
	// Even when cut off, any reported incumbent must satisfy the
	// constraints.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		p, bins := randomPartitionProblem(rng, 12)
		s := Solver{maxNodes: 3}
		res, err := s.Solve(p, bins, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.X == nil {
			continue
		}
		if !satisfies(p, res.X) {
			t.Fatalf("trial %d: incumbent %v violates constraints", trial, res.X)
		}
		for _, v := range bins {
			if res.X[v] != 0 && res.X[v] != 1 {
				t.Fatalf("trial %d: non-integral incumbent", trial)
			}
		}
	}
}
