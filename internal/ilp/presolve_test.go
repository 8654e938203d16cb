package ilp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// TestPresolveCliqueFix: in an exactly-one row with one member already
// pinned to 1, presolve must fix the other members to 0 and branch and
// bound must not open a single node for them.
func TestPresolveCliqueFix(t *testing.T) {
	p := lp.NewProblem()
	x := make([]int, 4)
	for i := range x {
		x[i] = p.AddBinary(float64(i + 1))
	}
	p.AddConstraint([]lp.Term{{Var: x[0], Coeff: 1}, {Var: x[1], Coeff: 1}, {Var: x[2], Coeff: 1}}, lp.EQ, 1)
	p.SetBounds(x[1], 1, 1)
	res, err := (&Solver{}).Solve(p, x, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if res.Presolved != 2 {
		t.Fatalf("presolved %d binaries, want 2 (the clique's free members)", res.Presolved)
	}
	want := []float64{0, 1, 0, 0}
	for i, v := range x {
		if res.X[v] != want[i] {
			t.Fatalf("x[%d] = %v, want %v (full %v)", i, res.X[v], want[i], res.X)
		}
	}
	// The caller's bounds must come back untouched.
	for i, v := range x {
		lo, hi := p.Bounds(v)
		wantLo, wantHi := 0.0, 1.0
		if i == 1 {
			wantLo = 1
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("bounds of x[%d] = [%v,%v] after solve", i, lo, hi)
		}
	}
}

// TestPresolveLastFreeMember: an exactly-one row whose other members
// are pinned to 0 forces the last free member to 1.
func TestPresolveLastFreeMember(t *testing.T) {
	p := lp.NewProblem()
	a := p.AddBinary(5)
	b := p.AddBinary(7)
	c := p.AddBinary(-2)
	p.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}, {Var: c, Coeff: 1}}, lp.EQ, 1)
	p.SetBounds(a, 0, 0)
	p.SetBounds(c, 0, 0)
	res, err := (&Solver{}).Solve(p, []int{a, b, c}, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal || res.X[b] != 1 {
		t.Fatalf("status %v, x[b] %v", res.Status, res.X)
	}
	if res.Presolved != 1 {
		t.Fatalf("presolved %d, want 1", res.Presolved)
	}
	if !approx(res.Objective, 7, 1e-9) {
		t.Fatalf("objective %v, want 7", res.Objective)
	}
}

// TestPresolveImpliedBound: a singleton row 2x ≤ 1 forbids x = 1, and a
// row 3y ≥ 2 forbids y = 0; both fix without branching.
func TestPresolveImpliedBound(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddBinary(-10) // objective pulls toward 1; the row forbids it
	y := p.AddBinary(10)  // objective pulls toward 0; the row forbids it
	p.AddConstraint([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 1)
	p.AddConstraint([]lp.Term{{Var: y, Coeff: 3}}, lp.GE, 2)
	res, err := (&Solver{}).Solve(p, []int{x, y}, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal || res.X[x] != 0 || res.X[y] != 1 {
		t.Fatalf("status %v, x %v", res.Status, res.X)
	}
	if res.Presolved != 2 {
		t.Fatalf("presolved %d, want 2", res.Presolved)
	}
}

// TestPresolveChain: fixings must propagate across rows — pinning the
// head of an implication chain x1 ≥ x2 ≥ ... ≥ xk to 0 zeroes the whole
// chain in later fixpoint passes.
func TestPresolveChain(t *testing.T) {
	const k = 8
	p := lp.NewProblem()
	x := make([]int, k)
	for i := range x {
		x[i] = p.AddBinary(-1) // objective wants everything at 1
	}
	for i := 0; i+1 < k; i++ {
		// x[i] - x[i+1] >= 0, i.e. x[i+1] <= x[i].
		p.AddConstraint([]lp.Term{{Var: x[i], Coeff: 1}, {Var: x[i+1], Coeff: -1}}, lp.GE, 0)
	}
	p.SetBounds(x[0], 0, 0)
	res, err := (&Solver{}).Solve(p, x, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	for i, v := range x {
		if res.X[v] != 0 {
			t.Fatalf("x[%d] = %v, want 0", i, res.X[v])
		}
	}
	if res.Presolved != k-1 {
		t.Fatalf("presolved %d, want %d", res.Presolved, k-1)
	}
	if res.Nodes > 1 {
		t.Fatalf("fully presolved problem explored %d nodes", res.Nodes)
	}
}

// TestPresolveInfeasible: rows whose activity range cannot reach the
// right-hand side prove infeasibility with zero branch-and-bound nodes,
// and the bounds still come back restored.
func TestPresolveInfeasible(t *testing.T) {
	cases := []struct {
		name  string
		build func(p *lp.Problem, x []int)
	}{
		{"activity-range", func(p *lp.Problem, x []int) {
			p.AddConstraint([]lp.Term{{Var: x[0], Coeff: 1}, {Var: x[1], Coeff: 1}}, lp.GE, 3)
		}},
		{"clique-two-ones", func(p *lp.Problem, x []int) {
			p.AddConstraint([]lp.Term{{Var: x[0], Coeff: 1}, {Var: x[1], Coeff: 1}}, lp.EQ, 1)
			p.SetBounds(x[0], 1, 1)
			p.SetBounds(x[1], 1, 1)
		}},
		{"clique-all-zero", func(p *lp.Problem, x []int) {
			p.AddConstraint([]lp.Term{{Var: x[0], Coeff: 1}, {Var: x[1], Coeff: 1}}, lp.EQ, 1)
			p.SetBounds(x[0], 0, 0)
			p.SetBounds(x[1], 0, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := lp.NewProblem()
			x := []int{p.AddBinary(1), p.AddBinary(1)}
			tc.build(p, x)
			res, err := (&Solver{}).Solve(p, x, nil)
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Status != Infeasible {
				t.Fatalf("status %v, want infeasible", res.Status)
			}
			if res.Nodes != 0 {
				t.Fatalf("presolve-proven infeasibility explored %d nodes", res.Nodes)
			}
			if res.X != nil {
				t.Fatalf("infeasible result carries X %v", res.X)
			}
		})
	}
}

// TestQuickPresolveAgainstExhaustive runs random set-partition-flavored
// problems (the shape the layout models take: exactly-one rows plus
// side constraints and pre-fixed binaries) through the presolving
// solver and the exhaustive oracle.
func TestQuickPresolveAgainstExhaustive(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, bins := randomPartitionProblem(rng, 3+rng.Intn(8))
		// Pre-fix a couple of binaries so the clique rules have material.
		for _, v := range bins {
			if rng.Intn(4) == 0 {
				val := float64(rng.Intn(2))
				p.SetBounds(v, val, val)
			}
		}
		got, err := (&Solver{}).Solve(p, bins, nil)
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		want, err := SolveExhaustive(p, bins)
		if err != nil {
			t.Fatalf("seed %d: SolveExhaustive: %v", seed, err)
		}
		if got.Status != want.Status {
			t.Fatalf("seed %d: status %v, exhaustive %v", seed, got.Status, want.Status)
		}
		if got.Status == Optimal {
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("seed %d: objective %v, exhaustive %v", seed, got.Objective, want.Objective)
			}
			if !satisfies(p, got.X) {
				t.Fatalf("seed %d: incumbent violates constraints", seed)
			}
		}
	}
}
