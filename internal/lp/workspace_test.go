package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMixedLP builds a random LP over [0,1]^n with a mix of LE, GE
// and EQ constraints anchored at a known interior point, so the
// problem starts feasible and stays feasible for many (not all) bound
// changes — the interesting regime for warm-start testing.
func randomMixedLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem()
	anchor := make([]float64, n)
	for j := 0; j < n; j++ {
		p.AddVariable(rng.Float64()*4-2, 0, 1)
		anchor[j] = 0.2 + 0.6*rng.Float64()
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, 0, n)
		s := 0.0
		for j := 0; j < n; j++ {
			c := float64(rng.Intn(7) - 3)
			if c != 0 {
				terms = append(terms, Term{j, c})
				s += c * anchor[j]
			}
		}
		if len(terms) == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(terms, LE, s+rng.Float64())
		case 1:
			p.AddConstraint(terms, GE, s-rng.Float64())
		default:
			p.AddConstraint(terms, EQ, s)
		}
	}
	return p
}

// checkAgainstCold solves p from scratch and compares with the warm
// answer: statuses agree, and at optimality the warm point is feasible
// with the same objective.
func checkAgainstCold(t *testing.T, tag string, p *Problem, warm *Solution) bool {
	t.Helper()
	ref, err := p.Clone().Solve()
	if err != nil {
		t.Logf("%s: reference solve: %v", tag, err)
		return false
	}
	if warm.Status != ref.Status {
		t.Logf("%s: status %v, cold says %v", tag, warm.Status, ref.Status)
		return false
	}
	if warm.Status != Optimal {
		return true
	}
	if !feasible(p, warm.X, 1e-6) {
		t.Logf("%s: warm answer infeasible: %v", tag, warm.X)
		return false
	}
	if !approx(warm.Objective, ref.Objective, 1e-6*(1+math.Abs(ref.Objective))) {
		t.Logf("%s: objective %v, cold says %v", tag, warm.Objective, ref.Objective)
		return false
	}
	return true
}

// TestQuickReoptimizeBounds drives a workspace through random
// single-variable bound changes on random mixed LPs — the exact access
// pattern of branch-and-bound — and cross-checks every answer against
// a from-scratch solve.
func TestQuickReoptimizeBounds(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(8)
		var p *Problem
		if seed%2 == 0 {
			p = randomBoxLP(rng, n, m)
		} else {
			p = randomMixedLP(rng, n, m)
		}
		ws := NewWorkspace()
		sol, err := ws.Reoptimize(p, nil)
		if err != nil {
			t.Logf("seed %d: cold: %v", seed, err)
			return false
		}
		if !checkAgainstCold(t, "cold", p, sol) {
			return false
		}
		for step := 0; step < 12; step++ {
			v := rng.Intn(n)
			var lo, hi float64
			switch rng.Intn(4) {
			case 0:
				lo, hi = 0, 0 // branch down
			case 1:
				lo, hi = 1, 1 // branch up
			case 2:
				lo, hi = 0, 1 // backtrack
			default:
				lo = rng.Float64() * 0.5
				hi = lo + rng.Float64()*(1-lo)
			}
			sol, err = ws.ReoptimizeBounds(p, v, lo, hi, nil)
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
			if !checkAgainstCold(t, "reopt", p, sol) {
				t.Logf("seed %d step %d: var %d -> [%v,%v]", seed, step, v, lo, hi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWarmPathActuallyUsed pins that the sequence above is served by
// the dual simplex, not by silent cold fallbacks.
func TestWarmPathActuallyUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomBoxLP(rng, 6, 6)
	ws := NewWorkspace()
	if _, err := ws.Reoptimize(p, nil); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		v := rng.Intn(6)
		val := float64(rng.Intn(2))
		if _, err := ws.ReoptimizeBounds(p, v, val, val, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.ReoptimizeBounds(p, v, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Warm == 0 {
		t.Fatalf("no warm solves in 40 reoptimizations (cold=%d)", ws.Cold)
	}
	if ws.Warm+ws.Cold < 41 {
		t.Errorf("counter mismatch: warm=%d cold=%d, want >= 41 total", ws.Warm, ws.Cold)
	}
}

// TestWarmCapFallsBackCold forces the dual-simplex pivot cap to zero so
// every warm attempt stalls immediately: results must still be correct,
// served by the cold path.
func TestWarmCapFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomMixedLP(rng, 5, 6)
	ws := NewWorkspace()
	ws.warmCap = -1 // stall before the first dual pivot
	if _, err := ws.Reoptimize(p, nil); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		v := rng.Intn(5)
		val := float64(rng.Intn(2))
		sol, err := ws.ReoptimizeBounds(p, v, val, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !checkAgainstCold(t, "capped", p, sol) {
			t.Fatalf("step %d: capped warm start produced a wrong answer", step)
		}
		if _, err := ws.ReoptimizeBounds(p, v, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A stall that leaves the basis primal-infeasible must not count as
	// warm; every solved node either stalls (not warm) or flips a bound
	// without violating the basics (warm with zero pivots is legal).
	if ws.Cold == 0 {
		t.Error("capped workspace never fell back cold")
	}
}

// TestReoptimizeDegenerate reoptimizes the highly degenerate
// Klee-Minty-ish LP under bound changes; correctness must survive even
// if the dual simplex stalls and retreats to the cold path.
func TestReoptimizeDegenerate(t *testing.T) {
	p := NewProblem()
	x := make([]int, 4)
	for i := range x {
		x[i] = p.AddVariable(-1, 0, 1)
	}
	for i := range x {
		p.AddConstraint([]Term{{x[i], 1}}, LE, 0)
	}
	p.AddConstraint([]Term{{x[0], 1}, {x[1], 1}, {x[2], 1}, {x[3], 1}}, LE, 0)
	ws := NewWorkspace()
	sol, err := ws.Reoptimize(p, nil)
	if err != nil || sol.Status != Optimal || !approx(sol.Objective, 0, 1e-9) {
		t.Fatalf("cold: %v %+v", err, sol)
	}
	for _, v := range []int{0, 2, 1, 3, 0} {
		// Forcing any variable to 1 contradicts x_v <= 0: infeasible.
		sol, err = ws.ReoptimizeBounds(p, v, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Infeasible {
			t.Fatalf("var %d pinned to 1: status %v, want infeasible", v, sol.Status)
		}
		sol, err = ws.ReoptimizeBounds(p, v, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || !approx(sol.Objective, 0, 1e-9) {
			t.Fatalf("var %d relaxed: %+v, want optimal 0", v, sol)
		}
	}
}

// TestWorkspaceCrossProblem reuses one workspace across different
// problems: each switch must solve cold (no basis smuggling) and still
// answer correctly.
func TestWorkspaceCrossProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ws := NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		p := randomMixedLP(rng, 2+rng.Intn(5), 1+rng.Intn(6))
		cold := ws.Cold
		sol, err := ws.Reoptimize(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Cold != cold+1 {
			t.Fatalf("trial %d: problem switch did not solve cold", trial)
		}
		if !checkAgainstCold(t, "switch", p, sol) {
			t.Fatalf("trial %d: wrong answer after problem switch", trial)
		}
	}
}

// TestWarmReoptimizeAllocFree pins the steady-state allocation contract:
// once the workspace buffers exist, reoptimization allocates nothing.
func TestWarmReoptimizeAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomBoxLP(rng, 8, 8)
	ws := NewWorkspace()
	if _, err := ws.Reoptimize(p, nil); err != nil {
		t.Fatal(err)
	}
	v := 0
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ws.ReoptimizeBounds(p, v, 1, 1, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.ReoptimizeBounds(p, v, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
		v = (v + 1) % 8
	})
	if allocs > 0 {
		t.Errorf("reoptimization allocates %.1f objects per round, want 0", allocs)
	}
}

// TestColdResolveAllocFree pins the cross-size reuse contract of the
// workspace: after warm-up, cold re-solves allocate nothing —
// including a smaller problem following a larger one, which must
// reslice the tableau, not regrow it.
func TestColdResolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	big := randomBoxLP(rng, 24, 18)
	small := randomBoxLP(rng, 5, 4)
	ws := NewWorkspace()
	if _, err := ws.Reoptimize(big, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ws.Reoptimize(big, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Reoptimize(small, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("cold big+small re-solve pair allocates %.1f objects, want 0", allocs)
	}
}
