package ilp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// hardCoverProblem builds an odd-cycle vertex cover with random chords:
// minimize Σ c_i x_i subject to x_i + x_{i+1} >= 1 around an odd ring
// plus ~n random chord constraints.  The LP relaxation of an odd ring
// sits at x = 1/2 everywhere, so — unlike the near-unimodular partition
// problems — these instances genuinely branch, which makes them the
// regression vehicle for warm-start effort.
func hardCoverProblem(rng *rand.Rand, n int) (*lp.Problem, []int) {
	if n%2 == 0 {
		n++
	}
	p := lp.NewProblem()
	bins := make([]int, n)
	for i := range bins {
		bins[i] = p.AddBinary(1 + rng.Float64()*4)
	}
	for i := 0; i < n; i++ {
		p.AddConstraint([]lp.Term{
			{Var: bins[i], Coeff: 1},
			{Var: bins[(i+1)%n], Coeff: 1},
		}, lp.GE, 1)
	}
	for e := 0; e < n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p.AddConstraint([]lp.Term{{Var: bins[i], Coeff: 1}, {Var: bins[j], Coeff: 1}}, lp.GE, 1)
	}
	return p, bins
}

// TestWarmStartEffort pins the tentpole's claim on a branching
// instance: most node relaxations are served by the warm dual-simplex
// path, and the node accounting is exact.
func TestWarmStartEffort(t *testing.T) {
	p, bins := hardCoverProblem(rand.New(rand.NewSource(3)), 25)
	var s Solver
	res, err := s.Solve(p, bins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	if res.Nodes < 3 {
		t.Fatalf("instance did not branch: %d nodes", res.Nodes)
	}
	if res.LPWarm+res.LPCold != res.Nodes {
		t.Errorf("warm %d + cold %d != nodes %d", res.LPWarm, res.LPCold, res.Nodes)
	}
	if res.LPWarm == 0 {
		t.Errorf("no warm-started node LPs on a branching instance (cold=%d)", res.LPCold)
	}
	if res.LPWarm < res.LPCold {
		t.Errorf("warm path is the minority: warm=%d cold=%d", res.LPWarm, res.LPCold)
	}

	// The same instance under coldStart must agree exactly (the
	// perturbed optimum is unique) while doing all-cold work.
	cold, err := (&Solver{coldStart: true}).Solve(p, bins, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != Optimal || !approx(cold.Objective, res.Objective, 1e-6) {
		t.Fatalf("cold-start objective %v, warm %v", cold.Objective, res.Objective)
	}
	if cold.LPWarm != 0 || cold.LPCold != cold.Nodes {
		t.Errorf("coldStart accounting: warm=%d cold=%d nodes=%d", cold.LPWarm, cold.LPCold, cold.Nodes)
	}
	for _, v := range bins {
		if res.X[v] != cold.X[v] {
			t.Fatalf("warm and cold-start picks diverge at %d: %v vs %v", v, res.X[v], cold.X[v])
		}
	}
}

// TestQuickWarmAgreesWithColdStart cross-checks the warm-started solver
// against coldStart mode (the seed algorithm: fresh two-phase solve per
// node, no reduced-cost fixing) on random branching instances.
func TestQuickWarmAgreesWithColdStart(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p *lp.Problem
		var bins []int
		if seed%2 == 0 {
			p, bins = hardCoverProblem(rng, 7+2*rng.Intn(5))
		} else {
			p, bins = randomPartitionProblem(rng, 3+rng.Intn(12))
		}
		warm, err := (&Solver{}).Solve(p, bins, nil)
		if err != nil {
			t.Logf("seed %d: warm: %v", seed, err)
			return false
		}
		cold, err := (&Solver{coldStart: true}).Solve(p, bins, nil)
		if err != nil {
			t.Logf("seed %d: cold-start: %v", seed, err)
			return false
		}
		if warm.Status != cold.Status {
			t.Logf("seed %d: status %v vs %v", seed, warm.Status, cold.Status)
			return false
		}
		if warm.Status == Optimal {
			if !approx(warm.Objective, cold.Objective, 1e-6) {
				t.Logf("seed %d: objective %v vs %v", seed, warm.Objective, cold.Objective)
				return false
			}
			if !satisfies(p, warm.X) {
				t.Logf("seed %d: warm incumbent infeasible", seed)
				return false
			}
		}
		if warm.LPWarm+warm.LPCold != warm.Nodes || cold.LPWarm != 0 {
			t.Logf("seed %d: accounting warm=%+v cold=%+v", seed, warm, cold)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReducedCostFixing pins that root presolve actually fires and
// never costs correctness: on instances where it fixes variables, the
// exhaustive optimum is still found.
func TestReducedCostFixing(t *testing.T) {
	fired := false
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, bins := hardCoverProblem(rng, 9+2*rng.Intn(3))
		var s Solver
		res, err := s.Solve(p, bins, nil)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := SolveExhaustive(p, bins)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != ex.Status {
			t.Fatalf("seed %d: status %v vs exhaustive %v", seed, res.Status, ex.Status)
		}
		if res.Status == Optimal && !approx(res.Objective, ex.Objective, 1e-6) {
			t.Fatalf("seed %d: objective %v vs exhaustive %v (rc-fixed %d)",
				seed, res.Objective, ex.Objective, res.RCFixed)
		}
		if res.RCFixed > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("reduced-cost fixing never fired across 30 branching instances")
	}
}

// BenchmarkWarmVsColdNodes compares the warm-started solver against
// coldStart mode on one branching instance, reporting pivots and nodes
// so the ratio is visible in benchmark output.
func BenchmarkWarmVsColdNodes(b *testing.B) {
	p, bins := hardCoverProblem(rand.New(rand.NewSource(3)), 25)
	for _, mode := range []struct {
		name string
		s    Solver
	}{
		{"warm", Solver{}},
		{"cold", Solver{coldStart: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := mode.s
			pivots, nodes := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(p, bins, nil)
				if err != nil {
					b.Fatal(err)
				}
				pivots += res.LPPivots
				nodes += res.Nodes
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
	}
}
