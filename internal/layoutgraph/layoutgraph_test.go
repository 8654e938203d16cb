package layoutgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ilp"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }

// adiToy models the Adi trade-off: two phases (row sweep, column
// sweep), two static candidates each (row, column layout), remap cost
// on the transition.  Row sweep: row fast (10), column slow (100).
// Column sweep: row slow (100), column fast (10).  Remap costs r both
// ways.
func adiToy(r float64) *Graph {
	return &Graph{
		NodeCost: [][]float64{{10, 100}, {100, 10}},
		Edges: []*Edge{
			{FromPhase: 0, ToPhase: 1, Cost: [][]float64{{0, r}, {r, 0}}},
			{FromPhase: 1, ToPhase: 0, Cost: [][]float64{{0, r}, {r, 0}}},
		},
	}
}

func TestStaticVsDynamicCrossover(t *testing.T) {
	// Cheap remapping: the dynamic layout (row for phase 0, column for
	// phase 1) wins.
	sel, err := adiToy(5).SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Choice[0] != 0 || sel.Choice[1] != 1 {
		t.Errorf("cheap remap choice = %v, want [0 1] (dynamic)", sel.Choice)
	}
	if !approx(sel.Cost, 10+10+5+5) {
		t.Errorf("cost = %v, want 30", sel.Cost)
	}
	// Expensive remapping: a static layout wins even though one phase
	// is suboptimal (the paper: the optimal layout may consist of
	// candidates each suboptimal for their phases).
	sel2, err := adiToy(200).SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.Choice[0] != sel2.Choice[1] {
		t.Errorf("expensive remap choice = %v, want static", sel2.Choice)
	}
	if !approx(sel2.Cost, 110) {
		t.Errorf("cost = %v, want 110", sel2.Cost)
	}
}

func TestSingleCandidatePhases(t *testing.T) {
	g := &Graph{NodeCost: [][]float64{{7}, {3}}}
	sel, err := g.SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sel.Cost, 10) {
		t.Errorf("cost = %v, want 10", sel.Cost)
	}
}

func TestDPMatchesILPOnChain(t *testing.T) {
	g := &Graph{
		NodeCost: [][]float64{{1, 4}, {6, 2}, {3, 3}},
		Edges: []*Edge{
			{FromPhase: 0, ToPhase: 1, Cost: [][]float64{{0, 5}, {5, 0}}},
			{FromPhase: 1, ToPhase: 2, Cost: [][]float64{{0, 1}, {1, 0}}},
		},
	}
	ilpSel, err := g.SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dpSel, err := g.SolveElim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(ilpSel.Cost, dpSel.Cost) {
		t.Errorf("ILP %v vs DP %v", ilpSel.Cost, dpSel.Cost)
	}
}

func TestDPRing(t *testing.T) {
	g := adiToy(5)
	dpSel, err := g.SolveElim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(dpSel.Cost, 30) {
		t.Errorf("ring DP cost = %v, want 30", dpSel.Cost)
	}
}

// overCapGraph is a clique of 8 phases with 8 candidates each: whatever
// the order, the first elimination needs 8^8 table cells.  Agreeing
// choices are free and candidate 3 is cheapest everywhere, so the 0-1
// relaxation is tight and the ILP answers at the root.
func overCapGraph() *Graph {
	const n, d = 8, 8
	g := &Graph{NodeCost: make([][]float64, n)}
	for p := range g.NodeCost {
		g.NodeCost[p] = make([]float64, d)
		for i := range g.NodeCost[p] {
			g.NodeCost[p][i] = float64(1 + (i+d-3)%d)
		}
	}
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			e := &Edge{FromPhase: p, ToPhase: q, Cost: make([][]float64, d)}
			for i := range e.Cost {
				e.Cost[i] = make([]float64, d)
				for j := range e.Cost[i] {
					if i != j {
						e.Cost[i][j] = 5
					}
				}
			}
			g.Edges = append(g.Edges, e)
		}
	}
	return g
}

// overCapILP is the over-cap clique answered once by the default router
// (the DP refuses, the 0-1 ILP answers) and shared by the tests that
// need it: on the dense tableau the 1 856-binary model takes seconds.
var overCapILP = sync.OnceValues(func() (*Selection, error) {
	return overCapGraph().SolveAutoWS(nil, nil)
})

// TestDPRejectsGeneralGraphs: shape is never a reason to refuse — a
// graph that is neither chain nor ring is solved — but width is: over
// the table cap the DP returns *OverCapError and the ILP answers.
func TestDPRejectsGeneralGraphs(t *testing.T) {
	g := &Graph{
		NodeCost: [][]float64{{1}, {1}, {1}},
		Edges: []*Edge{
			{FromPhase: 0, ToPhase: 2, Cost: [][]float64{{0}}},
		},
	}
	if sel, err := g.SolveElim(nil); err != nil || !approx(sel.Cost, 3) {
		t.Fatalf("non-chain graph: %v, %v", sel, err)
	}
	wide := overCapGraph()
	var over *OverCapError
	if _, err := wide.SolveElim(nil); !errors.As(err, &over) {
		t.Fatalf("expected *OverCapError on an 8x8 clique, got %v", err)
	}
	sel, err := overCapILP()
	if err != nil {
		t.Fatalf("ILP should handle it: %v", err)
	}
	if !approx(sel.Cost, 8) {
		t.Errorf("clique cost %v (choice %v), want 8 (all candidate 3)", sel.Cost, sel.Choice)
	}
}

// TestOverCapBudgetBounded: over the cap the dense pivot loop's abort
// check is the only thing between a wall-clock budget and a
// multi-second root LP.  A 50 ms budget must come back promptly with a
// degraded incumbent or *NoIncumbentError — never a hang, never a
// selection passed off as optimal.
func TestOverCapBudgetBounded(t *testing.T) {
	start := time.Now()
	sel, err := overCapGraph().SolveAutoWS(&ilp.Solver{Deadline: time.Now().Add(50 * time.Millisecond)}, nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("50ms budget took %v", elapsed)
	}
	var noInc *NoIncumbentError
	switch {
	case errors.As(err, &noInc):
		if !noInc.Status.Limited() {
			t.Errorf("NoIncumbentError carries status %v, want a limited one", noInc.Status)
		}
	case err != nil:
		t.Fatalf("budgeted over-cap solve: %v (%T)", err, err)
	case !sel.Degraded:
		t.Errorf("budgeted over-cap solve claims an optimum: route %q, cost %v", sel.Solver, sel.Cost)
	}
}

func randomGraph(rng *rand.Rand) *Graph {
	phases := 2 + rng.Intn(4)
	g := &Graph{NodeCost: make([][]float64, phases)}
	for p := range g.NodeCost {
		nc := 1 + rng.Intn(3)
		g.NodeCost[p] = make([]float64, nc)
		for i := range g.NodeCost[p] {
			g.NodeCost[p][i] = float64(rng.Intn(50))
		}
	}
	// Forward chain edges plus occasional back/cross edges.
	for p := 0; p+1 < phases; p++ {
		g.Edges = append(g.Edges, randomEdge(rng, g, p, p+1))
	}
	extra := rng.Intn(3)
	for k := 0; k < extra; k++ {
		from, to := rng.Intn(phases), rng.Intn(phases)
		if from == to {
			continue
		}
		g.Edges = append(g.Edges, randomEdge(rng, g, from, to))
	}
	return g
}

func randomEdge(rng *rand.Rand, g *Graph, from, to int) *Edge {
	e := &Edge{FromPhase: from, ToPhase: to}
	e.Cost = make([][]float64, len(g.NodeCost[from]))
	for i := range e.Cost {
		e.Cost[i] = make([]float64, len(g.NodeCost[to]))
		for j := range e.Cost[i] {
			if i != j {
				e.Cost[i][j] = float64(rng.Intn(30))
			}
		}
	}
	return e
}

// TestQuickILPMatchesExhaustive cross-checks the 0-1 selection against
// enumeration on random layout graphs.
func TestQuickILPMatchesExhaustive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		ilpSel, err := g.SolveILP(nil, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		exSel, err := g.SolveExhaustive()
		if err != nil {
			return false
		}
		if !approx(ilpSel.Cost, exSel.Cost) {
			t.Logf("seed %d: ilp %v vs exhaustive %v", seed, ilpSel.Cost, exSel.Cost)
			return false
		}
		// The reported cost must equal the evaluated choice.
		return approx(g.evaluate(ilpSel.Choice), ilpSel.Cost)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDPMatchesExhaustiveOnChains validates the DP on random
// chains and rings.
func TestQuickDPMatchesExhaustiveOnChains(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phases := 2 + rng.Intn(4)
		g := &Graph{NodeCost: make([][]float64, phases)}
		for p := range g.NodeCost {
			nc := 1 + rng.Intn(3)
			g.NodeCost[p] = make([]float64, nc)
			for i := range g.NodeCost[p] {
				g.NodeCost[p][i] = float64(rng.Intn(50))
			}
		}
		for p := 0; p+1 < phases; p++ {
			g.Edges = append(g.Edges, randomEdge(rng, g, p, p+1))
		}
		if rng.Intn(2) == 1 {
			g.Edges = append(g.Edges, randomEdge(rng, g, phases-1, 0))
		}
		dpSel, err := g.SolveElim(nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		exSel, err := g.SolveExhaustive()
		if err != nil {
			return false
		}
		if !approx(dpSel.Cost, exSel.Cost) {
			t.Logf("seed %d: dp %v vs exhaustive %v", seed, dpSel.Cost, exSel.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestILPStatsRecorded(t *testing.T) {
	sel, err := adiToy(5).SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Vars == 0 || sel.Constraints == 0 {
		t.Errorf("stats = %+v, want nonzero sizes", sel)
	}
}

func BenchmarkSelectionILP(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := &Graph{NodeCost: make([][]float64, 12)}
	for p := range g.NodeCost {
		g.NodeCost[p] = make([]float64, 4)
		for i := range g.NodeCost[p] {
			g.NodeCost[p][i] = float64(rng.Intn(100))
		}
	}
	for p := 0; p+1 < len(g.NodeCost); p++ {
		g.Edges = append(g.Edges, randomEdge(rng, g, p, p+1))
	}
	g.Edges = append(g.Edges, randomEdge(rng, g, len(g.NodeCost)-1, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveILP(nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// frustratedRing builds an odd ring of phases with two candidates each
// whose edges penalize agreeing choices: an odd cycle cannot alternate,
// so the integral optimum pays at least one edge while the LP
// relaxation routes every edge's mass through disagreeing pairs at
// cost ~0.  The relaxation is fractional and the solver must branch —
// the regime where warm-started reoptimization pays off.  Tiny random
// asymmetries keep the optimum unique.
func frustratedRing(n int, rng *rand.Rand) *Graph {
	const k = 2
	g := &Graph{NodeCost: make([][]float64, n)}
	for p := range g.NodeCost {
		g.NodeCost[p] = make([]float64, k)
		for i := range g.NodeCost[p] {
			g.NodeCost[p][i] = rng.Float64() * 0.01
		}
	}
	for p := 0; p < n; p++ {
		e := &Edge{FromPhase: p, ToPhase: (p + 1) % n, Cost: make([][]float64, k)}
		for i := 0; i < k; i++ {
			e.Cost[i] = make([]float64, k)
			for j := 0; j < k; j++ {
				if i == j {
					e.Cost[i][j] = 1
				}
				e.Cost[i][j] += rng.Float64() * 0.01
			}
		}
		g.Edges = append(g.Edges, e)
	}
	return g
}

// TestBranchingSelectionWarmStats pins that a fractional selection
// actually exercises the warm path and returns the selection the
// elimination DP does.  (The LP-level warm-vs-cold agreement is ilp's
// TestQuickWarmAgreesWithColdStart.)
func TestBranchingSelectionWarmStats(t *testing.T) {
	g := frustratedRing(9, rand.New(rand.NewSource(7)))
	sel, err := g.SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.BBNodes < 3 {
		t.Fatalf("frustrated ring did not branch: %d nodes", sel.BBNodes)
	}
	if sel.LPWarm == 0 || sel.LPWarm+sel.LPCold != sel.BBNodes {
		t.Errorf("warm accounting: warm=%d cold=%d nodes=%d", sel.LPWarm, sel.LPCold, sel.BBNodes)
	}
	dp, err := g.SolveElim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sel.Cost, dp.Cost) || fmt.Sprint(sel.Choice) != fmt.Sprint(dp.Choice) {
		t.Errorf("ILP %v (%v) vs elimination DP %v (%v)", sel.Choice, sel.Cost, dp.Choice, dp.Cost)
	}
	// An exhaustive check that the branching answer is the optimum.
	ex, err := g.SolveExhaustive()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sel.Cost, ex.Cost) {
		t.Errorf("ILP cost %v, exhaustive %v", sel.Cost, ex.Cost)
	}
}

// BenchmarkSelectionILPBranching is the end-to-end selection benchmark
// on a branching instance, by the 0-1 ILP and by the elimination DP
// that answers it in production.
func BenchmarkSelectionILPBranching(b *testing.B) {
	g := frustratedRing(11, rand.New(rand.NewSource(7)))
	for _, mode := range []struct {
		name  string
		solve func() (*Selection, error)
	}{
		{"ilp", func() (*Selection, error) { return g.SolveILP(nil, nil) }},
		{"elim", func() (*Selection, error) { return g.SolveElim(nil) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			pivots := 0
			for i := 0; i < b.N; i++ {
				sel, err := mode.solve()
				if err != nil {
					b.Fatal(err)
				}
				pivots += sel.LPPivots
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
}

func TestTiesForceEqualChoice(t *testing.T) {
	// Phase 0 prefers candidate 0, phase 1 prefers candidate 1; a tie
	// forces a common pick, which must be the cheaper combined one.
	g := &Graph{
		NodeCost: [][]float64{{1, 5}, {9, 2}},
		Ties:     [][2]int{{0, 1}},
	}
	sel, err := g.SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Choice[0] != sel.Choice[1] {
		t.Fatalf("tie violated: %v", sel.Choice)
	}
	// Common 0: 1+9=10; common 1: 5+2=7 -> candidate 1.
	if sel.Choice[0] != 1 || !approx(sel.Cost, 7) {
		t.Errorf("choice = %v cost %v, want [1 1] cost 7", sel.Choice, sel.Cost)
	}
}

func TestQuickTiesMatchExhaustive(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		phases := 3 + rng.Intn(3)
		nc := 2 + rng.Intn(2)
		g := &Graph{NodeCost: make([][]float64, phases)}
		for p := range g.NodeCost {
			g.NodeCost[p] = make([]float64, nc)
			for i := range g.NodeCost[p] {
				g.NodeCost[p][i] = float64(rng.Intn(40))
			}
		}
		for p := 0; p+1 < phases; p++ {
			g.Edges = append(g.Edges, randomEdge(rng, g, p, p+1))
		}
		p := rng.Intn(phases - 1)
		g.Ties = [][2]int{{p, p + 1}}
		ilpSel, err := g.SolveILP(nil, nil)
		if err != nil {
			return false
		}
		exSel, err := g.SolveExhaustive()
		if err != nil {
			return false
		}
		if ilpSel.Choice[p] != ilpSel.Choice[p+1] {
			return false
		}
		return approx(ilpSel.Cost, exSel.Cost)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDPContractsTies: tied phases are one variable of the DP, not a
// reason to refuse.
func TestDPContractsTies(t *testing.T) {
	g := &Graph{NodeCost: [][]float64{{1, 5}, {9, 2}}, Ties: [][2]int{{0, 1}}}
	sel, err := g.SolveElim(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Choice[0] != 1 || sel.Choice[1] != 1 || !approx(sel.Cost, 7) {
		t.Errorf("choice = %v cost %v, want [1 1] cost 7", sel.Choice, sel.Cost)
	}
}
