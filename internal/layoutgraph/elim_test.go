package layoutgraph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ilp"
)

// randomNarrowGraph builds a random layout graph of treewidth at most
// 3: a path, forest or ring, up to two chords, then the clutter the
// model step must fold — parallel and reverse duplicates, self-loops
// and a tied pair.  Half the graphs draw small integer costs (many
// exactly equal candidates and selections), half draw floats (unique
// optima).
func randomNarrowGraph(rng *rand.Rand) *Graph {
	phases := 1 + rng.Intn(7)
	cost := func(scale int) float64 { return rng.Float64() * float64(scale) }
	if rng.Intn(2) == 0 {
		cost = func(int) float64 { return float64(rng.Intn(4)) }
	}
	g := &Graph{NodeCost: make([][]float64, phases)}
	for p := range g.NodeCost {
		g.NodeCost[p] = make([]float64, 1+rng.Intn(3))
		for i := range g.NodeCost[p] {
			g.NodeCost[p][i] = cost(50)
		}
	}
	if phases > 1 && rng.Intn(3) == 0 {
		// A tied pair needs equal candidate counts.
		p := rng.Intn(phases - 1)
		q := p + 1 + rng.Intn(phases-p-1)
		g.NodeCost[q] = g.NodeCost[q][:0]
		for range g.NodeCost[p] {
			g.NodeCost[q] = append(g.NodeCost[q], cost(50))
		}
		g.Ties = [][2]int{{p, q}}
	}
	link := func(from, to int) {
		e := &Edge{FromPhase: from, ToPhase: to, Cost: make([][]float64, len(g.NodeCost[from]))}
		for i := range e.Cost {
			e.Cost[i] = make([]float64, len(g.NodeCost[to]))
			for j := range e.Cost[i] {
				e.Cost[i][j] = cost(30)
			}
		}
		g.Edges = append(g.Edges, e)
	}
	shape := rng.Intn(3) // 0 path, 1 forest, 2 ring
	for p := 1; p < phases; p++ {
		anchor := p - 1
		if shape == 1 {
			if rng.Intn(4) == 0 {
				continue // new component
			}
			anchor = rng.Intn(p)
		}
		if rng.Intn(2) == 0 {
			link(anchor, p)
		} else {
			link(p, anchor)
		}
		if rng.Intn(5) == 0 {
			link(anchor, p) // parallel duplicate
		}
		if rng.Intn(5) == 0 {
			link(p, anchor) // reverse duplicate
		}
	}
	if shape == 2 && phases > 2 {
		link(phases-1, 0)
		for c := rng.Intn(3); c > 0; c-- {
			link(rng.Intn(phases), rng.Intn(phases)) // chord, duplicate or self-loop
		}
	}
	if rng.Intn(4) == 0 {
		p := rng.Intn(phases)
		link(p, p)
	}
	return g
}

// perturbedOptima enumerates every tie-respecting selection under the
// perturbed objective and returns the best one and the margin by which
// the runner-up loses (+Inf when there is only one selection).
func perturbedOptima(g *Graph) (best []int, margin float64) {
	choice := make([]int, len(g.NodeCost))
	bestCost, second := math.Inf(1), math.Inf(1)
	var rec func(p, k int, eps float64)
	rec = func(p, k int, eps float64) {
		if p == len(choice) {
			for _, t := range g.Ties {
				if choice[t[0]] != choice[t[1]] {
					return
				}
			}
			switch c := g.evaluate(choice) + eps; {
			case c < bestCost:
				bestCost, second, best = c, bestCost, append([]int(nil), choice...)
			case c < second:
				second = c
			}
			return
		}
		for i := range g.NodeCost[p] {
			choice[p] = i
			rec(p+1, k+len(g.NodeCost[p]), eps+ilp.PerturbEps*float64(k+i+1))
		}
	}
	rec(0, 0, 0)
	return best, second - bestCost
}

// TestQuickElimMatchesOracles is the soundness property of the one
// structural route: on random graphs of width at most 3 the elimination
// DP costs what enumeration costs, spends no branch-and-bound node, and — wherever the perturbed optimum
// is unique — returns the exact choice vector branch and bound does.
func TestQuickElimMatchesOracles(t *testing.T) {
	unique := 0
	check := func(seed int64) bool {
		g := randomNarrowGraph(rand.New(rand.NewSource(seed)))
		sel, err := g.SolveElim(nil)
		if err != nil {
			t.Logf("seed %d: SolveElim: %v", seed, err)
			return false
		}
		if sel.Solver != "tree-dp" || sel.Vars != 0 || sel.BBNodes != 0 || sel.LPPivots != 0 {
			t.Logf("seed %d: route %q, %d vars, %d nodes, %d pivots", seed, sel.Solver, sel.Vars, sel.BBNodes, sel.LPPivots)
			return false
		}
		ex, err := g.SolveExhaustive()
		if err != nil {
			t.Logf("seed %d: SolveExhaustive: %v", seed, err)
			return false
		}
		if !approx(sel.Cost, ex.Cost) || !approx(g.evaluate(sel.Choice), sel.Cost) {
			t.Logf("seed %d: elim %v, exhaustive %v", seed, sel.Cost, ex.Cost)
			return false
		}
		for _, tie := range g.Ties {
			if sel.Choice[tie[0]] != sel.Choice[tie[1]] {
				t.Logf("seed %d: tie %v violated by %v", seed, tie, sel.Choice)
				return false
			}
		}
		best, margin := perturbedOptima(g)
		if margin < ilp.PerturbEps/2 {
			return true // equal perturbation sums: any of the optima is right
		}
		unique++
		ilpSel, err := g.SolveILP(nil, nil)
		if err != nil {
			t.Logf("seed %d: SolveILP: %v", seed, err)
			return false
		}
		if fmt.Sprint(sel.Choice) != fmt.Sprint(best) || fmt.Sprint(ilpSel.Choice) != fmt.Sprint(best) {
			t.Logf("seed %d: elim %v, ilp %v, perturbed optimum %v (margin %g)", seed, sel.Choice, ilpSel.Choice, best, margin)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if unique == 0 {
		t.Fatal("no random graph had a unique perturbed optimum to compare choices on")
	}

	sel, err := overCapILP()
	if err != nil {
		t.Fatalf("SolveAutoWS over the cap: %v", err)
	}
	if sel.Solver == "tree-dp" || sel.Vars == 0 || !approx(sel.Cost, 8) {
		t.Errorf("over the cap: route %q, %d vars, cost %v; want an ILP route at cost 8", sel.Solver, sel.Vars, sel.Cost)
	}

	// Both selections below cost 0; the perturbation, the one tie rule,
	// prefers [1 0] (binaries 2 and 3) to [0 2] (binaries 1 and 5) on
	// both routes.
	tie := &Graph{
		NodeCost: [][]float64{{0, 0}, {0, 0, 0}},
		Edges:    []*Edge{{FromPhase: 0, ToPhase: 1, Cost: [][]float64{{9, 9, 0}, {0, 9, 9}}}},
	}
	dpTie, err := tie.SolveElim(nil)
	if err != nil {
		t.Fatal(err)
	}
	ilpTie, err := tie.SolveILP(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprint(dpTie.Choice), fmt.Sprint(ilpTie.Choice); a != "[1 0]" || b != "[1 0]" {
		t.Errorf("tie: elim %s, ilp %s, want [1 0] from both", a, b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ring := frustratedRing(5, rand.New(rand.NewSource(1)))
	if _, err := ring.SolveElim(&ilp.Solver{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
}

// TestSolveAutoRouting pins the router: chains and rings alike take the
// DP with no 0-1 model built.
func TestSolveAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chain := &Graph{NodeCost: [][]float64{{3, 1}, {2, 5}, {4, 2}}}
	chain.Edges = []*Edge{randomEdge(rng, chain, 0, 1), randomEdge(rng, chain, 1, 2)}
	for name, g := range map[string]*Graph{"chain": chain, "ring": frustratedRing(5, rng)} {
		sel, err := g.SolveAutoWS(nil, nil)
		if err != nil {
			t.Fatalf("SolveAutoWS(%s): %v", name, err)
		}
		if sel.Solver != "tree-dp" || sel.Vars != 0 || sel.BBNodes != 0 || sel.LPPivots != 0 {
			t.Fatalf("%s routed to %q with %d vars, %d nodes, %d pivots; want tree-dp with none",
				name, sel.Solver, sel.Vars, sel.BBNodes, sel.LPPivots)
		}
		ex, err := g.SolveExhaustive()
		if err != nil {
			t.Fatalf("SolveExhaustive(%s): %v", name, err)
		}
		if !approx(sel.Cost, ex.Cost) {
			t.Fatalf("%s cost %v, exhaustive %v", name, sel.Cost, ex.Cost)
		}
	}
}

// TestTreeSelfLoopFolding: a self-loop edge is a node-cost term; the DP
// must fold its diagonal and still match enumeration.
func TestTreeSelfLoopFolding(t *testing.T) {
	g := &Graph{NodeCost: [][]float64{{1, 1}, {2, 0}}}
	g.Edges = []*Edge{
		{FromPhase: 0, ToPhase: 1, Cost: [][]float64{{0, 5}, {5, 0}}},
		// Self-loop on phase 0: picking candidate 1 costs 10 more.
		{FromPhase: 0, ToPhase: 0, Cost: [][]float64{{0, 99}, {99, 10}}},
	}
	sel, err := g.SolveElim(nil)
	if err != nil {
		t.Fatalf("SolveElim: %v", err)
	}
	ex, err := g.SolveExhaustive()
	if err != nil {
		t.Fatalf("SolveExhaustive: %v", err)
	}
	if !approx(sel.Cost, ex.Cost) {
		t.Fatalf("cost %v (choice %v), exhaustive %v (choice %v)", sel.Cost, sel.Choice, ex.Cost, ex.Choice)
	}
	if sel.Choice[0] != 0 {
		t.Fatalf("self-loop penalty ignored: choice %v", sel.Choice)
	}
}

// TestElimAllocsPerPhase pins the DP's allocation count to a small
// multiple of the phase count on the two shapes the scale benchmarks
// run (a 500-phase path, a 200-phase ring): adjacency and pair tables
// come from arenas sized once, so what remains per phase is the step's
// value and argmin tables, plus on a ring the fill-in's list growth.
func TestElimAllocsPerPhase(t *testing.T) {
	build := func(phases int, ring bool) *Graph {
		rng := rand.New(rand.NewSource(3))
		g := &Graph{NodeCost: make([][]float64, phases)}
		for p := range g.NodeCost {
			g.NodeCost[p] = []float64{rng.Float64(), rng.Float64()}
		}
		for p := 0; p+1 < phases; p++ {
			g.Edges = append(g.Edges, randomEdge(rng, g, p, p+1))
		}
		if ring {
			g.Edges = append(g.Edges, randomEdge(rng, g, phases-1, 0))
		}
		return g
	}
	for _, tc := range []struct {
		name   string
		phases int
		ring   bool
	}{{"path-500", 500, false}, {"ring-200", 200, true}} {
		g := build(tc.phases, tc.ring)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := g.SolveElim(nil); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(4 * tc.phases); allocs > limit {
			t.Errorf("%s: %.0f allocations per solve, want at most %.0f (4 per phase)", tc.name, allocs, limit)
		} else {
			t.Logf("%s: %.0f allocations per solve", tc.name, allocs)
		}
	}
}
