// Package layoutgraph implements the final layout selection step of the
// framework (§2.4): the data layout graph and the NP-complete selection
// of one candidate layout per phase minimizing total cost.
//
// The data layout graph has one node per candidate layout of each
// phase, weighted by the candidate's estimated execution time times the
// phase's execution frequency.  Edges represent possible remappings
// between candidates of control-flow-adjacent phases, weighted by
// remapping cost times the edge's traversal frequency.  The optimal
// selection problem is NP-complete [Kre93]; following [BKK94b] it is
// translated to a 0-1 integer program and solved exactly (SolveILP).
// The graphs real programs produce have small treewidth, though, so the
// route core takes is SolveAutoWS: one exact variable-elimination
// dynamic program (SolveElim) minimizing the ILP's own perturbed
// objective, with the ILP kept for graphs over the DP's table-size cap.
// SolveGreedy is the budget-exhausted last resort.
package layoutgraph

import (
	"fmt"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// Graph is a data layout graph.
type Graph struct {
	// NodeCost[p][i] is the frequency-weighted cost of candidate i of
	// phase p.
	NodeCost [][]float64
	// Edges lists the remapping-capable transitions.
	Edges []*Edge
}

// Edge connects the candidates of two phases; Cost[i][j] is the
// frequency-weighted remapping cost from candidate i of FromPhase to
// candidate j of ToPhase.
type Edge struct {
	FromPhase, ToPhase int
	Cost               [][]float64
}

// Selection is a solved layout selection.
type Selection struct {
	// Choice[p] is the selected candidate index of phase p.
	Choice []int
	// Cost is the total objective value.
	Cost float64
	// Vars, Constraints, BBNodes and Duration describe the ILP solve
	// (zero for the DP and exhaustive baselines).  LPPivots is the
	// total simplex effort across nodes; LPWarm/LPCold split the node
	// relaxations by warm-started vs from-scratch solves and RCFixed
	// counts binaries fixed by root reduced-cost presolve.
	Vars, Constraints, BBNodes int
	LPPivots                   int
	LPWarm, LPCold             int
	RCFixed                    int
	Duration                   time.Duration
	// Solver names the route that produced the selection: "tree-dp"
	// (the exact tree-decomposition DP, SolveElim), "presolved"
	// (constraint propagation fixed every binary before branch and
	// bound), "dense" (ILP on the dense tableau simplex), or "" for
	// the greedy fallback (SolveGreedy).
	Solver string
	// Presolved counts binaries fixed by the ILP's constraint
	// propagation (zero on the tree-dp route).  LPSparse is always 0:
	// it counted node LPs on the removed sparse simplex and stays only
	// because the benchmark harness compiles against it.
	Presolved, LPSparse int
	// Degraded reports the selection is a feasible incumbent (or a
	// heuristic fallback) rather than a proven optimum — the solve was
	// cut off by a node or wall-clock limit.  Cost is still exact for
	// the reported Choice.
	Degraded bool
	// DegradeReason describes the cutoff ("" when not degraded).
	DegradeReason string
	// Gap is the relative optimality gap of a degraded selection
	// (incumbent cost vs the LP bound); negative when unknown, zero
	// when not degraded.
	Gap float64
}

// NoIncumbentError is returned by SolveILP when the search was cut off
// (node limit, time limit or cancellation) before any feasible
// incumbent was found; callers can fall back to SolveElim or SolveGreedy.
type NoIncumbentError struct {
	Status ilp.Status
}

func (e *NoIncumbentError) Error() string {
	return fmt.Sprintf("layoutgraph: selection ILP stopped at %v with no incumbent", e.Status)
}

// validate panics on malformed graphs.
func (g *Graph) validate() {
	for p, costs := range g.NodeCost {
		if len(costs) == 0 {
			panic(fmt.Sprintf("layoutgraph: phase %d has no candidates", p))
		}
	}
	for _, e := range g.Edges {
		if e.FromPhase < 0 || e.FromPhase >= len(g.NodeCost) ||
			e.ToPhase < 0 || e.ToPhase >= len(g.NodeCost) {
			panic("layoutgraph: edge references unknown phase")
		}
		if len(e.Cost) != len(g.NodeCost[e.FromPhase]) {
			panic("layoutgraph: edge cost rows mismatch")
		}
		for _, row := range e.Cost {
			if len(row) != len(g.NodeCost[e.ToPhase]) {
				panic("layoutgraph: edge cost columns mismatch")
			}
		}
	}
}

// evaluate computes the total cost of a choice vector.
func (g *Graph) evaluate(choice []int) float64 {
	total := 0.0
	for p, i := range choice {
		total += g.NodeCost[p][i]
	}
	for _, e := range g.Edges {
		total += e.Cost[choice[e.FromPhase]][choice[e.ToPhase]]
	}
	return total
}

// SolveILP selects optimally via the 0-1 formulation of [BKK94b]: one
// binary x per (phase, candidate) with an exactly-one constraint per
// phase, plus continuous transition variables y per edge candidate
// pair, coupled transportation-style to the endpoints:
//
//	∀i: Σ_j y_ij = x_from,i      ∀j: Σ_i y_ij = x_to,j
//
// With the x integral each edge's y is forced to the indicator of the
// selected pair, so no integrality is needed on y; the relaxation is
// the local marginal polytope, which is integral on trees and tight
// enough that chain- and ring-shaped programs solve in a handful of
// branch-and-bound nodes.  ws is the branch and bound's lp.Workspace
// (see ilp.Solver.Solve); nil gives the solve a private one.
func (g *Graph) SolveILP(solver *ilp.Solver, ws *lp.Workspace) (*Selection, error) {
	g.validate()
	if solver == nil {
		solver = &ilp.Solver{}
	}
	start := time.Now()
	prob := lp.NewProblem()
	nodeVar := make([][]int, len(g.NodeCost))
	var binaries []int
	for p, costs := range g.NodeCost {
		nodeVar[p] = make([]int, len(costs))
		for i, c := range costs {
			v := prob.AddBinary(c)
			prob.SetName(v, fmt.Sprintf("x_p%d_c%d", p, i))
			nodeVar[p][i] = v
			binaries = append(binaries, v)
		}
	}
	constraints := 0
	for p := range g.NodeCost {
		terms := make([]lp.Term, len(nodeVar[p]))
		for i, v := range nodeVar[p] {
			terms[i] = lp.Term{Var: v, Coeff: 1}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
		constraints++
	}
	for _, e := range g.Edges {
		nFrom, nTo := len(g.NodeCost[e.FromPhase]), len(g.NodeCost[e.ToPhase])
		yVar := make([][]int, nFrom)
		for i := 0; i < nFrom; i++ {
			yVar[i] = make([]int, nTo)
			for j := 0; j < nTo; j++ {
				yVar[i][j] = prob.AddVariable(e.Cost[i][j], 0, 1)
				prob.SetName(yVar[i][j], fmt.Sprintf("y_p%dc%d_p%dc%d", e.FromPhase, i, e.ToPhase, j))
			}
		}
		for i := 0; i < nFrom; i++ {
			terms := make([]lp.Term, 0, nTo+1)
			for j := 0; j < nTo; j++ {
				terms = append(terms, lp.Term{Var: yVar[i][j], Coeff: 1})
			}
			terms = append(terms, lp.Term{Var: nodeVar[e.FromPhase][i], Coeff: -1})
			prob.AddConstraint(terms, lp.EQ, 0)
			constraints++
		}
		for j := 0; j < nTo; j++ {
			terms := make([]lp.Term, 0, nFrom+1)
			for i := 0; i < nFrom; i++ {
				terms = append(terms, lp.Term{Var: yVar[i][j], Coeff: 1})
			}
			terms = append(terms, lp.Term{Var: nodeVar[e.ToPhase][j], Coeff: -1})
			prob.AddConstraint(terms, lp.EQ, 0)
			constraints++
		}
	}
	res, err := solver.Solve(prob, binaries, ws)
	if err != nil {
		return nil, err
	}
	sel := &Selection{
		Choice:      make([]int, len(g.NodeCost)),
		Vars:        prob.NumVariables(),
		Constraints: constraints,
		BBNodes:     res.Nodes,
		LPPivots:    res.LPPivots,
		LPWarm:      res.LPWarm,
		LPCold:      res.LPCold,
		RCFixed:     res.RCFixed,
		Presolved:   res.Presolved,
		Duration:    time.Since(start),
	}
	sel.Solver = "dense"
	if res.Presolved == len(binaries) && len(binaries) > 0 {
		sel.Solver = "presolved"
	}
	switch {
	case res.Status == ilp.Optimal:
	case res.Status.Limited() && res.X != nil:
		// Budget exhausted with a feasible incumbent: return it marked
		// degraded rather than failing the whole run.
		sel.Degraded = true
		sel.DegradeReason = fmt.Sprintf("selection ILP stopped at %v; using feasible incumbent", res.Status)
		sel.Gap = res.Gap()
	case res.Status.Limited():
		return nil, &NoIncumbentError{Status: res.Status}
	default:
		return nil, fmt.Errorf("layoutgraph: selection ILP %v", res.Status)
	}
	for p := range g.NodeCost {
		sel.Choice[p] = -1
		for i, v := range nodeVar[p] {
			if res.X[v] > 0.5 {
				sel.Choice[p] = i
			}
		}
		if sel.Choice[p] < 0 {
			return nil, fmt.Errorf("layoutgraph: phase %d unselected", p)
		}
	}
	sel.Cost = g.evaluate(sel.Choice)
	return sel, nil
}

// SolveGreedy selects each phase's cheapest candidate independently,
// ignoring remapping costs.  It is the last-resort fallback
// when a budget expires before the ILP finds any incumbent and the
// graph is over the DP's cap: always feasible, never optimal by
// construction, but the reported Cost (including the ignored edge
// costs) is exact.
func (g *Graph) SolveGreedy() *Selection {
	g.validate()
	choice := make([]int, len(g.NodeCost))
	for p, costs := range g.NodeCost {
		for i, c := range costs {
			if c < costs[choice[p]] {
				choice[p] = i
			}
		}
	}
	return &Selection{
		Choice:        choice,
		Cost:          g.evaluate(choice),
		Degraded:      true,
		DegradeReason: "greedy per-phase selection (remapping costs not optimized)",
		Gap:           -1,
	}
}
