// Package verify independently certifies every solver product of the
// analysis pipeline.
//
// The paper's value proposition rests on proven optimality: the 0-1
// formulations for inter-dimensional alignment and final layout
// selection are solved exactly, and the resilience machinery layered on
// top of those solvers (deadlines, incumbent fallbacks, caching,
// incremental reuse) is exactly the machinery that can silently return
// a wrong-but-plausible layout — a stale cache hit, a wrongly reused
// artifact, an incumbent mislabeled as optimal.  This package re-derives
// each claim from first principles, sharing no state and no code path
// with the solvers it checks:
//
//   - CheckLP re-checks an LP solution for primal feasibility and
//     objective consistency.
//   - CheckILP re-checks a 0-1 incumbent against the original
//     constraints and bounds, recomputes its objective, and validates
//     the claimed bound and optimality gap.
//   - CheckAlignment re-checks an alignment resolution for legality
//     (exactly one template dimension per array dimension, no two
//     dimensions of one array sharing a partition) and recomputes the
//     cut weight.
//   - CheckSelection re-checks a layout selection for exactly one
//     candidate per phase and re-derives its total cost by an
//     independent walk of the node and edge costs.
//
// A failed check is a *Error carrying the pipeline stage (package
// stage), the claimed value and the recomputed value; package core
// promotes it to a *core.CertificationError at the API boundary.
package verify

import (
	"fmt"
	"math"

	"repro/internal/cag"
	"repro/internal/ilp"
	"repro/internal/layoutgraph"
	"repro/internal/lp"
	"repro/internal/stage"
)

// Tol is the relative tolerance of every numeric comparison: values
// are considered consistent when they differ by at most Tol times the
// magnitude of the quantities involved (with a floor of 1).
const Tol = 1e-6

// Error is a certification failure: an independently recomputed value
// disagrees with a solver's claim, or a claimed solution violates the
// original constraints.
type Error struct {
	// Stage names the pipeline stage whose product failed (package
	// stage constants).
	Stage string
	// Check names the specific certificate check that failed.
	Check string
	// Claimed and Recomputed are the disagreeing values (both zero for
	// structural violations, where Detail carries the specifics).
	Claimed    float64
	Recomputed float64
	// Detail pins the failure to a variable, constraint, node or phase.
	Detail string
}

func (e *Error) Error() string {
	s := fmt.Sprintf("verify: %s: %s: claimed %g, recomputed %g", e.Stage, e.Check, e.Claimed, e.Recomputed)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// closeTo reports whether a and b agree within Tol at the given scale.
func closeTo(a, b, scale float64) bool {
	return math.Abs(a-b) <= Tol*math.Max(1, math.Abs(scale))
}

// feasible checks x against every bound and constraint of p, returning
// a *Error attributed to st on the first violation.
func feasible(st string, p *lp.Problem, x []float64) error {
	if len(x) != p.NumVariables() {
		return &Error{Stage: st, Check: "solution-shape",
			Claimed: float64(len(x)), Recomputed: float64(p.NumVariables()),
			Detail: "solution vector length != variable count"}
	}
	for v := range x {
		lo, hi := p.Bounds(v)
		scale := math.Max(math.Abs(lo), math.Abs(hi))
		if math.IsInf(scale, 0) {
			scale = math.Abs(x[v])
		}
		if x[v] < lo-Tol*math.Max(1, scale) || x[v] > hi+Tol*math.Max(1, scale) {
			return &Error{Stage: st, Check: "variable-bounds", Claimed: x[v], Recomputed: lo,
				Detail: fmt.Sprintf("x[%d]=%g outside [%g,%g] (%s)", v, x[v], lo, hi, p.Name(v))}
		}
	}
	row := 0
	var verr error
	p.EachConstraint(func(c lp.Constraint) {
		if verr != nil {
			row++
			return
		}
		sum, scale := 0.0, math.Abs(c.RHS)
		for _, t := range c.Terms {
			sum += t.Coeff * x[t.Var]
			scale += math.Abs(t.Coeff * x[t.Var])
		}
		tol := Tol * math.Max(1, scale)
		violated := false
		switch c.Rel {
		case lp.LE:
			violated = sum > c.RHS+tol
		case lp.GE:
			violated = sum < c.RHS-tol
		case lp.EQ:
			violated = math.Abs(sum-c.RHS) > tol
		}
		if violated {
			verr = &Error{Stage: st, Check: "constraint", Claimed: c.RHS, Recomputed: sum,
				Detail: fmt.Sprintf("row %d: lhs %g %v rhs %g", row, sum, c.Rel, c.RHS)}
		}
		row++
	})
	return verr
}

// objective recomputes c'x from the problem's current coefficients.
func objective(p *lp.Problem, x []float64) float64 {
	sum := 0.0
	for v := range x {
		sum += p.Objective(v) * x[v]
	}
	return sum
}

// CheckLP certifies an LP solution: primal feasibility against every
// bound and constraint of p, and the reported objective against a
// recomputation of c'x.  Non-optimal solutions carry no solution
// vector and pass vacuously (refuting an infeasibility claim would
// need a dual certificate the simplex does not emit).
func CheckLP(p *lp.Problem, sol *lp.Solution) error {
	if sol.Status != lp.Optimal {
		return nil
	}
	if err := feasible(stage.ILPRoot, p, sol.X); err != nil {
		return err
	}
	if got := objective(p, sol.X); !closeTo(got, sol.Objective, got) {
		return &Error{Stage: stage.ILPRoot, Check: "lp-objective", Claimed: sol.Objective, Recomputed: got}
	}
	return nil
}

// CheckILP certifies a branch-and-bound result against the original
// 0-1 problem: the incumbent must be exactly integral on the binaries,
// satisfy every original bound and constraint, match its claimed
// objective under recomputation, respect the claimed lower bound, and
// report a Gap() consistent with the incumbent/bound pair.  Results
// without an incumbent (Infeasible, or a limit hit before any feasible
// point) pass vacuously.  Its signature matches ilp.Solver.Certify, so
// installing it certifies every solve at the source.
func CheckILP(p *lp.Problem, binaries []int, res *ilp.Result) error {
	if res.X == nil {
		return nil
	}
	for _, v := range binaries {
		if res.X[v] != 0 && res.X[v] != 1 {
			return &Error{Stage: stage.BBNode, Check: "integrality", Claimed: res.X[v],
				Detail: fmt.Sprintf("binary x[%d]=%g not in {0,1} (%s)", v, res.X[v], p.Name(v))}
		}
	}
	if err := feasible(stage.BBNode, p, res.X); err != nil {
		return err
	}
	obj := objective(p, res.X)
	if !closeTo(obj, res.Objective, obj) {
		return &Error{Stage: stage.ILPRoot, Check: "objective", Claimed: res.Objective, Recomputed: obj}
	}
	if !math.IsInf(res.Bound, 0) && !math.IsNaN(res.Bound) {
		if res.Objective < res.Bound && !closeTo(res.Objective, res.Bound, math.Max(math.Abs(res.Objective), math.Abs(res.Bound))) {
			return &Error{Stage: stage.ILPRoot, Check: "bound", Claimed: res.Bound, Recomputed: res.Objective,
				Detail: "incumbent objective below the claimed lower bound"}
		}
	}
	wantGap := -1.0
	switch {
	case res.Status == ilp.Optimal:
		wantGap = 0
	case math.IsInf(res.Bound, 0) || math.IsNaN(res.Bound):
		wantGap = -1
	default:
		wantGap = math.Abs(res.Objective-res.Bound) / math.Max(1, math.Abs(res.Objective))
		if wantGap < 0 {
			wantGap = 0
		}
	}
	if got := res.Gap(); !closeTo(got, wantGap, 1) {
		return &Error{Stage: stage.ILPRoot, Check: "gap", Claimed: got, Recomputed: wantGap}
	}
	return nil
}

// CheckAlignment certifies an alignment resolution against its CAG:
// every node of g must be oriented onto exactly one template dimension
// in [0,d), no two dimensions of one array may share a partition (the
// type-2 constraints of the 0-1 formulation), and the claimed cut
// weight must match an independent re-walk of the edges.  It applies
// to optimal, degraded and greedy resolutions alike — legality is not
// negotiable under degradation.
func CheckAlignment(g *cag.Graph, d int, res *cag.Resolution) error {
	for _, n := range g.Nodes() {
		k, ok := res.Assignment[n]
		if !ok {
			return &Error{Stage: stage.AlignSolve, Check: "orientation",
				Detail: fmt.Sprintf("node %v has no template dimension", n)}
		}
		if k < 0 || k >= d {
			return &Error{Stage: stage.AlignSolve, Check: "orientation", Claimed: float64(k), Recomputed: float64(d),
				Detail: fmt.Sprintf("node %v assigned dimension %d outside [0,%d)", n, k, d)}
		}
	}
	for _, a := range g.Arrays() {
		seen := map[int]int{}
		for dim := 0; dim < g.Rank(a); dim++ {
			k := res.Assignment[cag.Node{Array: a, Dim: dim}]
			if prev, dup := seen[k]; dup {
				return &Error{Stage: stage.AlignSolve, Check: "type-2",
					Detail: fmt.Sprintf("array %s dims %d and %d share partition %d", a, prev, dim, k)}
			}
			seen[k] = dim
		}
	}
	cut := 0.0
	for _, e := range g.Edges() {
		if res.Assignment[e.From] != res.Assignment[e.To] {
			cut += e.Weight
		}
	}
	if !closeTo(cut, res.CutWeight, cut) {
		return &Error{Stage: stage.AlignSolve, Check: "cut-weight", Claimed: res.CutWeight, Recomputed: cut}
	}
	return nil
}

// CheckSelection certifies a layout selection against its data layout
// graph: exactly one in-range candidate per phase and the claimed total
// cost matching an independent walk of the node costs and remap edges.  Degraded selections must certify
// too — their cost claim is exact even when optimality is forfeited.
func CheckSelection(g *layoutgraph.Graph, sel *layoutgraph.Selection) error {
	if len(sel.Choice) != len(g.NodeCost) {
		return &Error{Stage: stage.Selection, Check: "choice-shape",
			Claimed: float64(len(sel.Choice)), Recomputed: float64(len(g.NodeCost)),
			Detail: "one candidate choice required per phase"}
	}
	for p, i := range sel.Choice {
		if i < 0 || i >= len(g.NodeCost[p]) {
			return &Error{Stage: stage.Selection, Check: "choice-range", Claimed: float64(i),
				Detail: fmt.Sprintf("phase %d chose candidate %d of %d", p, i, len(g.NodeCost[p]))}
		}
	}
	total := 0.0
	for p, i := range sel.Choice {
		total += g.NodeCost[p][i]
	}
	for _, e := range g.Edges {
		total += e.Cost[sel.Choice[e.FromPhase]][sel.Choice[e.ToPhase]]
	}
	if !closeTo(total, sel.Cost, total) {
		return &Error{Stage: stage.Selection, Check: "total-cost", Claimed: sel.Cost, Recomputed: total}
	}
	return nil
}
