package lp

import "math"

// Workspace is persistent solver state for a sequence of related
// solves: it owns a reusable tableau (dense rows, bounds, statuses,
// reduced costs) plus the solution buffers, so repeated solves of
// same-shaped problems allocate nothing in steady state.
//
// Its reason for existing is ReoptimizeBounds: after an Optimal solve
// the workspace keeps the optimal basis together with rhs = B⁻¹b, and
// a later solve of the *same* problem under changed variable bounds —
// the branch-and-bound child-node case — restarts from that basis with
// the bounded-variable dual simplex instead of redoing Phase 1+2 from
// scratch.  When the dual path cannot be used (different problem,
// changed objective, a free variable with nonzero reduced cost, a
// stall/cycle, numerical drift) the workspace transparently falls back
// to a cold two-phase solve, so a warm call is never less correct than
// Solve — only cheaper.
//
// A Workspace is not safe for concurrent use; give each goroutine its
// own (align.BuildSearchSpaces keeps one per call).
type Workspace struct {
	tb    tableau
	p     *Problem // problem the tableau state belongs to
	ready bool     // tb holds an Optimal basis with phase-2 reduced costs

	x   []float64 // reusable solution buffer
	sol Solution  // reusable solution header

	// Cumulative effort counters, read by callers for solver stats.
	Warm   int // solves served by the warm dual-simplex path
	Cold   int // solves that ran (or fell back to) the cold two-phase path
	Pivots int // total simplex pivots across both paths

	// warmCap overrides the dual-simplex pivot cap (tests force tiny
	// caps to exercise the cold fallback).  0 means automatic.
	warmCap int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Solve runs a cold two-phase solve of p inside the workspace, reusing
// its buffers.  The returned Solution (including X) is owned by the
// workspace and valid only until the next call.
func (ws *Workspace) Solve(p *Problem, abort func() bool) (*Solution, error) {
	return ws.cold(p, abort)
}

// ReoptimizeBounds sets variable v's bounds to [lo, hi] on p and
// reoptimizes, warm-starting from the previous basis when possible.
// It is the branch-and-bound entry point: a child node differs from
// its parent by exactly this one bound change.
func (ws *Workspace) ReoptimizeBounds(p *Problem, v int, lo, hi float64, abort func() bool) (*Solution, error) {
	p.SetBounds(v, lo, hi)
	return ws.Reoptimize(p, abort)
}

// Reoptimize solves p, warm-starting from the workspace's previous
// optimal basis when p is the same problem (same rows and objective)
// with possibly different variable bounds; otherwise it solves cold.
// The returned Solution is owned by the workspace and valid only until
// the next call.
func (ws *Workspace) Reoptimize(p *Problem, abort func() bool) (*Solution, error) {
	if !ws.canWarm(p) {
		return ws.cold(p, abort)
	}
	sol, ok, err := ws.warm(p, abort)
	if err != nil {
		ws.ready = false
		return nil, err
	}
	if !ok {
		return ws.cold(p, abort)
	}
	return sol, nil
}

// ReducedCost returns the reduced cost of structural variable v at the
// last Optimal solve (0 for basic variables).  At optimality a
// positive value means v rests at its lower bound and raising it by t
// costs at least t·d in objective — the bound behind reduced-cost
// fixing in package ilp.  Valid until the next call.
func (ws *Workspace) ReducedCost(v int) float64 {
	if !ws.ready || v >= ws.tb.nStruct {
		return 0
	}
	if ws.tb.status[v] == inBasis {
		return 0
	}
	return ws.tb.d[v]
}

// canWarm reports whether the tableau's basis is reusable for p: the
// same problem object, unchanged shape and unchanged objective (bounds
// are resynced by warm).  The objective comparison is exact: callers
// that re-derive identical coefficients (e.g. the ilp perturbation)
// still warm-start.
func (ws *Workspace) canWarm(p *Problem) bool {
	if !ws.ready || ws.p != p {
		return false
	}
	tb := &ws.tb
	if len(p.rows) != tb.m || len(p.obj) != tb.nStruct {
		return false
	}
	for j, c := range p.obj {
		if tb.cost[j] != c {
			return false
		}
	}
	return true
}

// cold runs a from-scratch two-phase solve in the workspace's tableau.
func (ws *Workspace) cold(p *Problem, abort func() bool) (*Solution, error) {
	ws.ready = false
	ws.p = p
	tb := &ws.tb
	tb.init(p)
	tb.abort = abort
	st, err := tb.runTwoPhase(p)
	if err != nil {
		return nil, err
	}
	ws.Cold++
	ws.Pivots += tb.iters
	if st == Optimal {
		ws.ready = true
	}
	return ws.finish(st, tb.iters)
}

// finish assembles the reusable Solution for the current basis.
func (ws *Workspace) finish(st Status, iters int) (*Solution, error) {
	ws.sol = Solution{Status: st, Iterations: iters}
	if st != Optimal {
		return &ws.sol, nil
	}
	ws.x = resizeF(ws.x, ws.tb.nStruct)
	ws.tb.extractInto(ws.x)
	obj := 0.0
	for j, c := range ws.p.obj {
		obj += c * ws.x[j]
	}
	ws.sol.Objective = obj
	ws.sol.X = ws.x
	return &ws.sol, nil
}

// warm attempts a dual-simplex reoptimization from the previous
// optimal basis.  ok=false means the warm path could not finish
// (unusable rest side, pivot cap, numerical drift) and the caller must
// fall back to cold; the tableau is left dual-feasible either way.
func (ws *Workspace) warm(p *Problem, abort func() bool) (sol *Solution, ok bool, err error) {
	tb := &ws.tb
	// Reduced costs drift under incremental pivot updates; one O(mn)
	// refresh per warm start keeps the rest-side choices and the dual
	// ratio tests sharp.
	tb.refreshReducedCosts()
	// Sync structural bounds from p and flip every nonbasic structural
	// variable to the bound its reduced-cost sign asks for.  Bound
	// flips keep dual feasibility trivially; only a free variable with
	// a nonzero reduced cost has no dual-feasible rest point.
	for j := 0; j < tb.nStruct; j++ {
		tb.lo[j], tb.hi[j] = p.lo[j], p.hi[j]
		if tb.status[j] == inBasis {
			continue
		}
		if !tb.restSide(j) {
			return nil, false, nil
		}
	}
	// Recompute basic values from the maintained rhs = B⁻¹b:
	// xB = rhs − Σ_{nonbasic j} T[·][j]·x_j.  Slacks and artificials
	// rest at zero, so only nonzero-valued structural columns iterate.
	copy(tb.xB, tb.rhs)
	for j := 0; j < tb.nStruct; j++ {
		if tb.status[j] == inBasis {
			continue
		}
		v := tb.nonbasicValue(j)
		if v == 0 {
			continue
		}
		for i := 0; i < tb.m; i++ {
			if a := tb.t[i][j]; a != 0 {
				tb.xB[i] -= a * v
			}
		}
	}
	// Dual simplex: repair primal feasibility while keeping dual
	// feasibility, pivoting the most-violated basic variable out to
	// its violated bound each step.
	st, iters, derr := ws.dualSimplex(abort)
	if derr != nil {
		return nil, false, derr
	}
	ws.Pivots += iters
	switch st {
	case dualOptimal:
		if !tb.verifyOptimal() {
			return nil, false, nil
		}
		ws.Warm++
		s, ferr := ws.finish(Optimal, iters)
		return s, true, ferr
	case dualInfeasible:
		// A violated row with no eligible entering column proves primal
		// infeasibility under the current bounds.  The basis stays
		// dual-feasible and remains warm-startable after the caller
		// relaxes bounds again.
		ws.Warm++
		s, ferr := ws.finish(Infeasible, iters)
		return s, true, ferr
	default: // dualStalled: pivot cap hit — cycling or heavy degeneracy
		return nil, false, nil
	}
}

// restSide moves nonbasic structural variable j to the rest side its
// reduced cost demands, reporting false when no dual-feasible finite
// rest point exists (which forces a cold solve).
func (tb *tableau) restSide(j int) bool {
	d := tb.d[j]
	lo, hi := tb.lo[j], tb.hi[j]
	switch {
	case lo == hi:
		// Fixed column: any reduced cost is dual-feasible.
		tb.status[j] = atLower
	case d > eps:
		if math.IsInf(lo, -1) {
			return false
		}
		tb.status[j] = atLower
	case d < -eps:
		if math.IsInf(hi, 1) {
			return false
		}
		tb.status[j] = atUpper
	default:
		// Dual-degenerate: any rest point works; prefer a finite bound,
		// keeping the current side when it is still finite.
		switch {
		case tb.status[j] == atLower && !math.IsInf(lo, -1):
		case tb.status[j] == atUpper && !math.IsInf(hi, 1):
		case !math.IsInf(lo, -1):
			tb.status[j] = atLower
		case !math.IsInf(hi, 1):
			tb.status[j] = atUpper
		default:
			tb.status[j] = atFree
		}
	}
	return true
}

// dualSimplex outcomes.
type dualOutcome int8

const (
	dualOptimal    dualOutcome = iota // primal feasible: optimal basis
	dualInfeasible                    // a row proves primal infeasibility
	dualStalled                       // pivot cap hit: fall back to cold
)

// dualSimplex restores primal feasibility of the basic solution while
// maintaining dual feasibility.  Each iteration takes the most
// violated basic variable as the leaving row and the min-|d/α|
// eligible nonbasic as the entering column (ties prefer the larger
// pivot magnitude for stability).
func (ws *Workspace) dualSimplex(abort func() bool) (dualOutcome, int, error) {
	tb := &ws.tb
	limit := ws.warmCap
	if limit == 0 {
		limit = 20*(tb.m+tb.nStruct) + 200
	}
	for iter := 0; ; iter++ {
		if abort != nil && iter%abortCheckInterval == 0 && abort() {
			return dualStalled, iter, ErrCanceled
		}
		// Leaving row: most violated basic variable.
		r := -1
		worst := eps
		var delta float64 // xB[r] − violated bound: <0 below lower, >0 above upper
		for i := 0; i < tb.m; i++ {
			b := tb.basis[i]
			if v := tb.lo[b] - tb.xB[i]; v > worst {
				r, worst, delta = i, v, tb.xB[i]-tb.lo[b]
			}
			if v := tb.xB[i] - tb.hi[b]; v > worst {
				r, worst, delta = i, v, tb.xB[i]-tb.hi[b]
			}
		}
		if r < 0 {
			return dualOptimal, iter, nil
		}
		if iter >= limit {
			return dualStalled, iter, nil
		}
		j := tb.dualEntering(r, delta)
		if j < 0 {
			return dualInfeasible, iter, nil
		}
		alpha := tb.t[r][j]
		// Step the entering variable so the leaving one lands exactly on
		// its violated bound; other basics move by −α_i · step.
		step := delta / alpha
		enterVal := tb.nonbasicValue(j) + step
		for i := 0; i < tb.m; i++ {
			if i == r {
				continue
			}
			if a := tb.t[i][j]; a != 0 {
				tb.xB[i] -= a * step
			}
		}
		leaving := tb.basis[r]
		if delta < 0 {
			tb.status[leaving] = atLower
		} else {
			tb.status[leaving] = atUpper
		}
		tb.pivot(r, j, enterVal)
	}
}

// dualEntering runs the bounded-variable dual ratio test for leaving
// row r with violation delta: among nonbasic columns whose movement in
// their feasible direction pushes the leaving basic toward its bound,
// pick the one minimizing |d/α| so every reduced cost keeps its
// dual-feasible sign after the pivot.  Returns −1 when no column is
// eligible, which proves primal infeasibility of the row.
func (tb *tableau) dualEntering(r int, delta float64) int {
	row := tb.t[r]
	best := -1
	bestRatio := math.Inf(1)
	var bestAbs float64
	for j, st := range tb.status {
		if st == inBasis || tb.lo[j] == tb.hi[j] {
			continue // basic, fixed, or pinned artificial: cannot enter
		}
		a := row[j]
		abs := a
		if abs < 0 {
			abs = -abs
		}
		if abs <= pivotEps {
			continue
		}
		// delta < 0: the leaving basic must increase, so the entering
		// column's feasible movement needs α of the opposite sign;
		// delta > 0 mirrors.  Free variables can move either way.
		eligible := st == atFree
		switch st {
		case atLower: // can only increase
			eligible = (delta < 0 && a < 0) || (delta > 0 && a > 0)
		case atUpper: // can only decrease
			eligible = (delta < 0 && a > 0) || (delta > 0 && a < 0)
		}
		if !eligible {
			continue
		}
		ratio := tb.d[j] / a
		if ratio < 0 {
			ratio = -ratio
		}
		if ratio < bestRatio-1e-9 || (ratio < bestRatio+1e-9 && abs > bestAbs) {
			best, bestRatio, bestAbs = j, ratio, abs
		}
	}
	return best
}

// verifyOptimal double-checks the terminal basis: basics within bounds
// and nonbasic reduced costs with dual-feasible signs.  A failure —
// accumulated numerical drift — sends the caller to the cold path
// instead of shipping a wrong optimum.
func (tb *tableau) verifyOptimal() bool {
	const tol = 1e-7
	for i := 0; i < tb.m; i++ {
		b := tb.basis[i]
		if tb.xB[i] < tb.lo[b]-tol || tb.xB[i] > tb.hi[b]+tol {
			return false
		}
	}
	for j, st := range tb.status {
		if st == inBasis || tb.lo[j] == tb.hi[j] {
			continue
		}
		switch st {
		case atLower:
			if tb.d[j] < -tol {
				return false
			}
		case atUpper:
			if tb.d[j] > tol {
				return false
			}
		default: // atFree
			if tb.d[j] < -tol || tb.d[j] > tol {
				return false
			}
		}
	}
	return true
}
