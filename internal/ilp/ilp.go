// Package ilp solves 0-1 integer programming problems to proven
// optimality by LP-based branch and bound.
//
// It is the stand-in for the CPLEX library the paper's prototype called
// into: the framework translates the two NP-complete subproblems —
// inter-dimensional alignment resolution and final data layout
// selection — into 0-1 problems and solves them here.  Branching uses
// depth-first diving (round-nearest child first) so a good incumbent is
// found early, and LP relaxation bounds prune the rest of the tree.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/lp"
	"repro/internal/stage"
)

// Status reports the outcome of a 0-1 solve.
type Status int8

const (
	// Optimal means a provably optimal integer solution was found.
	Optimal Status = iota
	// Infeasible means no 0-1 assignment satisfies the constraints.
	Infeasible
	// NodeLimit means the search was cut off by the node cap; Result
	// carries the best incumbent found, which may be suboptimal.
	NodeLimit
	// TimeLimit means the wall-clock budget (Deadline or the Context's
	// deadline) expired; Result carries the best incumbent
	// found, if any.
	TimeLimit
	// Canceled means the solver's Context was canceled mid-search;
	// Result carries the best incumbent found, if any.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case NodeLimit:
		return "node-limit"
	case TimeLimit:
		return "time-limit"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Limited reports whether the search was cut off before it could prove
// optimality or infeasibility; the result may still carry a feasible
// incumbent.
func (s Status) Limited() bool {
	return s == NodeLimit || s == TimeLimit || s == Canceled
}

// Result is the outcome of a branch-and-bound run.
type Result struct {
	Status    Status
	Objective float64       // objective of X (minimization)
	X         []float64     // one value per problem variable; binaries are exactly 0 or 1
	Bound     float64       // proven objective bound: -Inf/+Inf when unknown, Objective when optimal
	Nodes     int           // branch-and-bound nodes explored
	LPPivots  int           // total simplex iterations across all nodes
	LPWarm    int           // node LPs served by the warm dual-simplex path
	LPCold    int           // node LPs solved cold (two-phase from scratch)
	RCFixed   int           // binaries fixed by root reduced-cost fixing
	Presolved int           // binaries fixed by constraint-propagation presolve
	Duration  time.Duration // wall-clock solve time
}

// Gap returns the relative optimality gap between the incumbent
// objective and the best proven bound: 0 for a proven optimum, a
// negative value when no incumbent or no finite bound exists.
func (r *Result) Gap() float64 {
	if r.Status == Optimal {
		return 0
	}
	if r.X == nil || math.IsInf(r.Bound, 0) || math.IsNaN(r.Bound) {
		return -1
	}
	gap := math.Abs(r.Objective-r.Bound) / math.Max(1, math.Abs(r.Objective))
	if gap < 0 {
		gap = 0
	}
	return gap
}

// Solver configures branch and bound.  The zero value is usable.
type Solver struct {
	// Deadline is an absolute wall-clock cutoff shared by successive
	// Solve calls on the same Solver (zero means none).  The earlier of
	// Deadline and the Context's deadline applies; when it expires the
	// solve stops with Status TimeLimit and the best incumbent so far.
	Deadline time.Time
	// Context, when non-nil, cancels the solve: cancellation stops the
	// search with Status Canceled and the best incumbent so far.
	Context context.Context
	// Certify, when non-nil, independently re-checks every Result
	// before Solve returns it: the hook receives the original problem
	// (bounds and objective restored), the binary variable list and the
	// result, and a non-nil error fails the solve.  Package core
	// installs verify.CheckILP here when certification is enabled, so
	// every 0-1 solve in a run ships with a checked certificate.
	Certify func(p *lp.Problem, binaries []int, res *Result) error
	// CertifyLP, when non-nil, re-checks the root LP relaxation (the
	// solution whose objective becomes the global Bound).  Package core
	// installs verify.CheckLP here alongside Certify.
	CertifyLP func(p *lp.Problem, sol *lp.Solution) error
	// Fault is the chaos fault-injection plan (nil outside tests).  The
	// solver exposes two sites: stage.ILPRoot at solve entry (its
	// Corrupt action perturbs the incumbent objective) and stage.BBNode
	// at every branch-and-bound node (its Corrupt action flips one
	// binary of the incumbent).
	Fault *fault.Plan

	// Test seams, the reference arms of the package's own property
	// tests.  maxNodes overrides the node cap (0 means defaultMaxNodes).
	// coldStart runs every node LP two-phase from scratch, with
	// reduced-cost fixing (which needs the workspace's root duals) off.
	// noPresolve skips the constraint-propagation presolve, which never
	// changes the optimum.
	maxNodes   int
	coldStart  bool
	noPresolve bool
}

const (
	// defaultMaxNodes caps the branch-and-bound nodes of one Solve.
	defaultMaxNodes = 4_000_000
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// deadline resolves the effective absolute cutoff; the zero time means
// unlimited.
func (s *Solver) deadline() time.Time {
	d := s.Deadline
	if s.Context != nil {
		if t, ok := s.Context.Deadline(); ok && (d.IsZero() || t.Before(d)) {
			d = t
		}
	}
	return d
}

// ErrUnbounded is returned when the LP relaxation is unbounded, which a
// well-formed 0-1 model never is.
var ErrUnbounded = errors.New("ilp: LP relaxation unbounded")

// Solve minimizes p subject to the listed variables being 0 or 1.
// Bounds of the binary variables must be within [0,1]; other variables
// remain continuous.  The problem's bounds are restored before return.
//
// Node LPs run in ws: they reuse its buffers and warm-start from the
// parent basis, and the basis survives across Solve calls so repeated
// solves of same-shaped problems skip the cold start too.  A nil ws
// makes the solver use a private workspace for the duration of the
// call.  The workspace must not be shared between concurrent solves.
//
// With Fault armed, the stage.ILPRoot and stage.BBNode sites fire (see
// the field docs); with Certify set, the result is independently
// re-checked — after any injected corruption, so an injected wrong
// answer cannot escape a certifying solver.
func (s *Solver) Solve(p *lp.Problem, binaries []int, ws *lp.Workspace) (*Result, error) {
	if err := s.Fault.Err(stage.ILPRoot); err != nil {
		return nil, err
	}
	res, err := s.solve(p, binaries, ws)
	if err != nil {
		return nil, err
	}
	if res.X != nil {
		if s.Fault.ShouldCorrupt(stage.BBNode) && len(binaries) > 0 {
			v := binaries[0]
			res.X[v] = 1 - res.X[v]
		}
		res.Objective = s.Fault.Corrupt(stage.ILPRoot, res.Objective)
	}
	if s.Certify != nil {
		if cerr := s.Certify(p, binaries, res); cerr != nil {
			return nil, cerr
		}
	}
	return res, nil
}

// solve is the branch-and-bound body; it restores the problem's bounds
// and objective before returning, so Solve's certification hook sees
// the original problem.
func (s *Solver) solve(p *lp.Problem, binaries []int, ws *lp.Workspace) (*Result, error) {
	start := time.Now()
	maxNodes := s.maxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	// Save original bounds so the caller's problem is left untouched.
	savedLo := make([]float64, len(binaries))
	savedHi := make([]float64, len(binaries))
	for i, v := range binaries {
		savedLo[i], savedHi[i] = p.Bounds(v)
		if savedLo[i] < 0 || savedHi[i] > 1 {
			return nil, fmt.Errorf("ilp: binary variable %d has bounds [%g,%g] outside [0,1]", v, savedLo[i], savedHi[i])
		}
	}
	defer func() {
		for i, v := range binaries {
			p.SetBounds(v, savedLo[i], savedHi[i])
		}
	}()
	// Presolve before perturbation so activity arithmetic sees the
	// caller's true coefficients.  The fixings are implied constraints
	// (see presolve.go), so the optimum is unchanged; a proven
	// infeasibility skips branch and bound entirely (the deferred
	// restore still undoes any fixings already applied).
	presolved := 0
	if !s.noPresolve {
		var infeasible bool
		presolved, infeasible = presolve01(p, binaries)
		if infeasible {
			return &Result{
				Status:    Infeasible,
				Bound:     math.Inf(-1),
				Presolved: presolved,
				Duration:  time.Since(start),
			}, nil
		}
	}
	// Branch and bound must treat presolve fixings as the variables'
	// real bounds: reduced-cost fixing widens bounds back to its saved
	// spans, and a frame pop restores them, so handing bb the
	// pre-presolve bounds would silently undo the fixings mid-search.
	bbLo, bbHi := savedLo, savedHi
	if presolved > 0 {
		bbLo = make([]float64, len(binaries))
		bbHi = make([]float64, len(binaries))
		for i, v := range binaries {
			bbLo[i], bbHi[i] = p.Bounds(v)
		}
	}
	savedObj := make([]float64, len(binaries))
	for i, v := range binaries {
		savedObj[i] = p.Objective(v)
		p.SetObjective(v, savedObj[i]+PerturbEps*float64(i+1))
	}
	defer func() {
		for i, v := range binaries {
			p.SetObjective(v, savedObj[i])
		}
	}()
	if s.coldStart {
		ws = nil
	} else if ws == nil {
		ws = lp.NewWorkspace()
	}

	bb := &bbState{
		p:         p,
		binaries:  binaries,
		maxNodes:  maxNodes,
		deadline:  s.deadline(),
		ctx:       s.Context,
		best:      math.Inf(1),
		rootBound: math.Inf(-1),
		certifyLP: s.CertifyLP,
		fault:     s.Fault,
		ws:        ws,
		savedLo:   bbLo,
		savedHi:   bbHi,
		pendV:     -1,
	}
	bb.initBuffers()
	// The root LP bound is computed against the perturbed objective;
	// discount the largest possible total perturbation so the bound
	// stays valid for the original coefficients.
	k := float64(len(binaries))
	bb.boundSlack = PerturbEps * k * (k + 1) / 2
	warm0, cold0 := 0, 0
	if ws != nil {
		warm0, cold0 = ws.Warm, ws.Cold
	}
	err := bb.search()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Bound:     bb.rootBound,
		Nodes:     bb.nodes,
		LPPivots:  bb.pivots,
		RCFixed:   bb.rcFixed,
		Presolved: presolved,
		Duration:  time.Since(start),
	}
	if ws != nil {
		res.LPWarm, res.LPCold = ws.Warm-warm0, ws.Cold-cold0
	} else {
		res.LPCold = bb.nodes
	}
	if bb.bestX != nil {
		// Recompute the incumbent's objective with the unperturbed
		// coefficients.
		bb.best = 0
		for i, v := range binaries {
			bb.best += savedObj[i] * bb.bestX[v]
		}
		for v := 0; v < p.NumVariables(); v++ {
			if bb.binPos[v] < 0 {
				bb.best += p.Objective(v) * bb.bestX[v]
			}
		}
	}
	switch {
	case bb.bestX == nil:
		res.Status = Infeasible
		if bb.hitLimit {
			res.Status = bb.limit
		}
	case bb.hitLimit:
		res.Status = bb.limit
		res.Objective = bb.best
		res.X = bb.bestX
	default:
		res.Status = Optimal
		res.Objective = bb.best
		res.X = bb.bestX
		res.Bound = res.Objective
	}
	return res, nil
}

// nodeFrame is one open branching decision on the explicit search
// stack: the branch variable, the bounds to restore on backtrack, and
// the two child values in round-nearest order.  Keeping the children
// as a [2]float64 (instead of the old per-node slice literal) and the
// incumbent in a preallocated buffer removes all per-node garbage.
type nodeFrame struct {
	v                int        // branch variable
	pos              int        // its position in binaries
	savedLo, savedHi float64    // bounds to restore when the frame pops
	vals             [2]float64 // child values, round-nearest first
	next             int        // child currently being explored (-1 before the first)
	parentObj        float64    // parent node's LP objective (pseudocost updates)
	xv               float64    // parent's fractional LP value of v
}

type bbState struct {
	p          *lp.Problem
	binaries   []int
	maxNodes   int
	deadline   time.Time // zero means none
	ctx        context.Context
	nodes      int
	pivots     int
	best       float64
	bestX      []float64
	rootBound  float64 // root LP relaxation objective (global lower bound)
	boundSlack float64 // perturbation discount applied to rootBound
	hitLimit   bool
	limit      Status // which limit fired (valid when hitLimit)
	certifyLP  func(*lp.Problem, *lp.Solution) error
	fault      *fault.Plan

	ws               *lp.Workspace // warm-start workspace (nil under coldStart)
	savedLo, savedHi []float64     // original binary bounds, per position
	stack            []nodeFrame   // explicit DFS stack
	binPos           []int32       // variable index -> position in binaries (-1 otherwise)
	fixed            []int8        // per position: -1 unfixed, else reduced-cost-fixed value
	branched         []bool        // per position: bound-fixed by an active frame
	rootObj          float64       // perturbed root LP objective
	rootD            []float64     // per position: root reduced cost (warm path only)
	haveRoot         bool          // rootObj/rootD captured
	rcFixed          int           // reduced-cost fixing count
	pcUp, pcDown     []float64     // pseudocosts: objective gain per unit movement
	pcUpN, pcDownN   []int         // observation counts behind the running means
	pendV            int           // bound change pending for the next node LP (-1 none)
	pendVal          float64
}

// initBuffers allocates the per-solve state once, so the node loop
// itself allocates nothing.
func (bb *bbState) initBuffers() {
	k := len(bb.binaries)
	bb.binPos = make([]int32, bb.p.NumVariables())
	for v := range bb.binPos {
		bb.binPos[v] = -1
	}
	for i, v := range bb.binaries {
		bb.binPos[v] = int32(i)
	}
	bb.fixed = make([]int8, k)
	for i := range bb.fixed {
		bb.fixed[i] = -1
	}
	bb.branched = make([]bool, k)
	bb.rootD = make([]float64, k)
	bb.pcUp = make([]float64, k)
	bb.pcDown = make([]float64, k)
	bb.pcUpN = make([]int, k)
	bb.pcDownN = make([]int, k)
	for i, v := range bb.binaries {
		// Pseudocost prior: the (perturbed) objective coefficient is the
		// exact per-unit cost when the variable appears in no binding
		// constraint, and a deterministic, scale-aware guess otherwise.
		c := math.Abs(bb.p.Objective(v))
		if c == 0 {
			c = PerturbEps
		}
		bb.pcUp[i], bb.pcDown[i] = c, c
	}
	bb.stack = make([]nodeFrame, 0, k)
}

// setLimit records the first limit that fired; later limits (e.g. the
// node cap tripping while unwinding from a timeout) do not overwrite
// it.
func (bb *bbState) setLimit(s Status) {
	if !bb.hitLimit {
		bb.hitLimit = true
		bb.limit = s
	}
}

// expired checks the wall-clock budget and context, recording the
// corresponding limit status.  It reports whether the search must stop.
func (bb *bbState) expired() bool {
	if bb.hitLimit {
		return true
	}
	if bb.ctx != nil && bb.ctx.Err() != nil {
		bb.setLimit(Canceled)
		return true
	}
	if !bb.deadline.IsZero() && !time.Now().Before(bb.deadline) {
		bb.setLimit(TimeLimit)
		return true
	}
	return false
}

// search explores the tree depth-first from the current bounds,
// driving an explicit node stack instead of recursion so every child
// LP can warm-start from its parent's basis through the workspace.
// Node-entry checks (limits, node cap, fault site) run in the same
// order the recursive dive used, so cutoff semantics are unchanged.
func (bb *bbState) search() error {
	for next := true; next; {
		if bb.hitLimit || bb.expired() {
			return nil
		}
		if bb.nodes >= bb.maxNodes {
			bb.setLimit(NodeLimit)
			return nil
		}
		if err := bb.fault.Err(stage.BBNode); err != nil {
			return err
		}
		bb.nodes++
		sol, err := bb.solveLP()
		if errors.Is(err, lp.ErrCanceled) {
			// expired already recorded which limit fired.
			return nil
		}
		if err != nil {
			return err
		}
		bb.pivots += sol.Iterations
		if bb.nodes == 1 && sol.Status == lp.Optimal {
			bb.rootObj = sol.Objective
			bb.rootBound = sol.Objective - bb.boundSlack
			bb.captureRootDuals()
			if bb.certifyLP != nil {
				if cerr := bb.certifyLP(bb.p, sol); cerr != nil {
					return cerr
				}
			}
		}
		if sol.Status == lp.Optimal && len(bb.stack) > 0 {
			bb.updatePseudocost(sol.Objective)
		}
		prune := false
		switch sol.Status {
		case lp.Infeasible:
			prune = true
		case lp.Unbounded:
			return ErrUnbounded
		default:
			// Bound: the LP relaxation is a lower bound on any completion.
			prune = sol.Objective >= bb.best-1e-9
		}
		if !prune {
			branch := bb.pickBranch(sol)
			if branch < 0 {
				// Integral: new incumbent; retighten the fixing net.
				bb.foundIncumbent(sol)
				prune = true
			} else {
				bb.push(branch, sol)
			}
		}
		next = bb.backtrack()
	}
	return nil
}

// solveLP solves the LP relaxation at the current bounds.  With a
// workspace the pending single-bound change goes through
// ReoptimizeBounds (dual-simplex warm start from the parent basis);
// without one it is applied directly and the node runs the cold
// two-phase solver, exactly as the recursive dive did.
func (bb *bbState) solveLP() (*lp.Solution, error) {
	if bb.pendV >= 0 {
		v, val := bb.pendV, bb.pendVal
		bb.pendV = -1
		if bb.ws != nil {
			return bb.ws.ReoptimizeBounds(bb.p, v, val, val, bb.expired)
		}
		bb.p.SetBounds(v, val, val)
		return bb.p.SolveAbort(bb.expired)
	}
	if bb.ws != nil {
		return bb.ws.Reoptimize(bb.p, bb.expired)
	}
	return bb.p.SolveAbort(bb.expired)
}

// pickBranch selects the branching binary among the fractional ones by
// pseudocost product score (estimated objective gains of the down and
// up children), breaking ties toward the larger fractionality and then
// the smaller variable index.  Returns -1 when the solution is
// integral.
func (bb *bbState) pickBranch(sol *lp.Solution) int {
	branch := -1
	bestScore, bestFrac := 0.0, 0.0
	for i, v := range bb.binaries {
		x := sol.X[v]
		f := math.Abs(x - math.Round(x))
		if f <= intTol {
			continue
		}
		const floor = 1e-12
		down := math.Max(bb.pcDown[i]*x, floor)
		up := math.Max(bb.pcUp[i]*(1-x), floor)
		score := down * up
		if branch < 0 || score > bestScore*(1+1e-12) ||
			(score >= bestScore*(1-1e-12) && f > bestFrac+1e-12) {
			branch, bestScore, bestFrac = v, score, f
		}
	}
	return branch
}

// updatePseudocost folds the just-solved child's observed LP gain into
// the running pseudocost mean of its branch variable and direction.
func (bb *bbState) updatePseudocost(obj float64) {
	fr := &bb.stack[len(bb.stack)-1]
	gain := obj - fr.parentObj
	if gain < 0 {
		gain = 0
	}
	if fr.vals[fr.next] >= 0.5 {
		if f := 1 - fr.xv; f > 1e-9 {
			n := float64(bb.pcUpN[fr.pos])
			bb.pcUp[fr.pos] = (bb.pcUp[fr.pos]*n + gain/f) / (n + 1)
			bb.pcUpN[fr.pos]++
		}
	} else {
		if f := fr.xv; f > 1e-9 {
			n := float64(bb.pcDownN[fr.pos])
			bb.pcDown[fr.pos] = (bb.pcDown[fr.pos]*n + gain/f) / (n + 1)
			bb.pcDownN[fr.pos]++
		}
	}
}

// foundIncumbent installs sol as the new best integral solution and
// re-runs reduced-cost fixing against the improved cutoff.
func (bb *bbState) foundIncumbent(sol *lp.Solution) {
	bb.best = sol.Objective
	if bb.bestX == nil {
		bb.bestX = make([]float64, len(sol.X))
	}
	copy(bb.bestX, sol.X)
	for _, v := range bb.binaries {
		bb.bestX[v] = math.Round(bb.bestX[v])
	}
	bb.reducedCostFix()
}

// captureRootDuals snapshots the root LP reduced costs of the binaries
// for reduced-cost fixing.  Only the workspace path exposes duals;
// under coldStart fixing stays off.
func (bb *bbState) captureRootDuals() {
	if bb.ws == nil {
		return
	}
	for i, v := range bb.binaries {
		bb.rootD[i] = bb.ws.ReducedCost(v)
	}
	bb.haveRoot = true
}

// reducedCostFix fixes every still-free binary whose root reduced cost
// proves the other side of its root bound cannot beat the incumbent:
// rootObj + |d_j|·span ≥ best − 1e-9, the exact test node pruning
// applies, in the same perturbed objective space — so fixing removes
// only subtrees the search would prune anyway and the returned optimum
// is unchanged.  It reruns on every incumbent improvement (the cutoff
// only tightens, so earlier fixes stay valid).
func (bb *bbState) reducedCostFix() {
	if !bb.haveRoot || math.IsInf(bb.best, 1) {
		return
	}
	for i, v := range bb.binaries {
		if bb.fixed[i] >= 0 || bb.savedLo[i] == bb.savedHi[i] {
			continue
		}
		d := bb.rootD[i]
		span := bb.savedHi[i] - bb.savedLo[i]
		var fix float64
		switch {
		case d > 1e-9 && bb.rootObj+d*span >= bb.best-1e-9:
			fix = bb.savedLo[i] // leaving its root lower bound prices out
		case d < -1e-9 && bb.rootObj-d*span >= bb.best-1e-9:
			fix = bb.savedHi[i] // leaving its root upper bound prices out
		default:
			continue
		}
		bb.fixed[i] = int8(fix)
		bb.rcFixed++
		if !bb.branched[i] {
			// Actively branched variables keep their branch bounds; the
			// fix is applied when their frame pops (see backtrack).
			bb.p.SetBounds(v, fix, fix)
		}
	}
}

// push opens a branching frame for variable branch, children ordered
// round-nearest first (the incumbent-finding dive order).
func (bb *bbState) push(branch int, sol *lp.Solution) {
	pos := int(bb.binPos[branch])
	lo, hi := bb.p.Bounds(branch)
	fr := nodeFrame{
		v: branch, pos: pos,
		savedLo: lo, savedHi: hi,
		next:      -1,
		parentObj: sol.Objective,
		xv:        sol.X[branch],
	}
	if fr.xv < 0.5 {
		fr.vals = [2]float64{0, 1}
	} else {
		fr.vals = [2]float64{1, 0}
	}
	bb.branched[pos] = true
	bb.stack = append(bb.stack, fr)
}

// backtrack advances the deepest frame to its next child, recording
// the pending bound change for solveLP, and pops exhausted frames
// (restoring their saved bounds, or the reduced-cost-fixed value when
// fixing caught up with an actively branched variable).  It reports
// whether another node remains to solve.
func (bb *bbState) backtrack() bool {
	for len(bb.stack) > 0 {
		fr := &bb.stack[len(bb.stack)-1]
		if fr.next++; fr.next < 2 {
			bb.pendV, bb.pendVal = fr.v, fr.vals[fr.next]
			return true
		}
		bb.branched[fr.pos] = false
		if f := bb.fixed[fr.pos]; f >= 0 {
			bb.p.SetBounds(fr.v, float64(f), float64(f))
		} else {
			bb.p.SetBounds(fr.v, fr.savedLo, fr.savedHi)
		}
		bb.stack = bb.stack[:len(bb.stack)-1]
	}
	return false
}

// PerturbEps is the per-variable anti-degeneracy increment: binary
// i's objective coefficient is raised by PerturbEps*(i+1) (in
// binaries-slice order) so alternative optima are strictly ordered and
// the bound actually prunes; the reported objective is recomputed with
// the original coefficients.  Exported so exact special-case solvers
// (the tree DP in package layoutgraph) can minimize the identical
// perturbed objective and land on the same unique argmin as branch and
// bound.
const PerturbEps = 1e-6
