// Package lp implements a dense, two-phase, bounded-variable primal
// simplex solver for linear programs.
//
// The package is the linear-programming substrate for the 0-1 integer
// programming solver in package ilp, which in turn stands in for the
// CPLEX library used by the paper's prototype.  Problems are stated as
//
//	minimize    c'x
//	subject to  A x  (<=, =, >=)  b
//	            lo <= x <= hi
//
// where individual bounds may be infinite.  The solver handles the
// variable bounds implicitly (nonbasic variables may rest at either
// bound), so 0-1 relaxations do not pay for explicit x <= 1 rows.
//
// Two entry points share the same tableau machinery.  Problem.Solve is
// the one-shot cold path: Phase 1 + Phase 2 from a fresh tableau.
// Workspace is the persistent path for solve sequences: it keeps the
// tableau, basis and rhs = B⁻¹b alive between calls, solves repeated
// same-shaped problems without allocating, and — the point of it —
// Workspace.ReoptimizeBounds reoptimizes after a variable-bound change
// with the bounded-variable dual simplex warm-started from the
// previous optimal basis, which is how package ilp prices
// branch-and-bound child nodes at a few pivots instead of a full
// two-phase solve.  Every warm answer is verified against bounds and
// reduced-cost signs, with a transparent cold fallback on any doubt.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int8

const (
	// LE is "less than or equal".
	LE Relation = iota
	// EQ is "equal".
	EQ
	// GE is "greater than or equal".
	GE
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Relation(%d)", int8(r))
}

// Inf is positive infinity, usable as a variable bound.
var Inf = math.Inf(1)

// Term is one coefficient of a sparse constraint row.
type Term struct {
	Var   int     // variable index
	Coeff float64 // coefficient
}

// Constraint is a single linear constraint in sparse form.
type Constraint struct {
	Terms []Term
	Rel   Relation
	RHS   float64
}

// Problem is a linear program under construction.  The zero value is an
// empty problem; add variables before referencing them in constraints.
type Problem struct {
	obj  []float64
	lo   []float64
	hi   []float64
	rows []Constraint
	name []string
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a variable with the given objective coefficient and
// bounds and returns its index.  Bounds may be ±Inf.
func (p *Problem) AddVariable(obj, lo, hi float64) int {
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.name = append(p.name, "")
	return len(p.obj) - 1
}

// AddBinary adds a variable with bounds [0,1] and the given objective
// coefficient, returning its index.  The LP treats it as continuous;
// integrality is enforced by package ilp.
func (p *Problem) AddBinary(obj float64) int { return p.AddVariable(obj, 0, 1) }

// SetName attaches a debugging name to variable v.
func (p *Problem) SetName(v int, name string) { p.name[v] = name }

// Name returns the debugging name of variable v (may be empty).
func (p *Problem) Name(v int) string { return p.name[v] }

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// AddConstraint appends the constraint sum(terms) rel rhs.
func (p *Problem) AddConstraint(terms []Term, rel Relation, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.rows = append(p.rows, Constraint{Terms: cp, Rel: rel, RHS: rhs})
}

// EachConstraint calls f for every constraint in order.  The callback
// must not retain or mutate the term slice.
func (p *Problem) EachConstraint(f func(Constraint)) {
	for _, c := range p.rows {
		f(c)
	}
}

// Bounds reports the bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetBounds replaces the bounds of variable v.  It is used by the
// branch-and-bound driver to fix 0-1 variables.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	p.lo[v] = lo
	p.hi[v] = hi
}

// Objective returns the objective coefficient of variable v.
func (p *Problem) Objective(v int) float64 { return p.obj[v] }

// SetObjective replaces the objective coefficient of variable v.
func (p *Problem) SetObjective(v int, c float64) { p.obj[v] = c }

// Clone returns a deep copy of the problem.  Constraint rows are shared
// structurally but never mutated by the solver, so only the bound and
// objective vectors are duplicated.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		obj:  append([]float64(nil), p.obj...),
		lo:   append([]float64(nil), p.lo...),
		hi:   append([]float64(nil), p.hi...),
		rows: p.rows,
		name: p.name,
	}
	return q
}

// Status reports the outcome of a solve.
type Status int8

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints and bounds.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int8(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64 // value per variable; valid only when Status == Optimal
	Iterations int       // simplex pivots performed
}

// ErrIterationLimit is returned when the simplex exceeds its pivot
// budget, which indicates a cycling or degeneracy pathology.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// ErrCanceled is returned by SolveAbort when the abort callback
// reported cancellation before the solve completed.
var ErrCanceled = errors.New("lp: solve canceled")

const (
	eps      = 1e-9 // feasibility / reduced-cost tolerance
	pivotEps = 1e-8 // minimum acceptable pivot magnitude
)
