// Package dep performs data dependence analysis on phase loop nests.
//
// The execution model of §2.3/§3 uses data dependence information to
// detect processor synchronization: a loop-carried flow dependence
// along a distributed array dimension serializes processors into a
// pipeline whose granularity depends on the nest level of the carrying
// loop.  This package computes, per phase:
//
//   - the loop nest (variables, trip counts, nest levels);
//   - per-assignment reference information with affine subscripts;
//   - loop-carried flow dependences with distance vectors (ZIV and
//     strong-SIV subscript tests);
//   - reduction statements (s = s ⊕ expr);
//   - operation counts for the computation cost model.
package dep

import (
	"sort"

	"repro/internal/fortran"
)

// LoopInfo describes one loop of a phase nest.
type LoopInfo struct {
	Var   string
	Level int // 0 = outermost loop of the phase
	Trip  int
	Lo    int  // constant lower bound when known
	LoOK  bool // Lo valid
	Step  int  // constant step (+1 default; negative for descending loops)
	Do    *fortran.Do
}

// SubInfo is the analyzed form of one subscript expression.
type SubInfo struct {
	Affine fortran.Affine
	OK     bool   // affine at all
	Var    string // single loop variable, when the form is c*Var+Const
	Coeff  int
	Const  int
	Single bool // exactly one variable
}

// RefInfo is an analyzed array reference.
type RefInfo struct {
	Ref   *fortran.Ref
	Array *fortran.Array
	Subs  []SubInfo
}

// OpCount tallies arithmetic operations for the cost model.
type OpCount struct {
	AddSub    int
	Mul       int
	Div       int
	Sqrt      int
	Intrinsic int // exp/log/trig and friends
	Pow       int
	Loads     int // array element reads
	Stores    int // array element writes
}

// AssignInfo is an analyzed assignment within a phase.
type AssignInfo struct {
	Stmt *fortran.Assign
	// Loops are the enclosing phase loops, outermost first.
	Loops []*LoopInfo
	// LHS is nil when the target is a scalar.
	LHS *RefInfo
	// ScalarLHS names a scalar target ("" for array targets).
	ScalarLHS string
	// Reads are the array references on the right-hand side (including
	// subscript expressions).
	Reads []*RefInfo
	// IsReduction marks s = s ⊕ f(...) accumulation statements.
	IsReduction bool
	// Guard is the product of branch probabilities protecting the
	// statement inside the phase (1 when unconditional).
	Guard float64
	// Iters is the iteration count: the product of enclosing trips.
	Iters float64
	// Ops counts right-hand side operations per execution.
	Ops OpCount
}

// Dependence is a loop-carried flow dependence within a phase.
type Dependence struct {
	Array string
	// Distances maps loop variables to dependence distances; only
	// nonzero entries are kept.  Unknown distances are recorded in
	// Unknown instead.
	Distances map[string]int
	// Unknown lists loop variables whose distance could not be
	// determined (non-affine or variable-coupled subscripts).
	Unknown []string
	// CarrierVar is the outermost loop variable with nonzero (or
	// unknown) distance; CarrierLevel is its nest level.
	CarrierVar   string
	CarrierLevel int
	// ArrayDims lists the array dimensions (0-based) in which the
	// write and read subscripts differ — the dimensions whose
	// distribution makes the dependence cross processors.
	ArrayDims []int
}

// PhaseInfo is the analysis result for one phase.
type PhaseInfo struct {
	// Nest is the perfect-nest spine of the phase, outermost first:
	// the chain of loops from the phase root following single-loop
	// bodies.  Assignments record their own enclosing loops, which may
	// extend beyond the spine.
	Nest    []*LoopInfo
	Assigns []*AssignInfo
	// WriteSet and ReadSet name arrays written/read in the phase.
	WriteSet map[string]bool
	ReadSet  map[string]bool
}

// Analyze inspects the statements of one phase.
func Analyze(u *fortran.Unit, stmts []fortran.Stmt, defaultTrip int) *PhaseInfo {
	pi := &PhaseInfo{WriteSet: map[string]bool{}, ReadSet: map[string]bool{}}
	a := &analyzer{u: u, pi: pi, defaultTrip: defaultTrip}
	a.walk(stmts, nil, 1.0)
	pi.Nest = spine(u, stmts, defaultTrip)
	return pi
}

type analyzer struct {
	u           *fortran.Unit
	pi          *PhaseInfo
	defaultTrip int
}

func (a *analyzer) walk(stmts []fortran.Stmt, loops []*LoopInfo, guard float64) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *fortran.Do:
			li := &LoopInfo{
				Var:   s.Var,
				Level: len(loops),
				Trip:  trip(a.u, s, a.defaultTrip),
				Step:  stepOf(a.u, s),
				Do:    s,
			}
			if aff, ok := a.u.AffineOf(s.Lo); ok && aff.IsConst() {
				li.Lo, li.LoOK = aff.Const, true
			}
			a.walk(s.Body, append(loops, li), guard)
		case *fortran.If:
			p := 0.5
			if s.ProbHint > 0 {
				p = s.ProbHint
			}
			a.walk(s.Then, loops, guard*p)
			a.walk(s.Else, loops, guard*(1-p))
		case *fortran.Assign:
			a.assign(s, loops, guard)
		}
	}
}

func (a *analyzer) assign(s *fortran.Assign, loops []*LoopInfo, guard float64) {
	ai := &AssignInfo{
		Stmt:  s,
		Loops: append([]*LoopInfo(nil), loops...),
		Guard: guard,
		Iters: 1,
	}
	for _, l := range loops {
		ai.Iters *= float64(l.Trip)
	}
	if arr := a.u.Arrays[s.LHS.Name]; arr != nil {
		ai.LHS = a.refInfo(s.LHS, arr)
		a.pi.WriteSet[arr.Name] = true
	} else {
		ai.ScalarLHS = s.LHS.Name
	}
	for _, r := range fortran.Refs(s.RHS) {
		if arr := a.u.Arrays[r.Name]; arr != nil {
			ai.Reads = append(ai.Reads, a.refInfo(r, arr))
			a.pi.ReadSet[arr.Name] = true
		}
	}
	ai.IsReduction = a.isReduction(s)
	ai.Ops = countOps(s)
	a.pi.Assigns = append(a.pi.Assigns, ai)
}

func (a *analyzer) refInfo(r *fortran.Ref, arr *fortran.Array) *RefInfo {
	ri := &RefInfo{Ref: r, Array: arr}
	for _, sub := range r.Subs {
		si := SubInfo{}
		if aff, ok := a.u.AffineOf(sub); ok {
			si.Affine = aff
			si.OK = true
			si.Const = aff.Const
			if v, c, single := aff.SingleVar(); single {
				si.Var, si.Coeff, si.Single = v, c, true
			} else if aff.IsConst() {
				si.Single = false
			}
		}
		ri.Subs = append(ri.Subs, si)
	}
	return ri
}

// isReduction recognizes s = s ⊕ expr and a(k) = a(k) ⊕ expr where the
// target reappears exactly once as a top-level operand of +, -, *, min
// or max.
func (a *analyzer) isReduction(s *fortran.Assign) bool {
	target := s.LHS.String()
	// The RHS must be an accumulation whose spine contains the target.
	var spineHasTarget func(e fortran.Expr) bool
	spineHasTarget = func(e fortran.Expr) bool {
		switch e := e.(type) {
		case *fortran.Ref:
			return e.String() == target
		case *fortran.Bin:
			switch e.Op {
			case fortran.Add, fortran.Sub, fortran.Mul:
				return spineHasTarget(e.L) || spineHasTarget(e.R)
			}
		case *fortran.Call:
			if e.Fn == "min" || e.Fn == "max" {
				for _, arg := range e.Args {
					if spineHasTarget(arg) {
						return true
					}
				}
			}
		}
		return false
	}
	if !spineHasTarget(s.RHS) {
		return false
	}
	// Count total occurrences of the target on the RHS: exactly one.
	n := 0
	for _, r := range fortran.Refs(s.RHS) {
		if r.String() == target {
			n++
		}
	}
	if n != 1 {
		return false
	}
	// For array targets, the subscripts must not use every loop var:
	// a(i) = a(i)+... inside "do i" is elementwise, not a reduction.
	if arr := a.u.Arrays[s.LHS.Name]; arr != nil {
		vars := map[string]bool{}
		for _, sub := range s.LHS.Subs {
			if aff, ok := a.u.AffineOf(sub); ok {
				for _, v := range aff.Vars() {
					vars[v] = true
				}
			}
		}
		// Reduction iff some enclosing loop variable is absent from the
		// LHS subscripts; detected by the caller context, so here use a
		// weaker check: any RHS read uses a variable missing on the LHS.
		rhsVars := map[string]bool{}
		for _, r := range fortran.Refs(s.RHS) {
			for _, sub := range r.Subs {
				if aff, ok := a.u.AffineOf(sub); ok {
					for _, v := range aff.Vars() {
						rhsVars[v] = true
					}
				}
			}
		}
		for v := range rhsVars {
			if !vars[v] {
				return true
			}
		}
		return false
	}
	return true
}

// countOps tallies operations of the full statement.
func countOps(s *fortran.Assign) OpCount {
	var o OpCount
	o.Stores = 1
	var walk func(e fortran.Expr)
	walk = func(e fortran.Expr) {
		switch e := e.(type) {
		case *fortran.Bin:
			switch e.Op {
			case fortran.Add, fortran.Sub:
				o.AddSub++
			case fortran.Mul:
				o.Mul++
			case fortran.Div:
				o.Div++
			case fortran.Pow:
				o.Pow++
			}
			walk(e.L)
			walk(e.R)
		case *fortran.Un:
			o.AddSub++
			walk(e.X)
		case *fortran.Call:
			if e.Fn == "sqrt" {
				o.Sqrt++
			} else {
				o.Intrinsic++
			}
			for _, arg := range e.Args {
				walk(arg)
			}
		case *fortran.Ref:
			if len(e.Subs) > 0 {
				o.Loads++
			}
		}
	}
	walk(s.RHS)
	return o
}

// trip evaluates a loop's trip count with hint/default fallback.
func trip(u *fortran.Unit, d *fortran.Do, def int) int {
	lo, okL := constAffine(u, d.Lo)
	hi, okH := constAffine(u, d.Hi)
	step := 1
	okS := true
	if d.Step != nil {
		step, okS = constAffine(u, d.Step)
	}
	if okL && okH && okS && step != 0 {
		n := (hi-lo)/step + 1
		if n < 0 {
			n = 0
		}
		return n
	}
	if d.TripHint > 0 {
		return d.TripHint
	}
	return def
}

// stepOf evaluates a loop's constant step (1 when absent or unknown).
func stepOf(u *fortran.Unit, d *fortran.Do) int {
	if d.Step == nil {
		return 1
	}
	if v, ok := constAffine(u, d.Step); ok && v != 0 {
		return v
	}
	return 1
}

func constAffine(u *fortran.Unit, e fortran.Expr) (int, bool) {
	if e == nil {
		return 0, false
	}
	a, ok := u.AffineOf(e)
	if !ok || !a.IsConst() {
		return 0, false
	}
	return a.Const, true
}

// spine extracts the perfect-nest chain of loops starting at the phase
// root: while the (unique) loop body is again a single loop, descend.
func spine(u *fortran.Unit, stmts []fortran.Stmt, def int) []*LoopInfo {
	var out []*LoopInfo
	level := 0
	for len(stmts) == 1 {
		d, ok := stmts[0].(*fortran.Do)
		if !ok {
			break
		}
		li := &LoopInfo{Var: d.Var, Level: level, Trip: trip(u, d, def), Step: stepOf(u, d), Do: d}
		if aff, ok := u.AffineOf(d.Lo); ok && aff.IsConst() {
			li.Lo, li.LoOK = aff.Const, true
		}
		out = append(out, li)
		stmts = d.Body
		level++
	}
	return out
}

// FlowDeps computes the loop-carried flow dependences of the phase:
// pairs (write of array A, read of array A) whose subscripts admit a
// lexicographically positive distance vector.
func (pi *PhaseInfo) FlowDeps() []Dependence {
	var deps []Dependence
	seen := map[string]bool{}
	for _, w := range pi.Assigns {
		if w.LHS == nil {
			continue
		}
		for _, r := range pi.Assigns {
			for _, read := range r.Reads {
				if read.Array.Name != w.LHS.Array.Name {
					continue
				}
				if d, ok := testPair(w, w.LHS, read); ok {
					key := depKey(d)
					if !seen[key] {
						seen[key] = true
						deps = append(deps, d)
					}
				}
			}
		}
	}
	sort.Slice(deps, func(i, j int) bool { return depKey(deps[i]) < depKey(deps[j]) })
	return deps
}

func depKey(d Dependence) string {
	s := d.Array + "|" + d.CarrierVar
	for _, dim := range d.ArrayDims {
		s += string(rune('0' + dim))
	}
	return s
}

// testPair runs per-dimension subscript tests between a write and a
// read of the same array and assembles a distance vector.
func testPair(w *AssignInfo, write *RefInfo, read *RefInfo) (Dependence, bool) {
	d := Dependence{
		Array:     write.Array.Name,
		Distances: map[string]int{},
	}
	for dim := range write.Subs {
		ws, rs := write.Subs[dim], read.Subs[dim]
		switch {
		case !ws.OK || !rs.OK:
			// Non-affine: unknown in every variable of this dim.
			d.Unknown = append(d.Unknown, varsOf(ws, rs)...)
			d.ArrayDims = append(d.ArrayDims, dim)
		case ws.Affine.IsConst() && rs.Affine.IsConst():
			// ZIV: equal constants ⇒ no constraint; different ⇒ no dep
			// through this dim.
			if ws.Const != rs.Const {
				return Dependence{}, false
			}
		case ws.Single && rs.Single && ws.Var == rs.Var && ws.Coeff == rs.Coeff && ws.Coeff != 0:
			// Strong SIV: distance = (k_w - k_r) / c.
			diff := ws.Const - rs.Const
			if diff%ws.Coeff != 0 {
				return Dependence{}, false
			}
			dist := diff / ws.Coeff
			if dist != 0 {
				if prev, dup := d.Distances[ws.Var]; dup && prev != dist {
					// Inconsistent coupled subscripts ⇒ no dependence.
					return Dependence{}, false
				}
				d.Distances[ws.Var] = dist
				d.ArrayDims = append(d.ArrayDims, dim)
			}
		default:
			// Weak/coupled SIV (different variables or coefficients):
			// conservative unknown.
			d.Unknown = append(d.Unknown, varsOf(ws, rs)...)
			d.ArrayDims = append(d.ArrayDims, dim)
		}
	}
	if len(d.Distances) == 0 && len(d.Unknown) == 0 {
		// Loop-independent (same iteration): not loop-carried.
		return Dependence{}, false
	}
	// Determine the carrier: the outermost enclosing loop of the write
	// with nonzero or unknown distance.  A flow dependence requires the
	// first nonzero distance to be positive.
	unknown := map[string]bool{}
	for _, v := range d.Unknown {
		unknown[v] = true
	}
	for _, l := range w.Loops {
		dist, has := d.Distances[l.Var]
		if unknown[l.Var] {
			d.CarrierVar, d.CarrierLevel = l.Var, l.Level
			return d, true
		}
		if !has || dist == 0 {
			continue
		}
		// Convert the index-space distance to iteration space: a
		// descending loop (negative step) reverses the direction.
		step := l.Step
		if step == 0 {
			step = 1
		}
		iterDist := dist
		if step < 0 {
			iterDist = -dist
		}
		if iterDist < 0 {
			// Lexicographically negative: the "dependence" runs
			// backward (an anti-dependence when read precedes write);
			// not a flow serialization.
			return Dependence{}, false
		}
		d.CarrierVar, d.CarrierLevel = l.Var, l.Level
		return d, true
	}
	// Distances only in variables that are not enclosing loops (e.g.
	// symbolic): be conservative, carrier unknown at outermost level.
	if len(w.Loops) > 0 {
		d.CarrierVar, d.CarrierLevel = w.Loops[0].Var, 0
		return d, true
	}
	return Dependence{}, false
}

func varsOf(a, b SubInfo) []string {
	set := map[string]bool{}
	if a.OK {
		for _, v := range a.Affine.Vars() {
			set[v] = true
		}
	}
	if b.OK {
		for _, v := range b.Affine.Vars() {
			set[v] = true
		}
	}
	var out []string
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Reductions returns the reduction assignments of the phase.
func (pi *PhaseInfo) Reductions() []*AssignInfo {
	var out []*AssignInfo
	for _, a := range pi.Assigns {
		if a.IsReduction {
			out = append(out, a)
		}
	}
	return out
}

// LoopByVar finds the nest-spine loop with the given variable.
func (pi *PhaseInfo) LoopByVar(v string) *LoopInfo {
	for _, l := range pi.Nest {
		if l.Var == v {
			return l
		}
	}
	return nil
}

// TotalOps returns the op counts summed over all assignment executions
// (weighted by iteration counts and guards).
func (pi *PhaseInfo) TotalOps() (o OpCount, weighted float64) {
	for _, a := range pi.Assigns {
		w := a.Iters * a.Guard
		o.AddSub += int(float64(a.Ops.AddSub) * w)
		o.Mul += int(float64(a.Ops.Mul) * w)
		o.Div += int(float64(a.Ops.Div) * w)
		o.Sqrt += int(float64(a.Ops.Sqrt) * w)
		o.Intrinsic += int(float64(a.Ops.Intrinsic) * w)
		o.Pow += int(float64(a.Ops.Pow) * w)
		o.Loads += int(float64(a.Ops.Loads) * w)
		o.Stores += int(float64(a.Ops.Stores) * w)
		weighted += w
	}
	return o, weighted
}
