package fortran

import (
	"fmt"
	"sort"
	"strings"
)

// Array is a declared array with constant extents.
type Array struct {
	Name    string
	Type    DataType
	Extents []int
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Extents) }

// Elems returns the total element count.
func (a *Array) Elems() int {
	n := 1
	for _, e := range a.Extents {
		n *= e
	}
	return n
}

// Bytes returns the total size in bytes.
func (a *Array) Bytes() int { return a.Elems() * a.Type.Size() }

// Scalar is a declared scalar variable.
type Scalar struct {
	Name string
	Type DataType
}

// DistKind is one dimension of an HPF DISTRIBUTE specification.
type DistKind int8

const (
	// DistStar leaves the dimension undistributed ("*").
	DistStar DistKind = iota
	// DistBlock distributes the dimension by contiguous blocks.
	DistBlock
	// DistCyclic distributes the dimension round-robin.
	DistCyclic
)

func (d DistKind) String() string {
	switch d {
	case DistStar:
		return "*"
	case DistBlock:
		return "BLOCK"
	case DistCyclic:
		return "CYCLIC"
	}
	return fmt.Sprintf("DistKind(%d)", int8(d))
}

// UserDistribute is a parsed "!hpf$ distribute a(block,*)" directive.
type UserDistribute struct {
	Array string
	Spec  []DistKind
	Line  int
}

// UserAlign is a parsed "!hpf$ align a with b" directive (canonical
// alignment of corresponding dimensions).
type UserAlign struct {
	Source, Target string
	Line           int
}

// Unit is a semantically analyzed program.
type Unit struct {
	Prog    *Program
	Arrays  map[string]*Array
	Scalars map[string]*Scalar
	Params  map[string]int

	// User-supplied partial layout, from !hpf$ directives.
	Distributes []*UserDistribute
	Aligns      []*UserAlign
}

// SemanticError reports an analysis failure.
type SemanticError struct {
	Line int
	Msg  string
}

func (e *SemanticError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// Analyze type-checks prog and resolves array extents.
func Analyze(prog *Program) (*Unit, error) {
	u := &Unit{
		Prog:    prog,
		Arrays:  make(map[string]*Array),
		Scalars: make(map[string]*Scalar),
		Params:  make(map[string]int),
	}
	for _, p := range prog.Params {
		if _, dup := u.Params[p.Name]; dup {
			return nil, &SemanticError{p.Line, fmt.Sprintf("duplicate parameter %s", p.Name)}
		}
		u.Params[p.Name] = p.Value
	}
	for _, d := range prog.Decls {
		if _, dup := u.Arrays[d.Name]; dup {
			return nil, &SemanticError{d.Line, fmt.Sprintf("duplicate declaration of %s", d.Name)}
		}
		if _, dup := u.Scalars[d.Name]; dup {
			return nil, &SemanticError{d.Line, fmt.Sprintf("duplicate declaration of %s", d.Name)}
		}
		if _, isParam := u.Params[d.Name]; isParam {
			return nil, &SemanticError{d.Line, fmt.Sprintf("%s declared both parameter and variable", d.Name)}
		}
		if d.Rank() == 0 {
			u.Scalars[d.Name] = &Scalar{Name: d.Name, Type: d.Type}
			continue
		}
		arr := &Array{Name: d.Name, Type: d.Type}
		for _, dim := range d.Dims {
			v, ok := foldInt(dim, prog.Params)
			if !ok || v <= 0 {
				return nil, &SemanticError{d.Line, fmt.Sprintf("array %s: extent %s is not a positive constant", d.Name, dim)}
			}
			arr.Extents = append(arr.Extents, v)
		}
		u.Arrays[d.Name] = arr
	}
	if err := u.checkStmts(prog.Body, map[string]bool{}); err != nil {
		return nil, err
	}
	if err := u.parseDirectives(); err != nil {
		return nil, err
	}
	return u, nil
}

// checkStmts validates references and subscript ranks; induction maps
// the loop variables currently in scope.
func (u *Unit) checkStmts(stmts []Stmt, induction map[string]bool) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			if err := u.checkRef(s.LHS, true); err != nil {
				return err
			}
			if err := u.checkExpr(s.RHS); err != nil {
				return err
			}
		case *Do:
			if u.Arrays[s.Var] != nil {
				return &SemanticError{s.Line, fmt.Sprintf("loop variable %s is an array", s.Var)}
			}
			if _, declared := u.Scalars[s.Var]; !declared {
				u.Scalars[s.Var] = &Scalar{Name: s.Var, Type: Integer}
			}
			if err := u.checkExpr(s.Lo); err != nil {
				return err
			}
			if err := u.checkExpr(s.Hi); err != nil {
				return err
			}
			if s.Step != nil {
				if err := u.checkExpr(s.Step); err != nil {
					return err
				}
			}
			inner := make(map[string]bool, len(induction)+1)
			for k := range induction {
				inner[k] = true
			}
			inner[s.Var] = true
			if err := u.checkStmts(s.Body, inner); err != nil {
				return err
			}
		case *If:
			if err := u.checkExpr(s.Cond); err != nil {
				return err
			}
			if err := u.checkStmts(s.Then, induction); err != nil {
				return err
			}
			if err := u.checkStmts(s.Else, induction); err != nil {
				return err
			}
		}
	}
	return nil
}

func (u *Unit) checkExpr(e Expr) error {
	var failure error
	WalkExpr(e, func(x Expr) {
		if failure != nil {
			return
		}
		if r, ok := x.(*Ref); ok {
			failure = u.checkRef(r, false)
		}
	})
	return failure
}

func (u *Unit) checkRef(r *Ref, isLHS bool) error {
	if arr, ok := u.Arrays[r.Name]; ok {
		if len(r.Subs) != arr.Rank() {
			return &SemanticError{r.Line, fmt.Sprintf("%s has rank %d, subscripted with %d", r.Name, arr.Rank(), len(r.Subs))}
		}
		return nil
	}
	if len(r.Subs) != 0 {
		return &SemanticError{r.Line, fmt.Sprintf("%s is not a declared array", r.Name)}
	}
	if _, ok := u.Scalars[r.Name]; ok {
		return nil
	}
	if _, ok := u.Params[r.Name]; ok {
		if isLHS {
			return &SemanticError{r.Line, fmt.Sprintf("cannot assign to parameter %s", r.Name)}
		}
		return nil
	}
	// Undeclared scalars follow Fortran implicit typing: I-N integer,
	// otherwise real.  Loop variables land here routinely.
	dt := Real
	if c := r.Name[0]; c >= 'i' && c <= 'n' {
		dt = Integer
	}
	u.Scalars[r.Name] = &Scalar{Name: r.Name, Type: dt}
	return nil
}

// parseDirectives turns raw !hpf$ lines into structured form.
func (u *Unit) parseDirectives() error {
	for _, d := range u.Prog.Directives {
		fields := strings.Fields(d.Text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "distribute":
			ud, err := u.parseDistribute(d)
			if err != nil {
				return err
			}
			u.Distributes = append(u.Distributes, ud)
		case "align":
			// "align a with b"
			if len(fields) != 4 || fields[2] != "with" {
				return &SemanticError{d.Line, fmt.Sprintf("malformed align directive %q", d.Text)}
			}
			src, tgt := fields[1], fields[3]
			for _, name := range []string{src, tgt} {
				if u.Arrays[name] == nil {
					return &SemanticError{d.Line, fmt.Sprintf("align names unknown array %s", name)}
				}
			}
			u.Aligns = append(u.Aligns, &UserAlign{Source: src, Target: tgt, Line: d.Line})
		default:
			// Other HPF directives (TEMPLATE, PROCESSORS) are accepted
			// and ignored: the tool computes its own program template.
		}
	}
	return nil
}

func (u *Unit) parseDistribute(d *Directive) (*UserDistribute, error) {
	// "distribute a(block,*)" with optional "onto p" suffix.
	rest := strings.TrimSpace(strings.TrimPrefix(d.Text, "distribute"))
	if i := strings.Index(rest, "onto"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	open := strings.Index(rest, "(")
	close := strings.LastIndex(rest, ")")
	if open < 0 || close < open {
		return nil, &SemanticError{d.Line, fmt.Sprintf("malformed distribute directive %q", d.Text)}
	}
	name := strings.TrimSpace(rest[:open])
	arr := u.Arrays[name]
	if arr == nil {
		return nil, &SemanticError{d.Line, fmt.Sprintf("distribute names unknown array %s", name)}
	}
	ud := &UserDistribute{Array: name, Line: d.Line}
	for _, part := range strings.Split(rest[open+1:close], ",") {
		switch strings.TrimSpace(part) {
		case "block":
			ud.Spec = append(ud.Spec, DistBlock)
		case "cyclic":
			ud.Spec = append(ud.Spec, DistCyclic)
		case "*":
			ud.Spec = append(ud.Spec, DistStar)
		default:
			return nil, &SemanticError{d.Line, fmt.Sprintf("unknown distribution format %q", strings.TrimSpace(part))}
		}
	}
	if len(ud.Spec) != arr.Rank() {
		return nil, &SemanticError{d.Line, fmt.Sprintf("distribute %s: %d formats for rank %d", name, len(ud.Spec), arr.Rank())}
	}
	return ud, nil
}

// ArrayNames returns the declared array names in deterministic order.
func (u *Unit) ArrayNames() []string {
	names := make([]string, 0, len(u.Arrays))
	for n := range u.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MaxRank returns the maximal array rank in the program; the program
// template has this dimensionality (§2.2).
func (u *Unit) MaxRank() int {
	r := 0
	for _, a := range u.Arrays {
		if a.Rank() > r {
			r = a.Rank()
		}
	}
	return r
}

// TemplateExtents returns the per-dimension maxima over all arrays,
// defining the single program template of §2.2.
func (u *Unit) TemplateExtents() []int {
	ext := make([]int, u.MaxRank())
	for _, a := range u.Arrays {
		for i, e := range a.Extents {
			if e > ext[i] {
				ext[i] = e
			}
		}
	}
	return ext
}

// Affine is an affine form over loop induction variables:
// Const + sum Coeffs[v] * v.
type Affine struct {
	Coeffs map[string]int
	Const  int
}

// Vars returns the variables with nonzero coefficients, sorted.
func (a Affine) Vars() []string {
	var vs []string
	for v, c := range a.Coeffs {
		if c != 0 {
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	return vs
}

// IsConst reports whether the form has no variable part.
func (a Affine) IsConst() bool { return len(a.Vars()) == 0 }

// SingleVar reports the variable and coefficient when the form is
// c*v + k with exactly one variable.
func (a Affine) SingleVar() (v string, coeff int, ok bool) {
	n := 0
	for x, c := range a.Coeffs {
		if c != 0 {
			v, coeff = x, c
			n++
		}
	}
	if n != 1 {
		return "", 0, false
	}
	return v, coeff, true
}

func (a Affine) String() string {
	var b strings.Builder
	for _, v := range a.Vars() {
		c := a.Coeffs[v]
		switch {
		case b.Len() == 0 && c == 1:
			b.WriteString(v)
		case b.Len() == 0:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			fmt.Fprintf(&b, "+%s", v)
		case c > 0:
			fmt.Fprintf(&b, "+%d*%s", c, v)
		case c == -1:
			fmt.Fprintf(&b, "-%s", v)
		default:
			fmt.Fprintf(&b, "%d*%s", c, v)
		}
	}
	if a.Const != 0 || b.Len() == 0 {
		if a.Const >= 0 && b.Len() > 0 {
			fmt.Fprintf(&b, "+%d", a.Const)
		} else {
			fmt.Fprintf(&b, "%d", a.Const)
		}
	}
	return b.String()
}

// AffineOf analyzes e as an affine form over scalar integer variables,
// folding parameters to constants.  ok is false for non-affine
// expressions (products of variables, calls, real arithmetic).  The
// form's coefficients are folded into a single map, and a form with no
// variable part carries none.
func (u *Unit) AffineOf(e Expr) (Affine, bool) {
	f := affineFolder{u: u}
	c, ok := f.fold(e, 1)
	if !ok {
		return Affine{}, false
	}
	for v, k := range f.coeffs {
		if k == 0 {
			delete(f.coeffs, v)
		}
	}
	if len(f.coeffs) == 0 {
		f.coeffs = nil
	}
	return Affine{Coeffs: f.coeffs, Const: c}, true
}

// affineFolder accumulates k*e over the sub-expressions of one affine
// form into one coefficient map, made on the first variable.
type affineFolder struct {
	u      *Unit
	coeffs map[string]int
}

// fold adds k times the variable part of e to the map and returns k
// times its constant part.  Integer arithmetic wraps, so the terms may
// be added in any order and zero coefficients dropped at the end.
func (f *affineFolder) fold(e Expr, k int) (int, bool) {
	switch e := e.(type) {
	case *IntLit:
		return k * e.Val, true
	case *Ref:
		if len(e.Subs) != 0 {
			return 0, false
		}
		if v, ok := f.u.Params[e.Name]; ok {
			return k * v, true
		}
		if k != 0 {
			if f.coeffs == nil {
				f.coeffs = map[string]int{}
			}
			f.coeffs[e.Name] += k
		}
		return 0, true
	case *Un:
		if !e.Neg {
			return 0, false
		}
		return f.fold(e.X, -k)
	case *Bin:
		switch e.Op {
		case Add, Sub:
			l, ok := f.fold(e.L, k)
			if !ok {
				return 0, false
			}
			if e.Op == Sub {
				k = -k
			}
			r, ok := f.fold(e.R, k)
			return l + r, ok
		case Mul:
			// One factor must be a constant form, which AffineOf
			// returns without a map.  Each factor is analysed once,
			// so a chain of products stays linear in its length.
			l, ok := f.u.AffineOf(e.L)
			if !ok {
				return 0, false
			}
			if l.Coeffs == nil {
				return f.fold(e.R, k*l.Const)
			}
			r, ok := f.u.AffineOf(e.R)
			if !ok || r.Coeffs != nil {
				return 0, false
			}
			k *= r.Const
			if f.coeffs == nil {
				f.coeffs = map[string]int{}
			}
			for v, c := range l.Coeffs {
				f.coeffs[v] += k * c
			}
			return k * l.Const, true
		case Div:
			l, okL := f.u.AffineOf(e.L)
			r, okR := f.u.AffineOf(e.R)
			if okL && okR && l.Coeffs == nil && r.Coeffs == nil && r.Const != 0 && l.Const%r.Const == 0 {
				return k * (l.Const / r.Const), true
			}
		}
	}
	return 0, false
}
