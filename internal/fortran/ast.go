package fortran

import (
	"fmt"
	"strings"
)

// DataType is the element type of a variable or array.
type DataType int8

const (
	// Integer is a 4-byte integer.
	Integer DataType = iota
	// Real is a 4-byte single-precision float.
	Real
	// Double is an 8-byte double-precision float.
	Double
)

// Size returns the element size in bytes.
func (d DataType) Size() int {
	switch d {
	case Integer, Real:
		return 4
	case Double:
		return 8
	}
	return 4
}

func (d DataType) String() string {
	switch d {
	case Integer:
		return "integer"
	case Real:
		return "real"
	case Double:
		return "double precision"
	}
	return fmt.Sprintf("DataType(%d)", int8(d))
}

// Program is a parsed program unit.
type Program struct {
	Name       string
	Params     []*Param     // named compile-time constants, in order
	Decls      []*Decl      // variable/array declarations, in order
	Body       []Stmt       // top-level statement list
	Directives []*Directive // !hpf$ lines, in source order
}

// Param is a PARAMETER constant.
type Param struct {
	Name  string
	Value int
	Line  int
}

// Decl declares one variable or array.
type Decl struct {
	Name string
	Type DataType
	Dims []Expr // empty for scalars; extents, constant after sema
	Line int
}

// Rank returns the number of dimensions (0 for scalars).
func (d *Decl) Rank() int { return len(d.Dims) }

// Directive is a structured !hpf$ comment attached to the program.
type Directive struct {
	Text string // payload after "hpf$", trimmed, lower-case
	Line int
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
}

// Do is a DO loop with unit or constant stride.
type Do struct {
	Var      string
	Lo, Hi   Expr
	Step     Expr // nil means 1
	Body     []Stmt
	Line     int
	TripHint int // from a !trip annotation; 0 if absent
}

// If is a two-armed IF with an optional probability annotation.
type If struct {
	Cond     Expr
	Then     []Stmt
	Else     []Stmt // may be nil
	Line     int
	ProbHint float64 // from !prob; 0 means "guess" (the prototype guesses 50%)
}

// Assign is an assignment statement.
type Assign struct {
	LHS  *Ref
	RHS  Expr
	Line int
}

func (*Do) stmtNode()     {}
func (*If) stmtNode()     {}
func (*Assign) stmtNode() {}

// Expr is an expression node.
type Expr interface {
	exprNode()
	String() string
}

// BinKind is a binary operator.
type BinKind int8

// Binary operator kinds.
const (
	Add BinKind = iota
	Sub
	Mul
	Div
	Pow
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	LAnd
	LOr
)

var binNames = map[BinKind]string{
	Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "**",
	Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "==", Ne: "/=",
	LAnd: ".and.", LOr: ".or.",
}

func (k BinKind) String() string { return binNames[k] }

// Bin is a binary operation.
type Bin struct {
	Op   BinKind
	L, R Expr
}

// Un is a unary operation: negation or .not.
type Un struct {
	Neg bool // true: arithmetic negation, false: logical not
	X   Expr
}

// Call is an intrinsic function call (sqrt, abs, min, max, mod, exp,
// log, sin, cos, tan, atan, sign).
type Call struct {
	Fn   string
	Args []Expr
}

// Ref is a variable reference, possibly subscripted.
type Ref struct {
	Name string
	Subs []Expr // nil for scalar references
	Line int
}

// IntLit is an integer literal.
type IntLit struct{ Val int }

// RealLit is a floating-point literal.
type RealLit struct {
	Val  float64
	Text string
}

func (*Bin) exprNode()     {}
func (*Un) exprNode()      {}
func (*Call) exprNode()    {}
func (*Ref) exprNode()     {}
func (*IntLit) exprNode()  {}
func (*RealLit) exprNode() {}

func (e *Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binNames[e.Op], e.R)
}

func (e *Un) String() string {
	if e.Neg {
		return fmt.Sprintf("(-%s)", e.X)
	}
	return fmt.Sprintf("(.not. %s)", e.X)
}

func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(args, ", "))
}

func (e *Ref) String() string {
	if len(e.Subs) == 0 {
		return e.Name
	}
	subs := make([]string, len(e.Subs))
	for i, s := range e.Subs {
		subs[i] = s.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(subs, ","))
}

func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Val) }

func (e *RealLit) String() string {
	if e.Text != "" {
		return e.Text
	}
	return fmt.Sprintf("%g", e.Val)
}

// WalkStmts applies f to every statement in the list, recursing into
// loop and branch bodies.  f runs before recursion (pre-order).
func WalkStmts(stmts []Stmt, f func(Stmt)) {
	for _, s := range stmts {
		f(s)
		switch s := s.(type) {
		case *Do:
			WalkStmts(s.Body, f)
		case *If:
			WalkStmts(s.Then, f)
			WalkStmts(s.Else, f)
		}
	}
}

// WalkExpr applies f to e and every subexpression, pre-order.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch e := e.(type) {
	case *Bin:
		WalkExpr(e.L, f)
		WalkExpr(e.R, f)
	case *Un:
		WalkExpr(e.X, f)
	case *Call:
		for _, a := range e.Args {
			WalkExpr(a, f)
		}
	case *Ref:
		for _, s := range e.Subs {
			WalkExpr(s, f)
		}
	}
}

// Refs collects every array or scalar reference in e, including
// references inside subscripts.
func Refs(e Expr) []*Ref {
	var out []*Ref
	WalkExpr(e, func(x Expr) {
		if r, ok := x.(*Ref); ok {
			out = append(out, r)
		}
	})
	return out
}
