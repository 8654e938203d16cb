package fortran

import (
	"fmt"
)

// Subroutine is a parsed SUBROUTINE unit.
type Subroutine struct {
	Name    string
	Formals []string
	Decls   []*Decl
	Body    []Stmt
	Line    int
}

// File is a parsed source file: one PROGRAM plus any SUBROUTINEs.
type File struct {
	Program *Program
	Subs    []*Subroutine
}

// Sub returns the named subroutine, or nil.
func (f *File) Sub(name string) *Subroutine {
	for _, s := range f.Subs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// CallStmt is a CALL statement (eliminated by Inline before analysis —
// the framework itself is intra-procedural, like the paper's
// prototype).
type CallStmt struct {
	Name string
	Args []Expr
	Line int
}

func (*CallStmt) stmtNode() {}

// maxInlineDepth bounds nested inlining (and catches recursion).
const maxInlineDepth = 16

// Inline expands every CALL in the file's program, producing a single
// self-contained program unit the intra-procedural framework can
// analyze.  The paper's experiments did this by hand ("we used an
// inlined version of Erlebacher, since the prototype implementation
// ... does not perform inter-procedural analysis"); Inline automates
// the same transformation:
//
//   - array formals bind to bare array actuals by renaming;
//   - scalar formals bind to scalar names, or to arbitrary expressions
//     when the body never assigns them;
//   - subroutine locals (including loop variables) are renamed apart;
//   - local array declarations are hoisted to the program with their
//     dimension expressions substituted.
func Inline(f *File) (*Program, error) {
	prog := &Program{
		Name:       f.Program.Name,
		Params:     append([]*Param(nil), f.Program.Params...),
		Decls:      append([]*Decl(nil), f.Program.Decls...),
		Directives: f.Program.Directives,
	}
	in := &inliner{file: f, prog: prog}
	body, err := in.expand(f.Program.Body, 0)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	return prog, nil
}

type inliner struct {
	file  *File
	prog  *Program
	fresh int
}

// expand replaces CALL statements in stmts, recursively.
func (in *inliner) expand(stmts []Stmt, depth int) ([]Stmt, error) {
	if depth > maxInlineDepth {
		return nil, &SyntaxError{Line: 1, Msg: fmt.Sprintf("inlining exceeds depth %d (recursive subroutines?)", maxInlineDepth)}
	}
	var out []Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *CallStmt:
			body, err := in.inlineCall(s, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, body...)
		case *Do:
			inner, err := in.expand(s.Body, depth)
			if err != nil {
				return nil, err
			}
			cp := *s
			cp.Body = inner
			out = append(out, &cp)
		case *If:
			thenS, err := in.expand(s.Then, depth)
			if err != nil {
				return nil, err
			}
			elseS, err := in.expand(s.Else, depth)
			if err != nil {
				return nil, err
			}
			cp := *s
			cp.Then, cp.Else = thenS, elseS
			out = append(out, &cp)
		default:
			out = append(out, s)
		}
	}
	return out, nil
}

// inlineCall produces the substituted body of one call.
func (in *inliner) inlineCall(call *CallStmt, depth int) ([]Stmt, error) {
	sub := in.file.Sub(call.Name)
	if sub == nil {
		return nil, &SyntaxError{Line: call.Line, Msg: fmt.Sprintf("call to unknown subroutine %s", call.Name)}
	}
	if len(call.Args) != len(sub.Formals) {
		return nil, &SyntaxError{Line: call.Line, Msg: fmt.Sprintf("%s expects %d arguments, got %d",
			sub.Name, len(sub.Formals), len(call.Args))}
	}

	formal := map[string]bool{}
	for _, p := range sub.Formals {
		formal[p] = true
	}
	assigned := assignedNames(sub.Body)

	// Build the substitution: formals map to actual expressions; every
	// other name mentioned in the subroutine is a local and renamed.
	subst := map[string]Expr{}
	for i, p := range sub.Formals {
		a := call.Args[i]
		if ref, ok := a.(*Ref); ok && len(ref.Subs) == 0 {
			subst[p] = &Ref{Name: ref.Name, Line: call.Line}
			continue
		}
		// Expression actual: only legal when the body treats the
		// formal as a read-only scalar.
		if isArrayFormal(sub, p) {
			return nil, &SyntaxError{Line: call.Line, Msg: fmt.Sprintf("argument %d of %s must be an array name", i+1, sub.Name)}
		}
		if assigned[p] {
			return nil, &SyntaxError{Line: call.Line, Msg: fmt.Sprintf("argument %d of %s is assigned; pass a variable", i+1, sub.Name)}
		}
		subst[p] = a
	}
	in.fresh++
	tag := fmt.Sprintf("_%s%d", sub.Name, in.fresh)
	rename := func(name string) string { return name + tag }

	// Hoist local declarations (renamed, dimensions substituted).
	for _, d := range sub.Decls {
		if formal[d.Name] {
			continue
		}
		nd := &Decl{Name: rename(d.Name), Type: d.Type, Line: d.Line}
		for _, dim := range d.Dims {
			nd.Dims = append(nd.Dims, substExpr(dim, subst, formal, rename))
		}
		in.prog.Decls = append(in.prog.Decls, nd)
		subst[d.Name] = &Ref{Name: nd.Name}
	}

	body := substStmts(sub.Body, subst, formal, rename)
	// The inlined body may itself contain calls.
	return in.expand(body, depth+1)
}

// isArrayFormal reports whether the subroutine declares formal p with
// dimensions.
func isArrayFormal(sub *Subroutine, p string) bool {
	for _, d := range sub.Decls {
		if d.Name == p {
			return d.Rank() > 0
		}
	}
	return false
}

// assignedNames collects scalar/array names assigned anywhere.
func assignedNames(stmts []Stmt) map[string]bool {
	out := map[string]bool{}
	WalkStmts(stmts, func(s Stmt) {
		switch s := s.(type) {
		case *Assign:
			out[s.LHS.Name] = true
		case *Do:
			out[s.Var] = true
		}
	})
	return out
}

// substStmts deep-copies statements applying the substitution; names
// not in subst and not formals are locals and renamed.
func substStmts(stmts []Stmt, subst map[string]Expr, formal map[string]bool, rename func(string) string) []Stmt {
	var out []Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			lhs := substExpr(s.LHS, subst, formal, rename).(*Ref)
			out = append(out, &Assign{LHS: lhs, RHS: substExpr(s.RHS, subst, formal, rename), Line: s.Line})
		case *Do:
			v := s.Var
			if e, ok := subst[v]; ok {
				v = e.(*Ref).Name
			} else {
				v = rename(v)
			}
			nd := &Do{
				Var:      v,
				Lo:       substExpr(s.Lo, subst, formal, rename),
				Hi:       substExpr(s.Hi, subst, formal, rename),
				Line:     s.Line,
				TripHint: s.TripHint,
				Body:     substStmts(s.Body, subst, formal, rename),
			}
			if s.Step != nil {
				nd.Step = substExpr(s.Step, subst, formal, rename)
			}
			out = append(out, nd)
		case *If:
			out = append(out, &If{
				Cond:     substExpr(s.Cond, subst, formal, rename),
				Then:     substStmts(s.Then, subst, formal, rename),
				Else:     substStmts(s.Else, subst, formal, rename),
				Line:     s.Line,
				ProbHint: s.ProbHint,
			})
		case *CallStmt:
			nc := &CallStmt{Name: s.Name, Line: s.Line}
			for _, a := range s.Args {
				nc.Args = append(nc.Args, substExpr(a, subst, formal, rename))
			}
			out = append(out, nc)
		}
	}
	return out
}

// substExpr deep-copies e applying the substitution.
func substExpr(e Expr, subst map[string]Expr, formal map[string]bool, rename func(string) string) Expr {
	switch e := e.(type) {
	case *IntLit:
		return &IntLit{Val: e.Val}
	case *RealLit:
		return &RealLit{Val: e.Val, Text: e.Text}
	case *Un:
		return &Un{Neg: e.Neg, X: substExpr(e.X, subst, formal, rename)}
	case *Bin:
		return &Bin{Op: e.Op,
			L: substExpr(e.L, subst, formal, rename),
			R: substExpr(e.R, subst, formal, rename)}
	case *Call:
		nc := &Call{Fn: e.Fn}
		for _, a := range e.Args {
			nc.Args = append(nc.Args, substExpr(a, subst, formal, rename))
		}
		return nc
	case *Ref:
		var subs []Expr
		for _, s := range e.Subs {
			subs = append(subs, substExpr(s, subst, formal, rename))
		}
		if repl, ok := subst[e.Name]; ok {
			if r, isRef := repl.(*Ref); isRef {
				return &Ref{Name: r.Name, Subs: subs, Line: e.Line}
			}
			// Expression-bound read-only scalar formal: splice a copy
			// of the caller-scope expression (no renaming applies).
			return substExpr(repl, map[string]Expr{}, nil, func(n string) string { return n })
		}
		return &Ref{Name: rename(e.Name), Subs: subs, Line: e.Line}
	}
	return e
}
