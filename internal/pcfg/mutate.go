package pcfg

// MutateProgram: the seeded one-phase edit generator behind the
// incremental tests and soaks (and the first step toward a scenario
// factory).  Each call applies exactly one small, phase-local source
// edit — the kind an interactive user makes between two runs of the
// layout assistant — and guarantees the result is a valid program
// whose canonical rendering differs from the input in exactly one
// phase's statements.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/fortran"
)

// Mutation is the edit applied by one MutateProgram call.
type Mutation struct {
	// Phase is the index (in PCFG phase order) of the phase the edit
	// touched; every other phase's statement rendering is unchanged.
	Phase int
	// Kind names the edit: "loop-bound", "real-const" or
	// "subscript-swap".
	Kind string
}

// MutateProgram applies one seeded, phase-local edit to src and
// returns the edited source.  The edit is one of:
//
//   - loop-bound: perturb a constant DO bound inside the phase
//     (changes trip counts, hence dependence info and pricing);
//   - real-const: perturb a floating-point constant on the right-hand
//     side of an assignment (changes the statement rendering, hence
//     the phase key, without touching the loop structure);
//   - subscript-swap: swap two distinct subscripts of a rank-≥2 array
//     reference (changes the access pattern, hence alignment
//     preferences — the alignment-relevant edit).
//
// The same (src, seed, opt) triple always produces the same edit.  The
// returned source parses, passes semantic analysis, builds a PCFG with
// the same number of phases as src, and differs from src in exactly
// one phase's canonical statement rendering — candidates violating any
// of that are discarded and another target is tried.  An error is
// returned only when src itself is invalid or no valid edit exists.
func MutateProgram(src string, seed int64, opt Options) (string, Mutation, error) {
	var origSigs []string
	rng := rand.New(rand.NewSource(seed))
	const tries = 32
	for t := 0; t < tries; t++ {
		// Re-parse each attempt: mutations edit the AST in place, and a
		// rejected candidate must not compound with the next one.
		u, g, err := frontEnd(src, opt)
		if err != nil {
			return "", Mutation{}, fmt.Errorf("pcfg: mutate: %w", err)
		}
		if len(g.Phases) == 0 {
			return "", Mutation{}, fmt.Errorf("pcfg: mutate: program has no phases")
		}
		if origSigs == nil {
			origSigs = graphSigs(g) // of src: nothing has edited this AST yet
		}
		pi := rng.Intn(len(g.Phases))
		kind, ok := applyMutation(rng, g.Phases[pi].Stmts())
		if !ok {
			continue
		}
		out := fortran.Print(u.Prog)
		newSigs, err := phaseSigs(out, opt)
		if err != nil {
			continue // the edit broke the program; try another
		}
		if !oneSigChanged(origSigs, newSigs, pi) {
			continue
		}
		return out, Mutation{Phase: pi, Kind: kind}, nil
	}
	return "", Mutation{}, fmt.Errorf("pcfg: mutate: no valid single-phase edit found in %d tries", tries)
}

// frontEnd parses and analyzes src and builds its PCFG.
func frontEnd(src string, opt Options) (*fortran.Unit, *Graph, error) {
	prog, err := fortran.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	u, err := fortran.Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	g, err := Build(u, opt)
	if err != nil {
		return nil, nil, err
	}
	return u, g, nil
}

// phaseSigs parses src and returns each phase's canonical statement
// rendering, in phase order.
func phaseSigs(src string, opt Options) ([]string, error) {
	_, g, err := frontEnd(src, opt)
	if err != nil {
		return nil, err
	}
	return graphSigs(g), nil
}

func graphSigs(g *Graph) []string {
	sigs := make([]string, len(g.Phases))
	for i, ph := range g.Phases {
		sigs[i] = fortran.PrintStmts(ph.Stmts())
	}
	return sigs
}

// oneSigChanged reports whether exactly the pi-th signature changed.
func oneSigChanged(orig, cur []string, pi int) bool {
	if len(orig) != len(cur) {
		return false
	}
	for i := range orig {
		if (orig[i] != cur[i]) != (i == pi) {
			return false
		}
	}
	return true
}

// applyMutation edits the phase's statements in place, picking a
// mutation kind and target from the seeded rng.  It reports the kind
// applied, or false when the phase offers no viable target.
func applyMutation(rng *rand.Rand, stmts []fortran.Stmt) (string, bool) {
	var bounds []*fortran.IntLit
	var consts []*fortran.RealLit
	var refs []*fortran.Ref
	fortran.WalkStmts(stmts, func(s fortran.Stmt) {
		switch s := s.(type) {
		case *fortran.Do:
			for _, e := range []fortran.Expr{s.Lo, s.Hi} {
				if lit, ok := e.(*fortran.IntLit); ok && lit.Val >= 1 {
					bounds = append(bounds, lit)
				}
			}
		case *fortran.Assign:
			fortran.WalkExpr(s.RHS, func(e fortran.Expr) {
				if lit, ok := e.(*fortran.RealLit); ok {
					consts = append(consts, lit)
				}
			})
			for _, e := range []fortran.Expr{s.LHS, s.RHS} {
				fortran.WalkExpr(e, func(x fortran.Expr) {
					if r, ok := x.(*fortran.Ref); ok && swappableSubs(r) {
						refs = append(refs, r)
					}
				})
			}
		}
	})
	var kinds []string
	if len(bounds) > 0 {
		kinds = append(kinds, "loop-bound")
	}
	if len(consts) > 0 {
		kinds = append(kinds, "real-const")
	}
	if len(refs) > 0 {
		kinds = append(kinds, "subscript-swap")
	}
	if len(kinds) == 0 {
		return "", false
	}
	switch kind := kinds[rng.Intn(len(kinds))]; kind {
	case "loop-bound":
		lit := bounds[rng.Intn(len(bounds))]
		// 1 ↔ 2 keeps Lo ≤ Hi for the common `do i = 1, n` shape;
		// larger constants move up by one.
		if lit.Val == 1 {
			lit.Val = 2
		} else if lit.Val == 2 {
			lit.Val = 1
		} else {
			lit.Val++
		}
		return kind, true
	case "real-const":
		lit := consts[rng.Intn(len(consts))]
		lit.Val += 0.25 * float64(1+rng.Intn(4))
		text := strconv.FormatFloat(lit.Val, 'f', -1, 64)
		if !strings.ContainsAny(text, ".eE") {
			text += ".0"
		}
		lit.Text = text
		return kind, true
	default: // subscript-swap
		r := refs[rng.Intn(len(refs))]
		i, j := distinctSubs(r)
		r.Subs[i], r.Subs[j] = r.Subs[j], r.Subs[i]
		return "subscript-swap", true
	}
}

// swappableSubs reports whether the reference has two subscripts with
// different renderings (so a swap changes the program).
func swappableSubs(r *fortran.Ref) bool {
	if len(r.Subs) < 2 {
		return false
	}
	i, j := distinctSubs(r)
	return i != j
}

// distinctSubs returns the first pair of subscript positions with
// different renderings ((0, 0) when all render equal).
func distinctSubs(r *fortran.Ref) (int, int) {
	for i := 0; i < len(r.Subs); i++ {
		for j := i + 1; j < len(r.Subs); j++ {
			if r.Subs[i].String() != r.Subs[j].String() {
				return i, j
			}
		}
	}
	return 0, 0
}
