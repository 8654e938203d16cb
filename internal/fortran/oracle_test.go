package fortran

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// errText renders an error for comparison; nil renders empty.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFrontEndAgainstBaseline requires the streaming front end and the
// slice baseline of baseline_test.go to agree on src: the same token
// stream from Lex, the same AST from ParseFile, and the same error
// text from each.
func checkFrontEndAgainstBaseline(t *testing.T, name, src string) {
	t.Helper()
	toks, err := Lex(src)
	btoks, berr := lexBaseline(src)
	if errText(err) != errText(berr) {
		t.Errorf("%s: Lex error %q, baseline %q", name, errText(err), errText(berr))
	} else if !slices.Equal(toks, btoks) {
		t.Errorf("%s: Lex gave %d tokens, baseline %d; first difference at %d", name, len(toks), len(btoks), firstDiff(toks, btoks))
	}
	f, err := ParseFile(src)
	bf, berr := parseFileBaseline(src)
	if errText(err) != errText(berr) {
		t.Errorf("%s: ParseFile error %q, baseline %q", name, errText(err), errText(berr))
		return
	}
	if err != nil {
		return
	}
	if got, want := Print(f.Program), Print(bf.Program); got != want {
		t.Errorf("%s: ParseFile prints\n%s\nbaseline prints\n%s", name, got, want)
	} else if !reflect.DeepEqual(f, bf) {
		t.Errorf("%s: ParseFile AST differs from the baseline's (lines or subroutines)", name)
	}
}

func firstDiff(a, b []Token) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// checkAffineAgainstBaseline requires AffineOf and affineOfBaseline to
// agree on e: the same ok, constant and nonzero coefficients.  The
// baseline may carry an empty map where AffineOf carries none.
func checkAffineAgainstBaseline(t *testing.T, where string, u *Unit, e Expr) {
	t.Helper()
	a, ok := u.AffineOf(e)
	b, bok := affineOfBaseline(u, e)
	if ok != bok {
		t.Errorf("%s: AffineOf(%s) ok = %v, baseline %v", where, e, ok, bok)
		return
	}
	if !ok {
		return
	}
	if a.Const != b.Const || !slices.Equal(a.Vars(), b.Vars()) || a.String() != b.String() {
		t.Errorf("%s: AffineOf(%s) = %s, baseline %s", where, e, a, b)
	}
	for v, c := range a.Coeffs {
		if c == 0 || b.Coeffs[v] != c {
			t.Errorf("%s: AffineOf(%s) coefficient %s = %d, baseline %d", where, e, v, c, b.Coeffs[v])
		}
	}
	if len(a.Coeffs) == 0 && a.Coeffs != nil {
		t.Errorf("%s: AffineOf(%s) carries an empty map", where, e)
	}
}

// frontEndEdges are sources whose lexing or parsing turns on the
// lookahead, the directive forms, or the order of errors.
var frontEndEdges = map[string]string{
	"end-do-split":    "program p\nreal a(4)\ndo i = 1, 4\na(i) = 0.0\nend do\nend\n",
	"end-do-joined":   "program p\nreal a(4)\ndo i = 1, 4\na(i) = 0.0\nenddo\nend\n",
	"end-at-eof":      "program p\nreal a(4)\ndo i = 1, 4\na(i) = 0.0\nend",
	"end-if-else":     "program p\nreal a(4)\nif (a(1) .gt. 0.0) then\na(1) = 1.0\nelse\na(2) = 1.0\nend if\nend program p\n",
	"directives":      "!hpf$ distribute x(block)\nprogram p\nreal x(8)\n!HPF$ align y(i) with x(i)\n!trip 3\ndo i = 1, 8\n!prob 0.3\nif (x(i) > 0.0) x(i) = 1.0\nend do\nend\n",
	"hint-lookalikes": "program p\nreal a(8)\n! tripcount 4\ndo i = 1, 8\n! probably 0.25\nif (a(i) > 0.0) a(i) = 1.0\nend do\nend\n",
	"hint-tab":        "program p\nreal a(8)\n!trip\t5\ndo i = 1, 8\na(i) = 0.0\nend do\nend\n",
	"lex-after-parse": "program p\nreal a(4)\na(1) = = 2\nend\n@\n",
	"lex-after-dot":   "program p\nx = 1 +\nend\ny = 1 .foo. 2\n",
	"parse-only":      "program p\nx = 1 +\nend\n",
	"lex-at-start":    "#\nprogram p\nend\n",
	"continuation":    "program p\nx = 1 + &\n  2\nend\n",
	"empty":           "",
	"blank-lines":     "\n\n\nprogram p\n\n\nx = 1\n\n\nend\n\n",
	"subroutine":      "subroutine s(b)\nreal b(8)\nb(1) = 0.0\nend subroutine s\nprogram p\nreal a(8)\ncall s(a)\nend\n",
	"no-program":      "subroutine s\nend\n",
}

func TestFrontEndEdgesMatchBaseline(t *testing.T) {
	for name, src := range frontEndEdges {
		checkFrontEndAgainstBaseline(t, name, src)
	}
	// The lexical error after the parse error is the one reported.
	if _, err := ParseFile(frontEndEdges["lex-after-parse"]); err == nil || err.Error() != `line 5: unexpected character '@'` {
		t.Errorf("lex-after-parse: error %v, want the lexical error on line 5", err)
	}
}

// FuzzLexMatchesBaseline requires the streaming front end to agree with
// the slice baseline on arbitrary bytes: tokens, AST and error text.
func FuzzLexMatchesBaseline(f *testing.F) {
	for _, src := range frontEndEdges {
		f.Add(src)
	}
	f.Add(adiSrc)
	f.Add("program p\nx = 1.5e3 + 2.d0 + .5 + 3 + 4.0d-2 .lt. 1.and.2\nend\n")
	f.Fuzz(func(t *testing.T, src string) {
		checkFrontEndAgainstBaseline(t, "fuzz", src)
	})
}

// randAffineExpr draws an integer expression over the loop variables
// i, j, the parameter n and literals, mixing the operators AffineOf
// folds with ones it rejects, and subtrees whose variables cancel.
func randAffineExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return &IntLit{Val: rng.Intn(13) - 6}
		case 1:
			return &Ref{Name: "n"}
		case 2:
			return &Ref{Name: "j"}
		case 3:
			return &RealLit{Val: 0.5, Text: "0.5"}
		default:
			return &Ref{Name: "i"}
		}
	}
	switch rng.Intn(8) {
	case 0:
		return &Un{Neg: true, X: randAffineExpr(rng, depth-1)}
	case 1:
		x := randAffineExpr(rng, depth-1)
		return &Bin{Op: Sub, L: x, R: x} // cancels when affine
	case 2:
		return &Un{Neg: false, X: randAffineExpr(rng, depth-1)}
	}
	ops := []BinKind{Add, Sub, Mul, Div, Pow}
	return &Bin{Op: ops[rng.Intn(len(ops))], L: randAffineExpr(rng, depth-1), R: randAffineExpr(rng, depth-1)}
}

// TestQuickAffineOfMatchesBaseline: on random expressions AffineOf
// agrees with the per-sub-expression baseline.
func TestQuickAffineOfMatchesBaseline(t *testing.T) {
	u := &Unit{Params: map[string]int{"n": 12}}
	check := func(seed int64) bool {
		e := randAffineExpr(rand.New(rand.NewSource(seed)), 4)
		checkAffineAgainstBaseline(t, "quick", u, e)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAffineOfLongProductChain: the parser builds a chain of products
// left-deep, and AffineOf must analyse each factor once.  A second
// pass over the left factor at every level would take about 2^60 steps
// on this subscript, and the test would time out.
func TestAffineOfLongProductChain(t *testing.T) {
	for _, chain := range []string{
		"i" + strings.Repeat("*2", 59),
		"2*" + strings.Repeat("i*", 30) + "3",
		strings.Repeat("2*", 59) + "i",
		"(i+j)" + strings.Repeat("*2", 59) + "-i" + strings.Repeat("*2", 59),
	} {
		u := analyzeSrc(t, "program p\ninteger i, j\nreal a(8)\na("+chain+") = 0.0\nend\n")
		sub := u.Prog.Body[0].(*Assign).LHS.Subs[0]
		done := make(chan struct{})
		go func() {
			u.AffineOf(sub)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("AffineOf on a %d-byte product chain did not finish in 10 s", len(chain))
		}
		checkAffineAgainstBaseline(t, chain[:min(len(chain), 20)], u, sub)
	}
}
