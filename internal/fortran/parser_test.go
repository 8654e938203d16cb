package fortran

import (
	"strings"
	"testing"
)

const adiSrc = `
program adi
  parameter (n = 8)
  double precision x(n,n), a(n,n), b(n,n)
  do iter = 1, 4
    do j = 2, n
      do i = 1, n
        x(i,j) = x(i,j) - x(i,j-1)*a(i,j)/b(i,j-1)
      end do
    end do
    do j = 1, n
      do i = 2, n
        x(i,j) = x(i,j) - x(i-1,j)*a(i,j)/b(i-1,j)
      end do
    end do
  end do
end
`

func TestParseAdi(t *testing.T) {
	prog, err := Parse(adiSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "adi" {
		t.Errorf("name = %q, want adi", prog.Name)
	}
	if len(prog.Params) != 1 || prog.Params[0].Value != 8 {
		t.Errorf("params = %+v, want n=8", prog.Params)
	}
	if len(prog.Decls) != 3 {
		t.Fatalf("decls = %d, want 3", len(prog.Decls))
	}
	if prog.Decls[0].Type != Double || prog.Decls[0].Rank() != 2 {
		t.Errorf("decl x = %+v", prog.Decls[0])
	}
	outer, ok := prog.Body[0].(*Do)
	if !ok || outer.Var != "iter" {
		t.Fatalf("body[0] = %#v, want do iter", prog.Body[0])
	}
	if len(outer.Body) != 2 {
		t.Fatalf("outer body = %d stmts, want 2 sweeps", len(outer.Body))
	}
}

func TestParameterExpressions(t *testing.T) {
	src := `
program p
  parameter (n = 4, m = n*2, k = m + n - 2, l = 2**3)
  real a(n, m), b(k), c(l)
  a(1,1) = 0.0
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"n": 4, "m": 8, "k": 10, "l": 8}
	for _, p := range prog.Params {
		if want[p.Name] != p.Value {
			t.Errorf("param %s = %d, want %d", p.Name, p.Value, want[p.Name])
		}
	}
}

func TestIfElseAndOneLineIf(t *testing.T) {
	src := `
program p
  real a(10), eps
  do i = 1, 10
    !prob 0.25
    if (a(i) .gt. eps) then
      a(i) = a(i) - 1.0
    else
      a(i) = a(i) + 1.0
    end if
    if (a(i) .lt. 0.0) a(i) = 0.0
  end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[0].(*Do)
	iff := loop.Body[0].(*If)
	if iff.ProbHint != 0.25 {
		t.Errorf("prob hint = %v, want 0.25", iff.ProbHint)
	}
	if len(iff.Then) != 1 || len(iff.Else) != 1 {
		t.Errorf("if arms = %d/%d, want 1/1", len(iff.Then), len(iff.Else))
	}
	one := loop.Body[1].(*If)
	if len(one.Then) != 1 || one.Else != nil {
		t.Errorf("one-line if misparsed: %+v", one)
	}
}

func TestTripDirective(t *testing.T) {
	src := `
program p
  real a(100)
  integer m
  !trip 37
  do i = 1, m
    a(i) = 0.0
  end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if d := prog.Body[0].(*Do); d.TripHint != 37 {
		t.Errorf("trip hint = %d, want 37", d.TripHint)
	}
}

// TestHintNeedsExactKeyword: a comment is a !prob or !trip hint only
// when its first word is exactly the keyword; "! tripcount 4" and
// "! probably 0.25" are plain comments, also after a statement.
func TestHintNeedsExactKeyword(t *testing.T) {
	src := `
program p
  real a(100)
  integer m
  ! tripcount 4
  do i = 1, m
    ! probably 0.25
    if (a(i) > 0.0) a(i) = 0.0
  end do
  !TRIP 7
  do i = 1, m
    !Prob 0.5
    if (a(i) > 0.0) a(i) = 1.0
  end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first, second := prog.Body[0].(*Do), prog.Body[1].(*Do)
	if first.TripHint != 0 || first.Body[0].(*If).ProbHint != 0 {
		t.Errorf("look-alike comments set hints: trip %d, prob %v", first.TripHint, first.Body[0].(*If).ProbHint)
	}
	if second.TripHint != 7 || second.Body[0].(*If).ProbHint != 0.5 {
		t.Errorf("exact hints: trip %d, prob %v, want 7 and 0.5", second.TripHint, second.Body[0].(*If).ProbHint)
	}
	if _, err := Parse("program p\nx = 1 ! triple-checked\nend\n"); err != nil {
		t.Errorf("trailing look-alike comment: %v", err)
	}
}

func TestHPFDirectives(t *testing.T) {
	src := `
program p
  real a(8,8), b(8,8)
!hpf$ distribute a(block,*)
!hpf$ align b with a
  a(1,1) = b(1,1)
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Directives) != 2 {
		t.Fatalf("directives = %d, want 2", len(prog.Directives))
	}
	u, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Distributes) != 1 || u.Distributes[0].Array != "a" {
		t.Fatalf("distributes = %+v", u.Distributes)
	}
	if got := u.Distributes[0].Spec; len(got) != 2 || got[0] != DistBlock || got[1] != DistStar {
		t.Errorf("spec = %v, want [BLOCK *]", got)
	}
	if len(u.Aligns) != 1 || u.Aligns[0].Source != "b" || u.Aligns[0].Target != "a" {
		t.Errorf("aligns = %+v", u.Aligns)
	}
}

func TestOperatorsAndIntrinsics(t *testing.T) {
	src := `
program p
  real a(10), s
  do i = 1, 10
    s = sqrt(abs(a(i))) + max(s, a(i))**2
    a(i) = -s / 2.0e-3 + 1.5d0
  end do
end
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestModernRelationalOps(t *testing.T) {
	src := `
program p
  real a(10), s
  do i = 1, 10
    if (a(i) <= s .and. a(i) >= -s .or. .not. a(i) == 0.0) then
      a(i) = 0.0
    end if
  end do
end
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing program", "real a(10)\nend\n", "expected PROGRAM or SUBROUTINE"},
		{"unclosed do", "program p\nreal a(4)\ndo i = 1, 4\na(i) = 0.0\nend\n", "expected"},
		{"bad char", "program p\nreal a(4)\na(1) = 0.0 ? 1\nend\n", "unexpected character"},
		{"nonconst extent", "program p\ninteger m\nreal a(m)\na(1) = 0.0\nend\n", "not a positive constant"},
		{"rank mismatch", "program p\nreal a(4,4)\na(1) = 0.0\nend\n", "rank"},
		{"assign to param", "program p\nparameter (n = 3)\nreal a(n)\nn = 4\nend\n", "parameter"},
		{"undeclared array", "program p\nreal a(4)\nb(1) = 0.0\nend\n", "not a declared array"},
		{"bad dot op", "program p\nreal s\ns = 1 .xyz. 2\nend\n", "unknown operator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err == nil {
				_, err = Analyze(prog)
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got success", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestContinueIsDropped(t *testing.T) {
	src := `
program p
  real a(4)
  do i = 1, 4
    a(i) = 0.0
    continue
  end do
end
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Body[0].(*Do).Body); n != 1 {
		t.Errorf("loop body = %d stmts, want 1 (continue dropped)", n)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{adiSrc, `
program mix
  parameter (n = 6)
  real u(n,n), v(n,n)
  integer it
  do it = 1, 3
    !prob 0.5
    if (u(1,1) .gt. 0.0) then
      do j = 1, n
        do i = 1, n
          u(i,j) = v(i,j) + u(i,j)
        end do
      end do
    else
      v(1,1) = 0.0
    end if
  end do
end
`}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text := Print(p1)
		p2, err := Parse(text)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, text)
		}
		if Print(p2) != text {
			t.Errorf("round trip not stable:\n--- first\n%s\n--- second\n%s", text, Print(p2))
		}
	}
}

func TestLexerNumberForms(t *testing.T) {
	toks, err := Lex("x = 1.5e3 + 2.d0 + .5 + 3 + 4.0d-2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tok := range toks {
		if tok.Kind == REAL || tok.Kind == INT {
			kinds = append(kinds, tok.Kind)
		}
	}
	want := []Kind{REAL, REAL, REAL, INT, REAL}
	if len(kinds) != len(want) {
		t.Fatalf("numeric tokens = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestDotOperatorVsRealLiteral(t *testing.T) {
	// "1.lt.2" must lex as INT DOT-OP INT, not REAL.
	toks, err := Lex("if (1.lt.2) then")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == LT {
			found = true
		}
	}
	if !found {
		t.Errorf(".lt. not recognized in %v", toks)
	}
}

// TestKindNames: every token kind has a name, an unknown kind prints
// its number, and naming a kind allocates nothing.
func TestKindNames(t *testing.T) {
	for k := EOF; k <= DIRECTIVE; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name: %q", int8(k), s)
		}
	}
	if s := Kind(99).String(); s != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", s)
	}
	if n := testing.AllocsPerRun(100, func() { _ = IDENT.String() }); n != 0 {
		t.Errorf("IDENT.String() allocates %v times, want 0", n)
	}
}
