package fortran

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func analyzeSrc(t *testing.T, src string) *Unit {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestAnalyzeArrays(t *testing.T) {
	u := analyzeSrc(t, adiSrc)
	x := u.Arrays["x"]
	if x == nil || !reflect.DeepEqual(x.Extents, []int{8, 8}) {
		t.Fatalf("x = %+v, want extents [8 8]", x)
	}
	if x.Elems() != 64 || x.Bytes() != 512 {
		t.Errorf("elems/bytes = %d/%d, want 64/512", x.Elems(), x.Bytes())
	}
	if u.MaxRank() != 2 {
		t.Errorf("max rank = %d, want 2", u.MaxRank())
	}
	if !reflect.DeepEqual(u.TemplateExtents(), []int{8, 8}) {
		t.Errorf("template = %v, want [8 8]", u.TemplateExtents())
	}
}

func TestImplicitScalarTyping(t *testing.T) {
	u := analyzeSrc(t, `
program p
  real a(4)
  do i = 1, 4
    a(i) = x + 1.0
  end do
end
`)
	if s := u.Scalars["i"]; s == nil || s.Type != Integer {
		t.Errorf("i = %+v, want implicit integer", s)
	}
	if s := u.Scalars["x"]; s == nil || s.Type != Real {
		t.Errorf("x = %+v, want implicit real", s)
	}
}

func TestTemplateExtentsMixedRank(t *testing.T) {
	u := analyzeSrc(t, `
program p
  parameter (n = 16, m = 9)
  real a(n,m), b(m), c(n)
  a(1,1) = b(1) + c(1)
end
`)
	if !reflect.DeepEqual(u.TemplateExtents(), []int{16, 9}) {
		t.Errorf("template = %v, want [16 9]", u.TemplateExtents())
	}
}

func TestAffineOf(t *testing.T) {
	u := analyzeSrc(t, `
program p
  parameter (n = 10)
  real a(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = a(i,j)
    end do
  end do
end
`)
	cases := []struct {
		src       string
		wantOK    bool
		wantConst int
		wantVars  map[string]int
	}{
		{"i", true, 0, map[string]int{"i": 1}},
		{"i+1", true, 1, map[string]int{"i": 1}},
		{"i-1", true, -1, map[string]int{"i": 1}},
		{"2*i + 3*j - 4", true, -4, map[string]int{"i": 2, "j": 3}},
		{"n - i", true, 10, map[string]int{"i": -1}},
		{"-(i - j)", true, 0, map[string]int{"i": -1, "j": 1}},
		{"i - i", true, 0, map[string]int{}},
		{"i*j", false, 0, nil},
		{"n/2", true, 5, map[string]int{}},
		{"n*n", true, 100, map[string]int{}},
	}
	for _, tc := range cases {
		prog := MustParse("program q\nreal z(100,100)\nz(1, " + tc.src + ") = 0.0\nend")
		e := prog.Body[0].(*Assign).LHS.Subs[1]
		a, ok := u.AffineOf(e)
		if ok != tc.wantOK {
			t.Errorf("%s: ok = %v, want %v", tc.src, ok, tc.wantOK)
			continue
		}
		if !ok {
			continue
		}
		if a.Const != tc.wantConst {
			t.Errorf("%s: const = %d, want %d", tc.src, a.Const, tc.wantConst)
		}
		for v, c := range tc.wantVars {
			if a.Coeffs[v] != c {
				t.Errorf("%s: coeff(%s) = %d, want %d", tc.src, v, a.Coeffs[v], c)
			}
		}
		if len(a.Vars()) != len(tc.wantVars) {
			t.Errorf("%s: vars = %v, want %v", tc.src, a.Vars(), tc.wantVars)
		}
	}
}

func TestAffineSingleVar(t *testing.T) {
	u := analyzeSrc(t, "program p\nreal a(4)\na(1) = 0.0\nend")
	a := Affine{Coeffs: map[string]int{"i": 2}, Const: 1}
	v, c, ok := a.SingleVar()
	if !ok || v != "i" || c != 2 {
		t.Errorf("SingleVar = %v %v %v", v, c, ok)
	}
	_ = u
	b := Affine{Coeffs: map[string]int{"i": 1, "j": 1}}
	if _, _, ok := b.SingleVar(); ok {
		t.Error("two-variable form reported single")
	}
}

// TestQuickAffineLinearity: AffineOf distributes over + and scalar *.
func TestQuickAffineLinearity(t *testing.T) {
	u := analyzeSrc(t, "program p\nreal a(4)\na(1) = 0.0\nend")
	vars := []string{"i", "j", "k"}
	randExpr := func(rng *rand.Rand) Expr {
		v := vars[rng.Intn(len(vars))]
		c := rng.Intn(9) - 4
		k := rng.Intn(21) - 10
		// c*v + k
		return &Bin{Op: Add, L: &Bin{Op: Mul, L: &IntLit{Val: c}, R: &Ref{Name: v}}, R: &IntLit{Val: k}}
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e1, e2 := randExpr(rng), randExpr(rng)
		sum := &Bin{Op: Add, L: e1, R: e2}
		a1, ok1 := u.AffineOf(e1)
		a2, ok2 := u.AffineOf(e2)
		as, oks := u.AffineOf(sum)
		if !ok1 || !ok2 || !oks {
			return false
		}
		if as.Const != a1.Const+a2.Const {
			return false
		}
		for _, v := range vars {
			if as.Coeffs[v] != a1.Coeffs[v]+a2.Coeffs[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		a    Affine
		want string
	}{
		{Affine{Const: 5}, "5"},
		{Affine{Coeffs: map[string]int{"i": 1}}, "i"},
		{Affine{Coeffs: map[string]int{"i": 1}, Const: -1}, "i-1"},
		{Affine{Coeffs: map[string]int{"i": 2, "j": -1}, Const: 3}, "2*i-j+3"},
		{Affine{}, "0"},
	}
	for _, tc := range cases {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestDataTypeSize(t *testing.T) {
	if Integer.Size() != 4 || Real.Size() != 4 || Double.Size() != 8 {
		t.Error("element sizes wrong")
	}
}
