package dep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
)

func phaseInfo(t *testing.T, src string) *PhaseInfo {
	t.Helper()
	u, err := fortran.Analyze(fortran.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(u, u.Prog.Body, 100)
}

func TestColumnSweepDependence(t *testing.T) {
	// Adi column sweep: x(i,j) depends on x(i-1,j) — dim 0, carried by
	// the inner loop i.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  double precision x(n,n), a(n,n)
  do j = 1, n
    do i = 2, n
      x(i,j) = x(i,j) - x(i-1,j)*a(i,j)
    end do
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1", deps)
	}
	d := deps[0]
	if d.Array != "x" || d.CarrierVar != "i" || d.CarrierLevel != 1 {
		t.Errorf("dep = %+v, want x carried by i at level 1", d)
	}
	if d.Distances["i"] != 1 {
		t.Errorf("distance = %v, want i:1", d.Distances)
	}
	if len(d.ArrayDims) != 1 || d.ArrayDims[0] != 0 {
		t.Errorf("array dims = %v, want [0]", d.ArrayDims)
	}
}

func TestRowSweepDependence(t *testing.T) {
	// Row sweep: x(i,j) depends on x(i,j-1) — dim 1, carried by the
	// outer loop j.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  double precision x(n,n), a(n,n)
  do j = 2, n
    do i = 1, n
      x(i,j) = x(i,j) - x(i,j-1)*a(i,j)
    end do
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1", deps)
	}
	d := deps[0]
	if d.CarrierVar != "j" || d.CarrierLevel != 0 {
		t.Errorf("dep = %+v, want carried by j at level 0", d)
	}
	if len(d.ArrayDims) != 1 || d.ArrayDims[0] != 1 {
		t.Errorf("array dims = %v, want [1]", d.ArrayDims)
	}
}

func TestStencilHasNoFlowDependence(t *testing.T) {
	// Jacobi-style stencil writes unew, reads u: no loop-carried flow
	// dependence within the phase.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real unew(n,n), u(n,n)
  do j = 2, n-1
    do i = 2, n-1
      unew(i,j) = 0.25*(u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
    end do
  end do
end
`)
	if deps := pi.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none", deps)
	}
}

func TestAntiDirectionIsNotFlow(t *testing.T) {
	// x(i) = x(i+1): the read is of a later-written element only in the
	// anti direction; no flow serialization.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n)
  do i = 1, n-1
    x(i) = x(i+1)
  end do
end
`)
	if deps := pi.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none (anti only)", deps)
	}
}

func TestZIVDifferentConstantsNoDep(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n,n)
  do i = 1, n
    x(i,1) = x(i,2)
  end do
end
`)
	if deps := pi.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none (ZIV disproves)", deps)
	}
}

func TestNonUnitDistance(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 16)
  real x(n)
  do i = 3, n
    x(i) = x(i-3)
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 || deps[0].Distances["i"] != 3 {
		t.Fatalf("deps = %+v, want distance 3", deps)
	}
}

func TestStrideCoefficient(t *testing.T) {
	// x(2i) = x(2i-2): distance (0 - (-2))/2 = 1.
	pi := phaseInfo(t, `
program p
  parameter (n = 32)
  real x(n)
  do i = 2, n/2
    x(2*i) = x(2*i - 2)
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 || deps[0].Distances["i"] != 1 {
		t.Fatalf("deps = %+v, want distance 1", deps)
	}
	// x(2i) = x(2i-1): offsets differ by 1, not divisible by 2 — no dep.
	pi2 := phaseInfo(t, `
program p
  parameter (n = 32)
  real x(n)
  do i = 1, n/2
    x(2*i) = x(2*i - 1)
  end do
end
`)
	if deps := pi2.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none (GCD disproves)", deps)
	}
}

// reductions returns the phase's reduction assignments.
func reductions(pi *PhaseInfo) []*AssignInfo {
	var out []*AssignInfo
	for _, a := range pi.Assigns {
		if a.IsReduction {
			out = append(out, a)
		}
	}
	return out
}

func TestScalarReductionDetected(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n), s
  do i = 1, n
    s = s + x(i)*x(i)
  end do
end
`)
	reds := reductions(pi)
	if len(reds) != 1 || reds[0].ScalarLHS != "s" {
		t.Fatalf("reductions = %+v, want s", reds)
	}
}

func TestArrayReductionDetected(t *testing.T) {
	// Row sums: a(i) = a(i) + b(i,j) reduces over j.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real a(n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i) = a(i) + b(i,j)
    end do
  end do
end
`)
	if reds := reductions(pi); len(reds) != 1 {
		t.Fatalf("reductions = %+v, want 1", reds)
	}
}

func TestElementwiseUpdateIsNotReduction(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real a(n)
  do i = 1, n
    a(i) = a(i) + 1.0
  end do
end
`)
	if reds := reductions(pi); len(reds) != 0 {
		t.Errorf("reductions = %+v, want none", reds)
	}
}

func TestMinReduction(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real a(n), s
  do i = 1, n
    s = min(s, a(i))
  end do
end
`)
	if reds := reductions(pi); len(reds) != 1 {
		t.Errorf("reductions = %+v, want 1", reds)
	}
}

func TestNestSpine(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8, m = 4)
  real a(n,m)
  do j = 1, m
    do i = 1, n
      a(i,j) = 0.0
    end do
  end do
end
`)
	if len(pi.Nest) != 2 {
		t.Fatalf("nest = %+v, want 2 loops", pi.Nest)
	}
	if pi.Nest[0].Var != "j" || pi.Nest[0].Trip != 4 || pi.Nest[0].Level != 0 {
		t.Errorf("outer = %+v", pi.Nest[0])
	}
	if pi.Nest[1].Var != "i" || pi.Nest[1].Trip != 8 || pi.Nest[1].Level != 1 {
		t.Errorf("inner = %+v", pi.Nest[1])
	}
}

func TestImperfectNestSpineStops(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real a(n,n), s
  do j = 1, n
    s = 0.0
    do i = 1, n
      a(i,j) = s
    end do
  end do
end
`)
	if len(pi.Nest) != 1 {
		t.Errorf("nest = %+v, want spine of 1 (imperfect below)", pi.Nest)
	}
	// Assignments still record full loop context.
	if len(pi.Assigns) != 2 {
		t.Fatalf("assigns = %d, want 2", len(pi.Assigns))
	}
	if len(pi.Assigns[1].Loops) != 2 {
		t.Errorf("inner assign loops = %d, want 2", len(pi.Assigns[1].Loops))
	}
}

func TestOpCounts(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 4)
  real x(n), a(n), b(n)
  do i = 1, n
    x(i) = x(i) - a(i)*a(i)/b(i) + sqrt(b(i))
  end do
end
`)
	ops := pi.Assigns[0].Ops
	if ops.AddSub != 2 || ops.Mul != 1 || ops.Div != 1 || ops.Sqrt != 1 {
		t.Errorf("ops = %+v, want 2 addsub, 1 mul, 1 div, 1 sqrt", ops)
	}
	if ops.Loads != 5 || ops.Stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 5/1", ops.Loads, ops.Stores)
	}
	if w := pi.Assigns[0].Iters * pi.Assigns[0].Guard; w != 4 {
		t.Errorf("executions = %v, want 4", w)
	}
}

func TestGuardProbability(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 4)
  real a(n)
  do i = 1, n
    !prob 0.3
    if (a(i) .gt. 0.0) then
      a(i) = a(i) - 1.0
    end if
  end do
end
`)
	if g := pi.Assigns[0].Guard; g != 0.3 {
		t.Errorf("guard = %v, want 0.3", g)
	}
}

func TestWriteReadSets(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 4)
  real a(n), b(n), c(n)
  do i = 1, n
    a(i) = b(i) + c(i)
  end do
end
`)
	if !pi.WriteSet["a"] || pi.WriteSet["b"] {
		t.Errorf("write set = %v", pi.WriteSet)
	}
	if !pi.ReadSet["b"] || !pi.ReadSet["c"] || pi.ReadSet["a"] {
		t.Errorf("read set = %v", pi.ReadSet)
	}
}

func TestCoupledInconsistentNoDep(t *testing.T) {
	// write x(i,i), read x(i-1, i-2): dim0 distance 1, dim1 distance 2,
	// inconsistent for the single variable i — no dependence.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n,n)
  do i = 3, n
    x(i,i) = x(i-1,i-2)
  end do
end
`)
	if deps := pi.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none (inconsistent coupling)", deps)
	}
}

func TestTransposedReadUnknownDep(t *testing.T) {
	// write x(i,j), read x(j,i): different variables per dim — a
	// conservative unknown dependence carried at the outer level.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n,n)
  do j = 1, n
    do i = 1, n
      x(i,j) = x(j,i) + 1.0
    end do
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1 conservative dep", deps)
	}
	if deps[0].CarrierLevel != 0 || len(deps[0].Unknown) == 0 {
		t.Errorf("dep = %+v, want unknown carried at level 0", deps[0])
	}
}

func TestDescendingLoopFlowDependence(t *testing.T) {
	// Backward substitution: do i = n-1, 1, -1 reads x(i+1), written in
	// the *previous* iteration of the descending loop — a flow
	// dependence despite the positive index offset.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n), b(n)
  do i = n-1, 1, -1
    x(i) = x(i+1) * b(i)
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1 (descending flow)", deps)
	}
	if deps[0].CarrierVar != "i" {
		t.Errorf("carrier = %s, want i", deps[0].CarrierVar)
	}
}

func TestDescendingLoopAntiOnly(t *testing.T) {
	// In a descending loop, x(i) = x(i-1) is the anti direction.
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n)
  do i = n, 2, -1
    x(i) = x(i-1)
  end do
end
`)
	if deps := pi.FlowDeps(); len(deps) != 0 {
		t.Errorf("deps = %+v, want none (anti in descending loop)", deps)
	}
}

func TestCoupledVariableSubscript(t *testing.T) {
	// a(i+j) is affine in two variables: Single is false, so the
	// dependence machinery goes conservative.
	pi := phaseInfo(t, `
program p
  parameter (n = 16)
  real x(n), y(n,n)
  do j = 1, n/2
    do i = 1, n/2
      x(i+j) = x(i+j-1) + y(i,j)
    end do
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1 conservative", deps)
	}
	if len(deps[0].Unknown) == 0 {
		t.Errorf("dep = %+v, want unknown (two-variable subscript)", deps[0])
	}
}

func TestSymbolicConstantSubscript(t *testing.T) {
	// x(m) with m a runtime scalar: non-affine constant; conservative.
	pi := phaseInfo(t, `
program p
  parameter (n = 16)
  real x(n)
  integer m
  do i = 1, n
    x(i) = x(m)
  end do
end
`)
	deps := pi.FlowDeps()
	if len(deps) != 1 {
		t.Fatalf("deps = %+v, want 1 conservative (symbolic subscript)", deps)
	}
}

func TestReverseIterationTripCount(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 10)
  real x(n)
  do i = n, 1, -2
    x(i) = 0.0
  end do
end
`)
	if pi.Nest[0].Trip != 5 {
		t.Errorf("trip = %d, want 5", pi.Nest[0].Trip)
	}
	if pi.Nest[0].Step != -2 {
		t.Errorf("step = %d, want -2", pi.Nest[0].Step)
	}
}

func TestOpCountPow(t *testing.T) {
	pi := phaseInfo(t, `
program p
  parameter (n = 4)
  real x(n)
  do i = 1, n
    x(i) = x(i)**2 + exp(x(i))
  end do
end
`)
	ops := pi.Assigns[0].Ops
	if ops.Pow != 1 || ops.Intrinsic != 1 {
		t.Errorf("ops = %+v, want 1 pow, 1 intrinsic", ops)
	}
}

func TestLoopInvariantWriteConservative(t *testing.T) {
	// x(1) = x(1) + y(i): an accumulation into a fixed element is a
	// reduction (the i loop never appears on the LHS).
	pi := phaseInfo(t, `
program p
  parameter (n = 8)
  real x(n), y(n)
  do i = 1, n
    x(1) = x(1) + y(i)
  end do
end
`)
	if reds := reductions(pi); len(reds) != 1 {
		t.Errorf("reductions = %+v, want 1", reds)
	}
}

// isReductionBaseline is the reduction test as it stood before the
// subscript forms were shared: it renders the target and every RHS
// reference with String and re-derives every subscript's affine form.
// It is the differential oracle for isReduction.
func isReductionBaseline(u *fortran.Unit, s *fortran.Assign) bool {
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
	// For array targets, the subscripts must not use every loop var.
	if arr := u.Arrays[s.LHS.Name]; arr != nil {
		vars := map[string]bool{}
		for _, sub := range s.LHS.Subs {
			if aff, ok := u.AffineOf(sub); ok {
				for _, v := range aff.Vars() {
					vars[v] = true
				}
			}
		}
		rhsVars := map[string]bool{}
		for _, r := range fortran.Refs(s.RHS) {
			for _, sub := range r.Subs {
				if aff, ok := u.AffineOf(sub); ok {
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

// subsBaseline is refInfo's subscript analysis as it stood before: the
// single variable read off the sorted variable list.
func subsBaseline(u *fortran.Unit, r *fortran.Ref) []SubInfo {
	var out []SubInfo
	for _, sub := range r.Subs {
		si := SubInfo{}
		if aff, ok := u.AffineOf(sub); ok {
			si.Affine = aff
			si.OK = true
			si.Const = aff.Const
			if vs := aff.Vars(); len(vs) == 1 {
				si.Var, si.Coeff, si.Single = vs[0], aff.Coeffs[vs[0]], true
			}
		}
		out = append(out, si)
	}
	return out
}

// checkAgainstBaseline compares every assignment of pi with the
// baselines: the reduction flag, the subscript forms of the target and
// of every read, and the reads themselves (every RHS reference to an
// array, in order).  It returns the number of assignments checked.
func checkAgainstBaseline(t *testing.T, where string, u *fortran.Unit, pi *PhaseInfo) int {
	t.Helper()
	for _, ai := range pi.Assigns {
		s := ai.Stmt
		if got, want := ai.IsReduction, isReductionBaseline(u, s); got != want {
			t.Errorf("%s: %s = %s: IsReduction %v, baseline %v", where, s.LHS, s.RHS, got, want)
		}
		if ai.LHS != nil && !reflect.DeepEqual(ai.LHS.Subs, subsBaseline(u, s.LHS)) {
			t.Errorf("%s: %s: target subscripts %+v, baseline %+v", where, s.LHS, ai.LHS.Subs, subsBaseline(u, s.LHS))
		}
		var reads []*fortran.Ref
		for _, r := range fortran.Refs(s.RHS) {
			if u.Arrays[r.Name] != nil {
				reads = append(reads, r)
			}
		}
		if len(reads) != len(ai.Reads) {
			t.Errorf("%s: %s = %s: %d reads, baseline %d", where, s.LHS, s.RHS, len(ai.Reads), len(reads))
			continue
		}
		for i, r := range reads {
			if ai.Reads[i].Ref != r || !reflect.DeepEqual(ai.Reads[i].Subs, subsBaseline(u, r)) {
				t.Errorf("%s: read %s: subscripts %+v, baseline %+v", where, r, ai.Reads[i].Subs, subsBaseline(u, r))
			}
		}
	}
	return len(pi.Assigns)
}

// corpusSources returns the 7 golden programs of the root corpus
// (golden_test.go), a program of reductions and recurrences, and one
// program of each scale family.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	read := func(path ...string) string {
		b, err := os.ReadFile(filepath.Join(append([]string{"..", ".."}, path...)...))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	example := func(dir string) string {
		m := regexp.MustCompile("(?s)const src = `\n(.*?)`").FindStringSubmatch(read("examples", dir, "main.go"))
		if m == nil {
			t.Fatalf("examples/%s/main.go has no `const src` block", dir)
		}
		return m[1]
	}
	srcs := map[string]string{
		"adi":        programs.Adi(48, fortran.Double),
		"erlebacher": programs.Erlebacher(16, fortran.Double),
		"tomcatv":    programs.Tomcatv(32, fortran.Double),
		"shallow":    programs.Shallow(32, fortran.Real),
		"adi128":     read("testdata", "adi128.f"),
		"quickstart": example("quickstart"),
		"conflict":   example("conflict"),
	}
	// Accumulations and recurrences side by side: a reference to the
	// target's array with other subscripts is not the target.
	srcs["reductions"] = `program red
  parameter (n = 32)
  real a(n,n), b(n), c(n), s
  do j = 1, n
    do i = 2, n
      s = s + a(i,j)
      b(j) = b(j) + a(i,j)
      c(i) = c(i-1) + a(i,j)
      c(i) = max(c(i), a(i,j))
      b(i) = b(i) * b(i)
      b(j) = min(b(j), c(i) - a(j,i))
      c(i) = c(i) + a(i,1)
    end do
  end do
end
`
	for _, fam := range pcfg.ScaleFamilies {
		src, err := pcfg.ScaleProgram(fam, 40)
		if err != nil {
			t.Fatal(err)
		}
		srcs[string(fam)] = src
	}
	return srcs
}

// analyzeSource runs the front end core runs and checks every phase
// against the baselines.
func analyzeSource(t *testing.T, name, src string) int {
	t.Helper()
	prog, err := fortran.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	u, err := fortran.Analyze(prog)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, err := pcfg.Build(u, pcfg.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := 0
	for _, ph := range g.Phases {
		n += checkAgainstBaseline(t, fmt.Sprintf("%s phase %d", name, ph.ID), u, Analyze(u, ph.Stmts(), 100))
	}
	return n
}

// TestCorpusMatchesBaseline compares IsReduction and every SubInfo with
// the baselines on every assignment of the golden programs, the
// reductions program, both scale families, and 200 seeded one-phase
// edits of the goldens.
func TestCorpusMatchesBaseline(t *testing.T) {
	srcs := corpusSources(t)
	assigns := 0
	for name, src := range srcs {
		assigns += analyzeSource(t, name, src)
	}
	goldens := []string{"adi", "adi128", "conflict", "erlebacher", "quickstart", "shallow", "tomcatv"}
	for seed := int64(0); seed < 200; seed++ {
		name := goldens[seed%int64(len(goldens))]
		edited, _, err := pcfg.MutateProgram(srcs[name], seed, pcfg.Options{})
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		assigns += analyzeSource(t, fmt.Sprintf("%s edit %d", name, seed), edited)
	}
	t.Logf("%d assignments checked", assigns)
}
