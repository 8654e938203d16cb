package fortran_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
)

// goldenSources returns the 7 programs of the root golden corpus
// (golden_test.go; adi128 is testdata/adi128.f) and every other
// testdata/*.f file.
func goldenSources(t *testing.T) map[string]string {
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
		"quickstart": example("quickstart"),
		"conflict":   example("conflict"),
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata/*.f: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		srcs[filepath.Base(f)] = read("testdata", filepath.Base(f))
	}
	return srcs
}

// corpusSources is the golden sources, 200 pcfg.MutateProgram edits of
// them (one chain of successive edits per program), and both scale
// families at their benchmark sizes.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	goldens := goldenSources(t)
	var names []string
	for name := range goldens {
		names = append(names, name)
	}
	slices.Sort(names)
	srcs := maps.Clone(goldens)
	last := maps.Clone(goldens)
	for i := 0; i < 200; i++ {
		name := names[i%len(names)]
		edited, _, err := pcfg.MutateProgram(last[name], int64(9000+i), pcfg.Options{})
		if err != nil {
			t.Fatalf("%s edit %d: %v", name, i, err)
		}
		srcs[fmt.Sprintf("%s/edit%d", name, i)] = edited
		last[name] = edited
	}
	for fam, n := range map[pcfg.ScaleFamily]int{pcfg.StencilDeep: 500, pcfg.ConflictRing: 200} {
		src, err := pcfg.ScaleProgram(fam, n)
		if err != nil {
			t.Fatal(err)
		}
		srcs[fmt.Sprintf("%s-%d", fam, n)] = src
	}
	return srcs
}

// TestCorpusFrontEndMatchesBaseline: on the corpus and 200 edits of it
// the streaming front end gives the slice baseline's tokens, AST and
// errors, and AffineOf the per-sub-expression baseline's form on every
// subscript and loop bound (and every sub-expression of them).
func TestCorpusFrontEndMatchesBaseline(t *testing.T) {
	forms := 0
	for name, src := range corpusSources(t) {
		fortran.CheckFrontEndAgainstBaseline(t, name, src)
		prog, err := fortran.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u, err := fortran.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check := func(e fortran.Expr) {
			fortran.WalkExpr(e, func(x fortran.Expr) {
				forms++
				fortran.CheckAffineAgainstBaseline(t, name, u, x)
			})
		}
		subscripts := func(e fortran.Expr) {
			for _, r := range fortran.Refs(e) {
				for _, s := range r.Subs {
					check(s)
				}
			}
		}
		fortran.WalkStmts(prog.Body, func(s fortran.Stmt) {
			switch s := s.(type) {
			case *fortran.Do:
				check(s.Lo)
				check(s.Hi)
				if s.Step != nil {
					check(s.Step)
				}
			case *fortran.Assign:
				subscripts(s.LHS)
				subscripts(s.RHS)
			case *fortran.If:
				subscripts(s.Cond)
			}
		})
	}
	if forms < 10000 {
		t.Errorf("checked %d affine forms, want the corpus's subscripts and bounds", forms)
	}
}
