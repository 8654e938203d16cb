package layout_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/programs"
)

// goldenSources returns the 7 programs of the root golden corpus
// (golden_test.go).
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
	return map[string]string{
		"adi":        programs.Adi(48, fortran.Double),
		"erlebacher": programs.Erlebacher(16, fortran.Double),
		"tomcatv":    programs.Tomcatv(32, fortran.Double),
		"shallow":    programs.Shallow(32, fortran.Real),
		"adi128":     read("testdata", "adi128.f"),
		"quickstart": example("quickstart"),
		"conflict":   example("conflict"),
	}
}

// TestCorpusKeysMatchBaseline runs the key oracle over every layout
// distrib.BuildSpace considers — each alignment candidate of each phase
// crossed with each distribution candidate, before deduplication — on
// the 7 golden programs at Procs {2,4,8,16,32} with the Cyclic and
// MultiDim extensions each off and on, and over every candidate it keeps.
func TestCorpusKeysMatchBaseline(t *testing.T) {
	layouts := 0
	for name, src := range goldenSources(t) {
		// The alignment spaces do not depend on the distribution options.
		res, err := core.Analyze(context.Background(), core.Input{Source: src}, core.Options{Procs: 2, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, procs := range []int{2, 4, 8, 16, 32} {
			for ext := 0; ext < 4; ext++ {
				opt := distrib.Options{Procs: procs, Cyclic: ext&1 != 0, MultiDim: ext&2 != 0}
				dists := distrib.Candidates(res.Template, opt)
				for _, ph := range res.PCFG.Phases {
					aligns := res.Spaces.PerPhase[ph.ID]
					for _, ac := range aligns {
						for _, dd := range dists {
							layout.CheckAgainstBaseline(t, layout.MustLayout(res.Template, ac.Align, dd))
							layouts++
						}
					}
					for _, pl := range distrib.BuildSpace(res.Template, aligns, opt) {
						layout.CheckAgainstBaseline(t, pl.Layout)
					}
				}
				if t.Failed() {
					t.Fatalf("%s with %+v: keys differ from the baseline", name, opt)
				}
			}
		}
	}
	if layouts == 0 {
		t.Fatal("the corpus produced no layout")
	}
}
