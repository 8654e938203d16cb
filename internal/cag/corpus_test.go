package cag_test

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro/internal/align"
	"repro/internal/cag"
	"repro/internal/dep"
	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
)

// corpusSources returns the 7 programs of the root golden corpus
// (golden_test.go) and one program of each scale family.
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
	for _, fam := range pcfg.ScaleFamilies {
		src, err := pcfg.ScaleProgram(fam, 40)
		if err != nil {
			t.Fatal(err)
		}
		srcs[string(fam)] = src
	}
	return srcs
}

// keptGraph keeps the edges a resolution preserves, as align does for a
// phase whose own CAG conflicts.
func keptGraph(g *cag.Graph, asg map[cag.Node]int) *cag.Graph {
	out := cag.NewGraph()
	for _, a := range g.Arrays() {
		out.AddArray(a, g.Rank(a))
	}
	for _, e := range g.Edges() {
		if asg[e.From] == asg[e.To] {
			out.AddWeight(e.From, e.To, e.Weight)
		}
	}
	return out
}

// TestCorpusConflictMatchesBaseline runs the conflict oracle on every
// CAG align.BuildSearchSpaces builds for the golden programs and both
// scale families: each phase's CAG (and its kept graph when it
// conflicts), each class merge tried in reverse postorder, and each
// scaled import merge.  The classes the walk forms must be the ones
// BuildSearchSpaces reports, so the walk is the one it makes.
func TestCorpusConflictMatchesBaseline(t *testing.T) {
	graphs, conflicts := 0, 0
	check := func(g *cag.Graph, d int) bool {
		graphs++
		c := cag.CheckAgainstBaseline(t, g, d)
		if c {
			conflicts++
		}
		return c
	}
	for name, src := range corpusSources(t) {
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
		infos := map[int]*dep.PhaseInfo{}
		for _, ph := range g.Phases {
			infos[ph.ID] = dep.Analyze(u, ph.Stmts(), 100)
		}
		sp, err := align.BuildSearchSpaces(context.Background(), u, g, infos, align.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := u.MaxRank()
		phaseCAG := map[int]*cag.Graph{}
		for _, ph := range g.Phases {
			pg := align.BuildCAG(u, infos[ph.ID], ph.Freq)
			if check(pg, d) {
				res, err := cag.Resolve(pg, d, nil, nil)
				if err != nil {
					t.Fatalf("%s phase %d: %v", name, ph.ID, err)
				}
				pg = keptGraph(pg, res.Assignment)
				check(pg, d)
			}
			phaseCAG[ph.ID] = pg
		}
		var classes []*cag.Graph
		var members [][]int
		for _, id := range g.ReversePostorder() {
			pg := phaseCAG[id]
			if n := len(classes); n > 0 {
				if merged := classes[n-1].Merge(pg); !check(merged, d) {
					classes[n-1] = merged
					members[n-1] = append(members[n-1], id)
					continue
				}
			}
			classes = append(classes, pg.Clone())
			members = append(members, []int{id})
		}
		if len(classes) != len(sp.Classes) {
			t.Fatalf("%s: the walk formed %d classes, BuildSearchSpaces %d", name, len(classes), len(sp.Classes))
		}
		for i, c := range sp.Classes {
			if !slices.Equal(c.Phases, members[i]) {
				t.Fatalf("%s class %d: phases %v, BuildSearchSpaces %v", name, i, members[i], c.Phases)
			}
			check(classes[i], d)
		}
		for _, sink := range classes {
			for _, src := range classes {
				if src == sink {
					continue
				}
				scaled := src.Clone()
				scaled.ScaleWeights(1000) // align.Options.ImportScale's default
				check(scaled.Merge(sink), d)
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("no CAG of the corpus conflicts")
	}
	t.Logf("%d CAGs checked, %d with a conflict", graphs, conflicts)
}
