// Golden end-to-end regression corpus: for each program in the corpus
// the expected data layout and cost live under testdata/golden/, and
// every run — two cold runs, warm Session and store-warmed re-runs —
// must reproduce them byte for byte.  A behavior change that shifts a
// layout or a cost shows up as a readable golden diff instead of a
// silently different answer.  The runs pass Workers=1 and Workers=8, a
// field the pipeline ignores.
//
// Regenerate after an intentional change with:
//
//	go test -run TestGolden -update
package repro_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/programs"
	"repro/internal/stage"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// exampleSource extracts the `const src = ...` program literal from an
// example's main.go, so the corpus tracks exactly what the examples
// demonstrate without duplicating the programs here.
func exampleSource(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("examples", dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)const src = `\n(.*?)`").FindSubmatch(b)
	if m == nil {
		t.Fatalf("examples/%s/main.go has no `const src` block", dir)
	}
	return string(m[1])
}

// goldenRender is the certified observable of one run: the emitted HPF
// program, the whole-program cost, and the remapping decisions.
func goldenRender(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total_cost_us: %.6f\n", res.TotalCost)
	fmt.Fprintf(&b, "dynamic: %v\n", res.Dynamic)
	for _, rd := range res.Remaps {
		fmt.Fprintf(&b, "remap %d->%d: %s (%.6f us)\n",
			rd.Edge.From, rd.Edge.To, strings.Join(rd.Arrays, ","), rd.Cost)
	}
	b.WriteString(res.EmitHPF())
	return b.String()
}

// goldenCorpus is the 7-program corpus the golden files pin.
func goldenCorpus(t *testing.T) []struct{ name, src string } {
	t.Helper()
	adi128, err := os.ReadFile(filepath.Join("testdata", "adi128.f"))
	if err != nil {
		t.Fatal(err)
	}
	return []struct{ name, src string }{
		{"adi", programs.Adi(48, fortran.Double)},
		{"erlebacher", programs.Erlebacher(16, fortran.Double)},
		{"tomcatv", programs.Tomcatv(32, fortran.Double)},
		{"shallow", programs.Shallow(32, fortran.Real)},
		{"adi128", string(adi128)},
		{"quickstart", exampleSource(t, "quickstart")},
		{"conflict", exampleSource(t, "conflict")},
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, tc := range goldenCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			var renders []string
			for _, workers := range []int{1, 8} {
				res, err := core.Analyze(context.Background(), core.Input{Source: tc.src},
					core.Options{Procs: 8, Workers: workers, Verify: core.VerifyOn})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				renders = append(renders, goldenRender(res))
			}
			if renders[0] != renders[1] {
				t.Fatalf("two cold runs disagree:\n--- first ---\n%s\n--- second ---\n%s", renders[0], renders[1])
			}
			// A warm Session re-run over a shared cache must be
			// byte-identical to the cold runs above: the cached front
			// half and the content-addressed pricing layer are pure
			// reuse, never behavior changes.
			shared := core.NewSharedCache(0)
			sess, err := core.NewSession(context.Background(), core.Input{Source: tc.src},
				core.Options{Procs: 8, Verify: core.VerifyOn, Cache: shared})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				opt := core.Options{Procs: 8, Workers: workers, Verify: core.VerifyOn, Cache: shared}
				if _, err := sess.Analyze(context.Background(), opt); err != nil {
					t.Fatalf("session warm-up workers=%d: %v", workers, err)
				}
				warm, err := sess.Analyze(context.Background(), opt)
				if err != nil {
					t.Fatalf("warm session workers=%d: %v", workers, err)
				}
				if got := goldenRender(warm); got != renders[0] {
					t.Fatalf("warm Session run (workers=%d) differs from cold Analyze:\n--- warm ---\n%s\n--- cold ---\n%s",
						workers, got, renders[0])
				}
			}
			// A store-warmed restart — a later process reopening the same
			// on-disk artifact store with cold in-memory caches — must be
			// byte-identical too, from exactly one record per (program,
			// options): the selection.  The armed-but-empty fault plans
			// only count visits to the solver's sites.
			storeDir := t.TempDir()
			storeRun := func(workers int) (*core.Result, map[string]int) {
				plan := fault.NewPlan(1)
				res, err := core.Analyze(context.Background(), core.Input{Source: tc.src},
					core.Options{Procs: 8, Workers: workers, Verify: core.VerifyOn, StoreDir: storeDir, Fault: plan})
				if err != nil {
					t.Fatalf("store run workers=%d: %v", workers, err)
				}
				return res, plan.Hits()
			}
			filled, coldHits := storeRun(1)
			if s := filled.Cache.Store; s.Hits != 0 || s.Misses != 1 || s.Writes != 1 {
				t.Fatalf("store fill traffic = %+v, want one miss and one write", s)
			}
			// The selection's share of the cold run's solver visits: one
			// root and its nodes when the graph went to the 0-1 ILP, none
			// when the elimination DP answered.
			selRoots, selNodes := 1, filled.Selection.BBNodes
			if filled.Selection.Solver == "tree-dp" {
				selRoots, selNodes = 0, 0
			}
			for _, workers := range []int{1, 8} {
				restarted, hits := storeRun(workers)
				if s := restarted.Cache.Store; s.Hits != 1 || s.Misses != 0 || s.Writes != 0 || s.Entries != 1 {
					t.Fatalf("store-warmed run (workers=%d) traffic = %+v, want exactly one hit", workers, s)
				}
				if got, want := hits[stage.ILPRoot], coldHits[stage.ILPRoot]-selRoots; got != want {
					t.Fatalf("store-warmed run (workers=%d) made %d 0-1 solves, want %d (the alignment's; selection skipped)", workers, got, want)
				}
				if got, want := hits[stage.BBNode], coldHits[stage.BBNode]-selNodes; got != want {
					t.Fatalf("store-warmed run (workers=%d) expanded %d B&B nodes, want %d (the alignment's)", workers, got, want)
				}
				if got := goldenRender(restarted); got != renders[0] {
					t.Fatalf("store-warmed run (workers=%d) differs from cold Analyze:\n--- store-warm ---\n%s\n--- cold ---\n%s",
						workers, got, renders[0])
				}
			}
			if recs, err := filepath.Glob(filepath.Join(storeDir, "*.art")); err != nil || len(recs) != 1 {
				t.Fatalf("store directory holds %d records (err %v), want 1", len(recs), err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(renders[0]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if renders[0] != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", tc.name, renders[0], want)
			}
		})
	}
}
