// Incremental golden parity: for every program in the golden corpus,
// a chain of seeded one-phase edits pushed through Session.Update must
// render byte-identically to a cold core.Analyze of each edited
// source.  This is the end-to-end contract of the incremental pipeline
// — per-phase reuse, the alignment memo, the carried shared cache and
// the warm-started selection are latency optimizations, never behavior
// changes — proven over the same corpus the golden files pin.
package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/machine"
	"repro/internal/pcfg"
	"repro/internal/programs"
	"repro/internal/stage"
)

func TestIncrementalGoldenParity(t *testing.T) {
	adi128, err := os.ReadFile(filepath.Join("testdata", "adi128.f"))
	if err != nil {
		t.Fatal(err)
	}
	corpus := []struct {
		name string
		src  string
	}{
		{"adi", programs.Adi(48, fortran.Double)},
		{"erlebacher", programs.Erlebacher(16, fortran.Double)},
		{"tomcatv", programs.Tomcatv(32, fortran.Double)},
		{"shallow", programs.Shallow(32, fortran.Real)},
		{"adi128", string(adi128)},
		{"quickstart", exampleSource(t, "quickstart")},
		{"conflict", exampleSource(t, "conflict")},
	}
	const editsPerProgram = 2
	for pi, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			opt := core.Options{Procs: 8, Verify: core.VerifyOn}
			sess, err := core.NewSession(ctx, core.Input{Source: tc.src}, opt)
			if err != nil {
				t.Fatal(err)
			}
			src := tc.src
			for i := 0; i < editsPerProgram; i++ {
				next, m, merr := pcfg.MutateProgram(src, int64(100*pi+i), pcfg.Options{})
				if merr != nil {
					t.Fatalf("edit %d: %v", i, merr)
				}
				src = next
				warm, werr := sess.Update(ctx, src, core.Options{})
				if werr != nil {
					t.Fatalf("edit %d (%v): Update: %v", i, m, werr)
				}
				cold, cerr := core.Analyze(ctx, core.Input{Source: src}, opt)
				if cerr != nil {
					t.Fatalf("edit %d: cold Analyze: %v", i, cerr)
				}
				if got, want := goldenRender(warm), goldenRender(cold); got != want {
					t.Errorf("edit %d (%v): incremental Update diverged from cold Analyze:\n--- warm ---\n%s\n--- cold ---\n%s",
						i, m, got, want)
				}
				if warm.Incremental.Edits != int64(i+1) {
					t.Errorf("edit %d: incremental edit counter = %d", i, warm.Incremental.Edits)
				}
			}
		})
	}
}

// TestRepostGoldenParity: re-posting the source a session was last
// given — the daemon re-pricing a program at another processor count or
// on another machine — skips the front half and still renders and
// chooses exactly
// what a cold core.Analyze does, at every paper processor count on both
// paper machines.  A fresh copy of the source re-posts too: the match
// is by bytes, not by pointer.
func TestRepostGoldenParity(t *testing.T) {
	for _, tc := range goldenCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			sess, err := core.NewSession(ctx, core.Input{Source: tc.src}, core.Options{Procs: 8})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Update(ctx, tc.src, core.Options{}); err != nil {
				t.Fatal(err)
			}
			for _, m := range []*machine.Model{machine.IPSC860(), machine.Paragon()} {
				for _, procs := range []int{2, 4, 8, 16, 32} {
					opt := core.Options{Procs: procs, Machine: m, Verify: core.VerifyOn}
					cold, err := core.Analyze(ctx, core.Input{Source: tc.src}, opt)
					if err != nil {
						t.Fatalf("%s procs %d: cold Analyze: %v", m.Name(), procs, err)
					}
					for _, src := range []string{tc.src, string([]byte(tc.src))} {
						warm, err := sess.Update(ctx, src, opt)
						if err != nil {
							t.Fatalf("%s procs %d: Update: %v", m.Name(), procs, err)
						}
						if got := warm.Incremental.Stages[stage.Parse]; got != (core.StageReuse{Reused: 1}) {
							t.Errorf("%s procs %d: parse = %+v, want reused", m.Name(), procs, got)
						}
						if !slices.Equal(warm.Selection.Choice, cold.Selection.Choice) {
							t.Errorf("%s procs %d: re-post chose %v, cold Analyze %v",
								m.Name(), procs, warm.Selection.Choice, cold.Selection.Choice)
						}
						if got, want := goldenRender(warm), goldenRender(cold); got != want {
							t.Fatalf("%s procs %d: re-post diverged from cold Analyze:\n--- re-post ---\n%s\n--- cold ---\n%s",
								m.Name(), procs, got, want)
						}
					}
				}
			}
		})
	}
}
