package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/artifact"
	"repro/internal/fortran"
	"repro/internal/machine"
	"repro/internal/pcfg"
	"repro/internal/programs"
	"repro/internal/stage"
)

// goldenSources returns the 7 programs of the root golden corpus
// (golden_test.go), the fixed inputs the benchmark's cold rows run.
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

// TestSessionMatchesColdAnalyze: the tentpole contract.  Re-running the
// back half over a Session's cached front half must produce
// byte-identical results to a cold Analyze with the same options, for
// every (machine, procs, workers) point of a sweep.  And the three ways
// into the pipeline — cold Analyze, NewSession + Session.Analyze,
// NewSession + Update of the same source — share one front-half driver
// and one tier walk, so on every golden program they agree on the
// answer and on the number of distinct pricings and remaps evaluated
// (the per-run miss counters the benchmark's replay is checked against).
func TestSessionMatchesColdAnalyze(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	machines := []*machine.Model{machine.IPSC860(), machine.Paragon()}
	for mi, m := range machines {
		for _, procs := range []int{4, 16} {
			for _, workers := range []int{1, 8} {
				opt := Options{Procs: procs, Machine: m, Workers: workers}
				cold, err := Analyze(ctx, Input{Source: adiSmall}, opt)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := sess.Analyze(ctx, opt)
				if err != nil {
					t.Fatal(err)
				}
				if render(cold) != render(warm) {
					t.Fatalf("machine %d, procs %d, workers %d: session result differs from cold Analyze",
						mi, procs, workers)
				}
				if cold.TotalCost != warm.TotalCost {
					t.Fatalf("cost drift: cold %v, warm %v", cold.TotalCost, warm.TotalCost)
				}
			}
		}
	}
	for name, src := range goldenSources(t) {
		opt := Options{Procs: 8, Workers: 1}
		cold, err := Analyze(ctx, Input{Source: src}, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sess, err := NewSession(ctx, Input{Source: src}, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		warm, err := sess.Analyze(ctx, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		updated, err := sess.Update(ctx, src, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for driver, res := range map[string]*Result{"Session.Analyze": warm, "Session.Update": updated} {
			if !slices.Equal(res.Selection.Choice, cold.Selection.Choice) || res.TotalCost != cold.TotalCost {
				t.Errorf("%s: %s chose %v at %v, cold Analyze %v at %v", name, driver,
					res.Selection.Choice, res.TotalCost, cold.Selection.Choice, cold.TotalCost)
			}
			if res.EmitHPF() != cold.EmitHPF() {
				t.Errorf("%s: %s emits different HPF than cold Analyze", name, driver)
			}
			if res.Cache.Pricing.Misses != cold.Cache.Pricing.Misses || res.Cache.Remap.Misses != cold.Cache.Remap.Misses {
				t.Errorf("%s: %s evaluated %d pricings / %d remaps, cold Analyze %d / %d", name, driver,
					res.Cache.Pricing.Misses, res.Cache.Remap.Misses, cold.Cache.Pricing.Misses, cold.Cache.Remap.Misses)
			}
		}
	}
}

// TestSessionPinsFrontOptions: a front-half option equal to the
// session's, or left zero, is answered from the cached front half
// exactly as a cold run with the session's value; a different value is
// a *ValidationError naming the field, from Analyze and Update alike.
func TestSessionPinsFrontOptions(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: adiSmall}, Options{Procs: 4, DefaultTrip: 50})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Analyze(ctx, Input{Source: adiSmall}, Options{Procs: 8, DefaultTrip: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, trip := range []int{0, 50} {
		warm, err := sess.Analyze(ctx, Options{Procs: 8, DefaultTrip: trip})
		if err != nil {
			t.Fatalf("DefaultTrip %d: %v", trip, err)
		}
		if render(cold) != render(warm) {
			t.Fatalf("DefaultTrip %d: session answer differs from the cold run with the session's DefaultTrip", trip)
		}
	}
	wantFieldError(t, "DefaultTrip", func() error {
		_, err := sess.Analyze(ctx, Options{Procs: 8, DefaultTrip: 999})
		return err
	})
	wantFieldError(t, "DefaultTrip", func() error {
		_, err := sess.Update(ctx, adiSmall, Options{DefaultTrip: 999})
		return err
	})
}

// TestSessionRejectsUnusedFrontOptions is the F7 case: a session built
// on Tomcatv's annotated branch probabilities must not answer a call
// that asks to ignore them (a cold run of that call picks by the
// guessed 50 %), and every one of the six front-half options is
// checked by name.
func TestSessionRejectsUnusedFrontOptions(t *testing.T) {
	ctx := context.Background()
	src := goldenSources(t)["tomcatv"]
	sess, err := NewSession(ctx, Input{Source: src}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantFieldError(t, "PCFG.IgnoreProbHints", func() error {
		_, err := sess.Analyze(ctx, Options{PCFG: pcfg.Options{IgnoreProbHints: true}})
		return err
	})
	wantFieldError(t, "PCFG.IgnoreProbHints", func() error {
		_, err := sess.Update(ctx, src, Options{PCFG: pcfg.Options{IgnoreProbHints: true}})
		return err
	})
	for field, opt := range map[string]Options{
		"DefaultTrip":       {DefaultTrip: 7},
		"PCFG.DefaultTrip":  {PCFG: pcfg.Options{DefaultTrip: 7}},
		"PCFG.DefaultProb":  {PCFG: pcfg.Options{DefaultProb: 0.3}},
		"Align.Greedy":      {Align: align.Options{Greedy: true}},
		"Align.ImportScale": {Align: align.Options{ImportScale: 5}},
	} {
		wantFieldError(t, field, func() error {
			_, err := sess.Analyze(ctx, opt)
			return err
		})
	}
}

// TestSessionAcceptsSpelledOutDefaults: a call that spells out the
// default pcfg or align apply to a zero field means what the zero call
// means, so it answers like the zero call and like a cold run of
// itself; any other value is still rejected by name.
func TestSessionAcceptsSpelledOutDefaults(t *testing.T) {
	ctx := context.Background()
	src := goldenSources(t)["tomcatv"]
	sess, err := NewSession(ctx, Input{Source: src}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := sess.Analyze(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for field, opt := range map[string]Options{
		"PCFG.DefaultTrip":  {PCFG: pcfg.Options{DefaultTrip: 100}},
		"PCFG.DefaultProb":  {PCFG: pcfg.Options{DefaultProb: 0.5}},
		"Align.ImportScale": {Align: align.Options{ImportScale: 1000}},
	} {
		warm, err := sess.Analyze(ctx, opt)
		if err != nil {
			t.Fatalf("%s spelled out: %v", field, err)
		}
		if render(warm) != render(zero) {
			t.Errorf("%s spelled out answers unlike the zero call", field)
		}
		opt.Procs = 8
		cold, err := Analyze(ctx, Input{Source: src}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if render(cold) != render(warm) {
			t.Errorf("%s spelled out answers unlike a cold run of the same call", field)
		}
	}
	for field, opt := range map[string]Options{
		"PCFG.DefaultTrip":  {PCFG: pcfg.Options{DefaultTrip: 50}},
		"PCFG.DefaultProb":  {PCFG: pcfg.Options{DefaultProb: 0.25}},
		"Align.ImportScale": {Align: align.Options{ImportScale: 10}},
	} {
		wantFieldError(t, field, func() error {
			_, err := sess.Analyze(ctx, opt)
			return err
		})
		wantFieldError(t, field, func() error {
			_, err := sess.Update(ctx, src, opt)
			return err
		})
	}
}

// wantFieldError asserts call fails with a *ValidationError whose
// message starts with the field's name.
func wantFieldError(t *testing.T, field string, call func() error) {
	t.Helper()
	err := call()
	var ve *ValidationError
	if !errors.As(err, &ve) || !strings.HasPrefix(ve.Msg, field+" = ") {
		t.Errorf("%s differs from the session's: err = %v (%T), want a *ValidationError naming the field", field, err, err)
	}
}

// TestSessionInheritsDefaults: zero-valued Procs/Machine fall back to
// the session's values.
func TestSessionInheritsDefaults(t *testing.T) {
	sess, err := NewSession(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Machine: machine.Paragon()})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.Analyze(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Machine.Name() != machine.Paragon().Name() {
		t.Errorf("machine = %s, want the session's Paragon", warm.Machine.Name())
	}
	cold, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Machine: machine.Paragon()})
	if err != nil {
		t.Fatal(err)
	}
	if render(cold) != render(warm) {
		t.Fatal("session defaults drifted from cold Analyze")
	}
}

// TestSessionArtifacts: session results carry every front-half
// artifact key, stable across sessions of the same program and
// distinct across programs.
func TestSessionArtifacts(t *testing.T) {
	arts := func(src string, procs int) map[string]artifact.Key {
		t.Helper()
		sess, err := NewSession(context.Background(), Input{Source: src}, Options{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Analyze(context.Background(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Artifacts
	}
	a4, a16 := arts(adiSmall, 4), arts(adiSmall, 16)
	for _, st := range []string{stage.Parse, stage.Dep, stage.AlignSolve} {
		if a4[st] == "" {
			t.Errorf("no artifact key for stage %s", st)
		}
		if a4[st] != a16[st] {
			t.Errorf("stage %s: same program and front-half options, different keys (Procs must not matter)", st)
		}
	}
	if other := arts("program p\nreal a(8)\na(1) = 0.0\nend", 4); other[stage.AlignSolve] == a4[stage.AlignSolve] {
		t.Error("different programs share an alignment artifact key")
	}
}

// TestSessionStageTimes: a session re-run reports only back-half
// stages; the front half lives in FrontTimes.
func TestSessionStageTimes(t *testing.T) {
	sess, err := NewSession(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	front := sess.FrontTimes()
	for _, st := range []string{stage.Parse, stage.Dep, stage.AlignSolve} {
		if front[st] == 0 {
			t.Errorf("front half missing %s timing", st)
		}
	}
	res, err := sess.Analyze(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.StageTimes[stage.Parse] != 0 || res.StageTimes[stage.AlignSolve] != 0 {
		t.Error("session re-run reports front-half stage times it never ran")
	}
	for _, st := range []string{stage.SpaceBuild, stage.Pricing, stage.Selection} {
		if res.StageTimes[st] == 0 {
			t.Errorf("back half missing %s timing", st)
		}
	}
	cold, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{stage.Parse, stage.Dep, stage.AlignSolve, stage.SpaceBuild, stage.Pricing, stage.Selection} {
		if cold.StageTimes[st] == 0 {
			t.Errorf("cold Analyze missing %s timing", st)
		}
	}
}

// TestSharedCacheConcurrentAnalyze hammers one SharedCache from
// parallel Analyze calls over different programs, machines and
// processor counts (run under -race in CI), asserting every concurrent
// result is byte-identical to its uncached cold reference.
func TestSharedCacheConcurrentAnalyze(t *testing.T) {
	second := `
program relax
  parameter (n = 24)
  real u(n,n), f(n,n)
  do it = 1, 5
    do j = 2, n-1
      do i = 2, n-1
        u(i,j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1)) - f(i,j)
      end do
    end do
  end do
end
`
	type point struct {
		src   string
		m     *machine.Model
		procs int
	}
	var points []point
	for _, src := range []string{adiSmall, second} {
		for _, m := range []*machine.Model{machine.IPSC860(), machine.Paragon()} {
			for _, procs := range []int{4, 8} {
				points = append(points, point{src, m, procs})
			}
		}
	}
	refs := make([]string, len(points))
	for i, p := range points {
		res, err := Analyze(context.Background(), Input{Source: p.src},
			Options{Procs: p.procs, Machine: p.m})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = render(res)
	}
	shared := NewSharedCache(0)
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(points))
	for round := 0; round < rounds; round++ {
		for i, p := range points {
			wg.Add(1)
			go func(i int, p point) {
				defer wg.Done()
				res, err := Analyze(context.Background(), Input{Source: p.src},
					Options{Procs: p.procs, Machine: p.m, Workers: 2, Cache: shared})
				if err != nil {
					errs <- err
					return
				}
				if render(res) != refs[i] {
					errs <- fmt.Errorf("point %d: shared-cache result differs from cold reference", i)
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := shared.Stats()
	if st.Hits == 0 {
		t.Error("no shared hits across repeated identical runs")
	}
	if st.Entries == 0 || st.Entries > shared.Len()+1 {
		t.Errorf("implausible entry count %d", st.Entries)
	}
}

// TestSharedCacheStatsInResult: the per-run view of shared traffic is
// consistent — shared lookups happen only after per-run misses, and a
// warm second run is mostly shared hits.
func TestSharedCacheStatsInResult(t *testing.T) {
	shared := NewSharedCache(0)
	opt := Options{Procs: 8, Workers: 4, Cache: shared}
	first, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatal(err)
	}
	sp := first.Cache.SharedPricing
	if got, bound := sp.Hits+sp.Misses, first.Cache.Pricing.Misses; got > bound {
		t.Errorf("shared pricing lookups %d exceed per-run misses %d", got, bound)
	}
	second, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache.SharedPricing.Hits == 0 {
		t.Error("warm second run had no shared pricing hits")
	}
	if second.Cache.SharedPricing.Misses != 0 {
		t.Errorf("warm second run missed the shared cache %d times", second.Cache.SharedPricing.Misses)
	}
	if second.TotalCost != first.TotalCost {
		t.Errorf("shared cache changed the answer: %v vs %v", second.TotalCost, first.TotalCost)
	}
	// NoCache disables the shared layer too.
	off, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Workers: 4, Cache: shared, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Cache != (CacheSummary{}) {
		t.Errorf("NoCache run reported cache traffic: %+v", off.Cache)
	}
	if off.TotalCost != first.TotalCost {
		t.Errorf("NoCache changed the answer: %v vs %v", off.TotalCost, first.TotalCost)
	}
}
