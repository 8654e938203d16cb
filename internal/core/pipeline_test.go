package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/programs"
	"repro/internal/stage"
)

// render is the full observable output of a run: the emitted HPF
// program plus the cost explanation of every phase.  Determinism is
// asserted on this string.
func render(r *Result) string {
	return r.EmitHPF() + "\n" + r.Explain()
}

// repeatedSweeps builds a program of n identical loop nests: every
// phase has the same canonical signature, so a warm pricing cache
// serves all but the first phase's candidates from memory.
func repeatedSweeps(n int) string {
	var b strings.Builder
	b.WriteString("program rep\n  parameter (n = 32)\n  real a(n,n), b(n,n)\n")
	for k := 0; k < n; k++ {
		b.WriteString("  do j = 1, n\n    do i = 1, n\n      a(i,j) = b(i,j) + a(i,j)\n    end do\n  end do\n")
	}
	b.WriteString("end\n")
	return b.String()
}

// TestAnalyzeDeterministicAcrossWorkers: Options.Workers selects
// nothing, and the cached run renders what the uncached one does.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	cases := map[string]string{
		"adi":        programs.Adi(48, fortran.Double),
		"erlebacher": programs.Erlebacher(16, fortran.Double),
		"tomcatv":    programs.Tomcatv(32, fortran.Double),
		"shallow":    programs.Shallow(32, fortran.Real),
		"repeated":   repeatedSweeps(6),
	}
	for name, src := range cases {
		seq := Options{Procs: 8, Cyclic: true, Workers: 1, NoCache: true}
		rs, err := Analyze(context.Background(), Input{Source: src}, seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, workers := range []int{2, 8} {
			popt := Options{Procs: 8, Cyclic: true, Workers: workers}
			rp, err := Analyze(context.Background(), Input{Source: src}, popt)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got, want := render(rp), render(rs); got != want {
				t.Errorf("%s: workers=%d output differs from sequential run:\n--- parallel ---\n%s\n--- sequential ---\n%s",
					name, workers, got, want)
			}
			if rp.TotalCost != rs.TotalCost {
				t.Errorf("%s: workers=%d TotalCost %v != sequential %v", name, workers, rp.TotalCost, rs.TotalCost)
			}
		}
	}
}

func TestAnalyzeCacheEffectiveness(t *testing.T) {
	src := repeatedSweeps(6)
	r, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 8, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cands int64
	for _, pr := range r.Phases {
		cands += int64(len(pr.Candidates))
	}
	pc := r.Cache.Pricing
	if pc.Hits+pc.Misses != cands {
		t.Errorf("pricing lookups = %d, want one per candidate (%d)", pc.Hits+pc.Misses, cands)
	}
	// Six identical phases share one signature: at most one phase's
	// worth of misses, everything else hits.
	if pc.Hits == 0 {
		t.Errorf("identical phases produced no pricing hits (misses = %d)", pc.Misses)
	}
	if pc.HitRate() < 0.5 {
		t.Errorf("pricing hit rate %.2f, want >= 0.5 for 6 identical phases", pc.HitRate())
	}

	// NoCache must leave the counters zero and the output unchanged.
	rn, err := Analyze(context.Background(), Input{Source: src}, Options{Procs: 8, Workers: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Cache != (CacheSummary{}) {
		t.Errorf("NoCache run reported cache traffic: %+v", rn.Cache)
	}
	if render(rn) != render(r) {
		t.Error("NoCache run output differs from cached run")
	}
}

func TestAnalyzeUnitInputMatchesSource(t *testing.T) {
	u, err := fortran.Analyze(fortran.MustParse(adiSmall))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(context.Background(), Input{Unit: u}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if render(a) != render(b) {
		t.Error("Input{Unit} result differs from Input{Source} result")
	}
}

func TestAnalyzePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Analyze(ctx, Input{Source: adiSmall}, Options{Procs: 4, Workers: 4})
	if err == nil {
		t.Fatal("expected error from pre-canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("non-nil result alongside cancellation error")
	}
}

// TestAnalyzeCancelMidRun: a cancel landing anywhere in the run either
// loses the race or fails it with a context error and no result.
func TestAnalyzeCancelMidRun(t *testing.T) {
	src := programs.Adi(64, fortran.Double)
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		res, err := Analyze(ctx, Input{Source: src}, Options{Procs: 8, Cyclic: true})
		cancel()
		if err != nil {
			// The cancel won the race: it must surface as a context
			// error with no partial result.
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("delay %v: error %v does not wrap context.Canceled", delay, err)
			}
			if res != nil {
				t.Fatalf("delay %v: non-nil result alongside cancellation error", delay)
			}
			continue
		}
		// The run won: the result must be complete, never truncated.
		if res.Selection == nil || len(res.Phases) == 0 {
			t.Fatalf("delay %v: incomplete result without error", delay)
		}
		for p, pr := range res.Phases {
			if len(pr.Candidates) == 0 || pr.Candidates[pr.Chosen] == nil {
				t.Fatalf("delay %v: phase %d incomplete without error", delay, p)
			}
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Procs: 1},
		{Procs: 0},
		{Procs: 4, Workers: -1},
		{Procs: 4, Timeout: -time.Second},
		{Procs: 4, DefaultTrip: -5},
	}
	for i, opt := range bad {
		err := opt.Validate()
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("case %d (%+v): got %v, want *ValidationError", i, opt, err)
		}
		if _, aerr := Analyze(context.Background(), Input{Source: adiSmall}, opt); !errors.As(aerr, &verr) {
			t.Errorf("case %d: Analyze accepted invalid options (err = %v)", i, aerr)
		}
	}
	good := Options{Procs: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestPipelineErrShapes(t *testing.T) {
	if err := pipelineErr(stage.Pricing, context.Canceled); !strings.Contains(err.Error(), "canceled during "+stage.Pricing) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not labeled with stage: %v", err)
	}
	plain := errors.New("plain")
	if err := pipelineErr(stage.Pricing, plain); err != plain {
		t.Fatalf("plain error not passed through: %v", err)
	}
}

// TestCacheFaultIsInternalError: an injected failure at the memo sites
// panics inside the lookup (it has no error return) and unwinds to the
// entry point's guard, which returns it as *InternalError with a stack.
// Reselect prices no candidate, so its lookups reach the cache-shared
// site instead: the transitions of a candidate inserted after the run.
func TestCacheFaultIsInternalError(t *testing.T) {
	ctx := context.Background()
	failAt := func(site string) *fault.Plan {
		return fault.NewPlan(1).Arm(site, fault.Rule{Action: fault.Fail})
	}
	internal := func(what string, err error) {
		t.Helper()
		var ie *InternalError
		if !errors.As(err, &ie) || len(ie.Stack) == 0 {
			t.Errorf("%s: got %v, want *InternalError with a stack", what, err)
		}
	}

	_, err := Analyze(ctx, Input{Source: adiSmall}, Options{Procs: 4, Fault: failAt(stage.Cache)})
	internal("Analyze", err)

	sess, err := NewSession(ctx, Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Update(ctx, adiSmall, Options{Fault: failAt(stage.Cache)})
	internal("Session.Update", err)

	plan := fault.NewPlan(1)
	res, err := Analyze(ctx, Input{Source: adiSmall}, Options{Procs: 4, Fault: plan, Cache: NewSharedCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	a := layout.NewAlignment()
	a.Set("x", []int{0, 1})
	l := layout.MustLayout(res.Template, a, []layout.DimDist{
		{Kind: layout.Cyclic, Procs: 4}, {Kind: layout.Star, Procs: 1},
	})
	plan.Arm(stage.Cache, fault.Rule{Action: fault.Fail})
	_, err = res.InsertCandidate(0, l, "user")
	internal("InsertCandidate", err)
	plan.Arm(stage.Cache, fault.Rule{})
	if _, err := res.InsertCandidate(0, l, "user"); err != nil {
		t.Fatal(err)
	}
	plan.Arm(stage.CacheShared, fault.Rule{Action: fault.Fail})
	internal("Reselect", res.Reselect())
}
