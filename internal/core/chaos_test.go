package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/stage"
)

// chaosOptions is the configuration every chaos run shares: verification
// forced on (the invariant under test is "typed error or certified
// result"), a solver budget that bounds every 0-1
// solve, a fresh shared cache so the cache-shared site is on the
// visited path (a cold cache still performs lookups), and a fresh
// on-disk store.
func chaosOptions(tb testing.TB, p *fault.Plan) Options {
	return Options{Procs: 8, Workers: 4, Timeout: time.Second, Verify: VerifyOn, Fault: p,
		Cache: NewSharedCache(0), StoreDir: tb.TempDir()}
}

// storeChaosOptions is chaosOptions without the solver budget.  The
// store holds selections only, and selection reuse is for untimed runs
// (a budget can change the outcome), so a budgeted run opens the store
// and then never reads or writes it.
func storeChaosOptions(tb testing.TB, p *fault.Plan) Options {
	opt := chaosOptions(tb, p)
	opt.Timeout = 0
	return opt
}

// ilpSites are the fault sites inside the 0-1 solver.  adiSmall's
// alignment has no conflict to resolve and its selection is answered by
// the elimination DP, so only a ForceILP run reaches them.
var ilpSites = map[string]bool{
	stage.ILPRoot: true,
	stage.BBNode:  true,
}

// storeSites are the IO-shaped fault sites of the artifact store.
// Their invariant differs from the compute sites': a store fault must
// never fail an analysis — the run degrades to memory-only caching and
// says so in Result.Degradations.
var storeSites = map[string]bool{
	stage.StoreOpen:  true,
	stage.StoreRead:  true,
	stage.StoreWrite: true,
}

// typedChaosError reports whether err is one of the typed shapes the
// pipeline is allowed to fail with: an injected fault, a recovered
// panic, a failed certificate, a strict-mode degradation, invalid
// input, or a context cutoff.  Anything else is an untyped leak.
func typedChaosError(err error) bool {
	var fe *fault.Error
	var ie *InternalError
	var ce *CertificationError
	var se *StrictError
	var ve *ValidationError
	return errors.As(err, &fe) || errors.As(err, &ie) || errors.As(err, &ce) ||
		errors.As(err, &se) || errors.As(err, &ve) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// corruptibleSites lists the sites whose Corrupt action perturbs a
// numeric product; corruption there MUST be caught by a certificate.
// The remaining sites either have no numeric product (parse, dep,
// space-build) or cannot guarantee their corruption reaches the final
// claims: cache-shared only perturbs values served from shared hits,
// and a cold run serves none.  TestChaosSharedCachePoison warms the cache first,
// where every lookup hits, and asserts detection there.
// store-read IS corruptible: the sweep warms the store first, so the
// selection lookup is a disk hit and the injected corruption lands on
// the served selection, which its certificate must reject — the
// poison-proof rule extended to disk.
var corruptibleSites = map[string]bool{
	stage.AlignSolve: true,
	stage.Pricing:    true,
	stage.ILPRoot:    true,
	stage.BBNode:     true,
	stage.Selection:  true,
	stage.Cache:      true,
	stage.StoreRead:  true,
}

// TestChaosSiteCoverage: a plain run under an armed-but-empty plan must
// visit every named injection site, so the sweep below exercises real
// code paths rather than dead hooks.
func TestChaosSiteCoverage(t *testing.T) {
	plan := fault.NewPlan(1)
	opt := storeChaosOptions(t, plan)
	// Cold run: visits every compute site outside the 0-1 solver plus
	// store-open and store-write — the solved selection is written
	// through (a cold store has nothing to read, so its Get is an index
	// miss that never touches the disk).
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, opt); err != nil {
		t.Fatal(err)
	}
	// Warm re-run over the same store directory with a fresh shared
	// cache (so the selection's L2 miss falls through to disk): visits
	// store-read.
	opt.Cache = NewSharedCache(0)
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, opt); err != nil {
		t.Fatal(err)
	}
	// The default route never enters the 0-1 solver (ilpSites), and a
	// forced 0-1 route never reuses a stored selection, so the solver
	// sites get a ForceILP run of their own.
	opt.ForceILP = true
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, opt); err != nil {
		t.Fatal(err)
	}
	hits := plan.Hits()
	for _, site := range stage.All {
		if hits[site] == 0 {
			t.Errorf("site %s never hit during a plain run", site)
		}
	}
}

// TestChaosSweep sweeps every fault site crossed with every action and
// asserts the pipeline's invariant: Analyze returns either a typed
// error or a certificate-passing (possibly degraded) result — never a
// silent wrong answer, and never a hang past the deadline plus slack.
func TestChaosSweep(t *testing.T) {
	const (
		delay = 5 * time.Millisecond
		// slack bounds a run whose injected delays are outside the solver
		// budget (the per-item stages sleep per hit, not per deadline).
		slack = 15 * time.Second
	)
	for _, site := range stage.All {
		for _, action := range fault.Actions {
			t.Run(site+"/"+action.String(), func(t *testing.T) {
				plan := fault.NewPlan(7).Arm(site, fault.Rule{Action: action, Delay: delay})
				options := chaosOptions
				if storeSites[site] {
					options = storeChaosOptions
				}
				opt := options(t, plan)
				opt.ForceILP = ilpSites[site]
				if site == stage.StoreRead {
					// store-read fires per disk read attempt, and a cold
					// store has nothing to read: warm the directory with an
					// un-faulted run first, then aim the armed run's L2
					// miss at the resident selection record.
					warm := opt
					warm.Fault = nil
					if _, werr := Analyze(context.Background(), Input{Source: adiSmall}, warm); werr != nil {
						t.Fatal(werr)
					}
					opt.Cache = NewSharedCache(0)
				}
				start := time.Now()
				res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
				if elapsed := time.Since(start); elapsed > slack {
					t.Fatalf("run took %v, past deadline+slack", elapsed)
				}
				if plan.Hits()[site] == 0 {
					t.Fatalf("armed site %s never hit", site)
				}
				if err != nil {
					if storeSites[site] && plan.Fired(site) > 0 && (action == fault.Fail || action == fault.Panic) {
						t.Fatalf("store fault at %s failed the analysis: %v", site, err)
					}
					if !typedChaosError(err) {
						t.Fatalf("untyped error escaped: %v (%T)", err, err)
					}
					if res != nil {
						t.Fatal("non-nil result alongside an error")
					}
					return
				}
				// No error: the result must be complete and must satisfy an
				// independent re-certification.
				if res == nil || res.Selection == nil || len(res.Phases) == 0 {
					t.Fatal("incomplete result without error")
				}
				if cerr := res.Certify(); cerr != nil {
					t.Fatalf("silent wrong answer: %v", cerr)
				}
				// A fault that actually fired must not vanish: fail and
				// panic cannot produce a clean run — except at the store
				// sites, where the clean run is the invariant and the
				// fault's trace is a memory-only degradation entry.
				if plan.Fired(site) > 0 && (action == fault.Fail || action == fault.Panic) {
					if !storeSites[site] {
						t.Fatalf("%v fired %d times at %s yet the run succeeded", action, plan.Fired(site), site)
					}
					found := false
					for _, d := range res.Degradations {
						if storeSites[d.Subsystem] {
							found = true
						}
					}
					if !found {
						t.Fatalf("%v fired %d times at %s with no store degradation recorded", action, plan.Fired(site), site)
					}
				}
				if action == fault.Corrupt && corruptibleSites[site] && plan.Fired(site) > 0 {
					t.Fatalf("corruption fired %d times at %s yet the result certified", plan.Fired(site), site)
				}
			})
		}
	}
}

// TestCorruptionCaught pins the acceptance criterion: a corrupted value
// injected at each solver product is caught by the certificates, and
// the resulting *CertificationError names the stage whose claim broke.
func TestCorruptionCaught(t *testing.T) {
	cases := []struct {
		site string
		// wantStage is the stage the certificate attributes the failure
		// to (cache corruption surfaces as a broken pricing claim).
		wantStage []string
	}{
		{stage.Pricing, []string{stage.Pricing}},
		{stage.Cache, []string{stage.Pricing}},
		// The incumbent corruptions: a perturbed objective or a flipped
		// binary, caught by CheckILP at whichever solve fires first.
		{stage.ILPRoot, []string{stage.ILPRoot}},
		{stage.BBNode, []string{stage.BBNode, stage.ILPRoot}},
		{stage.AlignSolve, []string{stage.AlignSolve}},
		{stage.Selection, []string{stage.Selection}},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			plan := fault.NewPlan(13).Arm(tc.site, fault.Rule{Action: fault.Corrupt})
			opt := chaosOptions(t, plan)
			opt.ForceILP = ilpSites[tc.site]
			_, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
			var ce *CertificationError
			if !errors.As(err, &ce) {
				t.Fatalf("corruption at %s not certified away: err = %v (%T)", tc.site, err, err)
			}
			ok := false
			for _, want := range tc.wantStage {
				if ce.Stage == want {
					ok = true
				}
			}
			if !ok {
				t.Errorf("certification error names stage %q, want one of %v (check %s)", ce.Stage, tc.wantStage, ce.Check)
			}
			if ce.Check == "" {
				t.Error("certification error carries no check name")
			}
		})
	}
}

// TestCorruptionEscapesWithoutVerify documents that the certificates
// are load-bearing: the same pricing corruption that fails a verifying
// run sails through with Verify off, shifting the reported cost.
func TestCorruptionEscapesWithoutVerify(t *testing.T) {
	base, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Workers: 4, Verify: VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(13).Arm(stage.Pricing, fault.Rule{Action: fault.Corrupt})
	res, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Workers: 4, Verify: VerifyOff, Fault: plan})
	if err != nil {
		t.Fatalf("unverified corrupted run failed: %v", err)
	}
	if res.TotalCost == base.TotalCost {
		t.Fatal("corruption did not change the reported cost; the detection test proves nothing")
	}
	if cerr := res.Certify(); cerr == nil {
		t.Fatal("explicit Certify call missed the corruption")
	}
}

// TestChaosSharedCachePoison pins the cross-run safety property: a
// poisoned process-wide cache must be caught by the certificates, not
// served.  The first run warms the shared cache; the second run reads
// it with the cache-shared site armed, so hits actually occur and the
// injected corruption lands on served values.
func TestChaosSharedCachePoison(t *testing.T) {
	shared := NewSharedCache(0)
	warm := chaosOptions(t, fault.NewPlan(1))
	warm.Cache = shared
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, warm); err != nil {
		t.Fatal(err)
	}

	t.Run("corrupt", func(t *testing.T) {
		plan := fault.NewPlan(13).Arm(stage.CacheShared, fault.Rule{Action: fault.Corrupt})
		opt := chaosOptions(t, plan)
		opt.Cache = shared
		_, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
		if plan.Fired(stage.CacheShared) == 0 {
			t.Fatal("warm shared cache served no hits; the poison never landed")
		}
		var ce *CertificationError
		if !errors.As(err, &ce) {
			t.Fatalf("poisoned shared-cache value not certified away: err = %v (%T)", err, err)
		}
	})

	t.Run("fail", func(t *testing.T) {
		plan := fault.NewPlan(13).Arm(stage.CacheShared, fault.Rule{Action: fault.Fail})
		opt := chaosOptions(t, plan)
		opt.Cache = shared
		res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
		if err == nil {
			t.Fatalf("failing shared cache produced a clean run (res = %v)", res != nil)
		}
		if !typedChaosError(err) {
			t.Fatalf("untyped error escaped the shared-cache layer: %v (%T)", err, err)
		}
	})

	// The disk variant of the poison-proof rule: warm the on-disk store,
	// then read it back through a fresh shared cache with the store-read
	// Corrupt action armed — the selection is a disk hit, the injected
	// corruption lands on its cost, and the selection certificate must
	// reject it rather than let the poisoned answer through.
	t.Run("disk-corrupt", func(t *testing.T) {
		dir := t.TempDir()
		warm := storeChaosOptions(t, fault.NewPlan(1))
		warm.StoreDir = dir
		if _, err := Analyze(context.Background(), Input{Source: adiSmall}, warm); err != nil {
			t.Fatal(err)
		}
		plan := fault.NewPlan(13).Arm(stage.StoreRead, fault.Rule{Action: fault.Corrupt})
		opt := storeChaosOptions(t, plan)
		opt.StoreDir = dir
		_, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
		if plan.Fired(stage.StoreRead) == 0 {
			t.Fatal("warm store served no disk hit; the poison never landed")
		}
		var ce *CertificationError
		if !errors.As(err, &ce) {
			t.Fatalf("poisoned disk value not certified away: err = %v (%T)", err, err)
		}
		if ce.Stage != stage.Selection {
			t.Fatalf("certification error names stage %q, want %q", ce.Stage, stage.Selection)
		}
	})
}

// TestVerifyModeResolution: the zero value certifies inside test
// binaries, VerifyOff never does, VerifyOn always does.
func TestVerifyModeResolution(t *testing.T) {
	if !VerifyAuto.enabled() {
		t.Error("VerifyAuto should resolve to on inside a test binary")
	}
	if !VerifyOn.enabled() {
		t.Error("VerifyOn off")
	}
	if VerifyOff.enabled() {
		t.Error("VerifyOff on")
	}
}
