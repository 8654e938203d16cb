package service

// Resilience tests: the per-flight watchdog (a wedged analysis is
// shot, stack-dumped, and its admission slot reclaimed), the
// poisoned-key quarantine (a repeatedly crashing key gets a typed 422
// instead of re-crashing the analyzer, then a fresh start after the
// TTL), the CoDel-style shedder (pure synthetic-clock unit tests plus
// an integration test where a wedged queue sheds new arrivals with an
// honest Retry-After), drain/readiness (readyz flips, new work bounces
// typed, in-flight work completes), and the Close ordering regression
// (Close must wait for in-flight flights before closing the store —
// run with -race).

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/stage"
)

// TestWatchdogReclaimsSlot: an analysis wedged far past its hard wall
// (an uncancelable injected delay at the service-flight site) is
// tripped by the watchdog, answered as a typed retryable 503 with a
// goroutine dump in the detail, and — the crash-only point — its
// admission slot is reclaimed immediately: with MaxInFlight = 1, a
// follow-up request is served while the zombie goroutine still sleeps.
func TestWatchdogReclaimsSlot(t *testing.T) {
	// wall = floor + 1×budget = 20ms; the injected delay (300ms) is a
	// plain time.Sleep, deliberately deaf to cancellation, so the grace
	// period (40ms) expires and the goroutine is abandoned.
	plan := fault.NewPlan(1).Arm(stage.ServiceFlight, fault.Rule{Action: fault.Delay, Delay: 300 * time.Millisecond, After: 1})
	cfg := Config{MaxInFlight: 1, DefaultTimeout: 10 * time.Millisecond, Fault: plan}
	pol := defaultPolicy
	pol.watchdogMultiple, pol.watchdogFloor, pol.watchdogGrace = 1, 10*time.Millisecond, 40*time.Millisecond
	srv := newPolicyServer(t, cfg, pol)

	rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("wedged flight answered %d, want 503 (body %.200s)", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != core.KindWatchdog {
		t.Errorf("kind = %q, want %q", eb.Error.Kind, core.KindWatchdog)
	}
	if !strings.Contains(eb.Error.Detail, "goroutine") {
		t.Errorf("watchdog detail carries no goroutine dump: %.120s", eb.Error.Detail)
	}
	if got := srv.m.watchdogTrips.Load(); got != 1 {
		t.Errorf("watchdog_trips = %d, want 1", got)
	}
	if got := srv.m.watchdogAbandoned.Load(); got != 1 {
		t.Errorf("watchdog_abandoned = %d, want 1", got)
	}
	if got := srv.m.crashes.Load(); got != 1 {
		t.Errorf("crashes_total = %d, want 1 (a watchdog abandonment is crash-shaped)", got)
	}

	// The slot is free while the zombie still sleeps: a different
	// request must be admitted and served right now (MaxInFlight is 1,
	// so a leaked slot would wedge the server for ~300ms more).  Its
	// own generous budget keeps its wall far from a slow machine's
	// legitimate analysis time.
	rec2 := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 16, TimeoutMS: 30_000}))
	if rec2.Code != http.StatusOK {
		t.Fatalf("follow-up after watchdog trip: status %d, want 200 (slot leaked?) body %.200s", rec2.Code, rec2.Body)
	}
}

// TestWatchdogUnbudgetedHasNoWall: with no budget anywhere there is no
// wall to multiply — the analysis runs unwatched (and completes), even
// when it outlasts the wall a budgeted flight would have had.
func TestWatchdogUnbudgetedHasNoWall(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 1})
	if wall := srv.analysisWall(0); wall != 0 {
		t.Errorf("unbudgeted wall = %v, want 0", wall)
	}
	if wall := srv.analysisWall(time.Second); wall != 2*time.Second+8*time.Second {
		t.Errorf("budgeted wall = %v, want floor+8×budget = 10s", wall)
	}

	// A 60ms wedge under a 1ms floor: any wall would trip, so a 200 with
	// no trip proves the unbudgeted flight ran unwatched.
	plan := fault.NewPlan(1).Arm(stage.ServiceFlight, fault.Rule{Action: fault.Delay, Delay: 60 * time.Millisecond})
	pol := defaultPolicy
	pol.watchdogMultiple, pol.watchdogFloor, pol.watchdogGrace = 1, time.Millisecond, time.Millisecond
	slow := newPolicyServer(t, Config{MaxInFlight: 1, Fault: plan}, pol)
	if rec := post(slow, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8})); rec.Code != http.StatusOK {
		t.Fatalf("unbudgeted wedged flight: status %d, want 200 (body %.200s)", rec.Code, rec.Body)
	}
	if got := slow.m.watchdogTrips.Load(); got != 0 {
		t.Errorf("watchdog_trips = %d on an unbudgeted flight, want 0", got)
	}
}

// TestQuarantinePoisonedKey: a key whose analysis panics is retried
// once (the policy quarantines after 2 crashes), quarantined on the
// second crash, answered with an immediate typed 422 on the third
// arrival — without running the analyzer — and earns a fresh start
// after the TTL.
func TestQuarantinePoisonedKey(t *testing.T) {
	plan := fault.NewPlan(2).Arm(stage.ServiceFlight, fault.Rule{Action: fault.Panic})
	pol := defaultPolicy
	pol.quarantineTTL = 200 * time.Millisecond
	srv := newPolicyServer(t, Config{MaxInFlight: 2, Fault: plan}, pol)
	body := requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8})

	// Crashes 1 and 2: the panic crosses the service's recovery
	// boundary as a typed 500.
	for i := 1; i <= 2; i++ {
		rec := post(srv, body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("crash %d: status %d, want 500 (body %.200s)", i, rec.Code, rec.Body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error.Kind != core.KindInternal {
			t.Errorf("crash %d kind = %q, want %q", i, eb.Error.Kind, core.KindInternal)
		}
	}
	if got := srv.m.crashes.Load(); got != 2 {
		t.Fatalf("crashes_total = %d, want 2", got)
	}

	// Arrival 3: quarantined — rejected typed, analyzer untouched.
	rec := post(srv, body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined key answered %d, want 422 (body %.200s)", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != core.KindQuarantined {
		t.Errorf("kind = %q, want %q", eb.Error.Kind, core.KindQuarantined)
	}
	if got := srv.m.analyses.Load(); got != 2 {
		t.Errorf("analyses_total = %d after the quarantine rejection, want 2 (analyzer must not run)", got)
	}
	if got := srv.m.quarantineRejected.Load(); got != 1 {
		t.Errorf("quarantine_rejections = %d, want 1", got)
	}
	if got := srv.crashes.quarantined(time.Now()); got != 1 {
		t.Errorf("quarantined_keys = %d, want 1", got)
	}

	// A *different* key is unaffected by the quarantine (the fault plan
	// panics it too — that's its own first crash, not a rejection).
	recOther := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 16}))
	if recOther.Code != http.StatusInternalServerError {
		t.Fatalf("distinct key: status %d, want 500 (its own crash, not a quarantine 422)", recOther.Code)
	}

	// After the TTL the key earns a fresh start: the analyzer runs
	// again (and crashes again — crash count restarts from scratch).
	time.Sleep(250 * time.Millisecond)
	rec = post(srv, body)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("post-TTL arrival: status %d, want 500 (fresh start runs the analyzer)", rec.Code)
	}
	if got := srv.m.analyses.Load(); got != 4 {
		t.Errorf("analyses_total = %d, want 4 (the post-TTL arrival must have run)", got)
	}
}

// TestShedderUnit drives the CoDel-style shedder on a synthetic clock:
// a drained burst keeps admission open, a standing queue over the
// target for a full window flips to shedding, an idle window with no
// queue flips back, and the Retry-After estimate follows the measured
// drain rate.
func TestShedderUnit(t *testing.T) {
	t0 := time.Unix(1000, 0)
	target, window := 10*time.Millisecond, 100*time.Millisecond
	sh := newShedder(target, window)

	// Window 1: a burst waits, but its minimum delay is low (one leader
	// got in nearly instantly) — the queue is draining, keep admitting.
	sh.noteAdmit(t0, 0, 3)
	sh.noteAdmit(t0.Add(20*time.Millisecond), 50*time.Millisecond, 2)
	if sh.shouldShed(t0.Add(110*time.Millisecond), 2) {
		t.Error("shedding after a window whose minimum delay was 0 (drained burst)")
	}

	// Window 2: even the luckiest leader waited past the target for the
	// whole window — saturated, shed.
	sh.noteAdmit(t0.Add(120*time.Millisecond), 30*time.Millisecond, 3)
	sh.noteAdmit(t0.Add(180*time.Millisecond), 40*time.Millisecond, 3)
	if !sh.shouldShed(t0.Add(230*time.Millisecond), 3) {
		t.Error("not shedding after a full window with min delay 30ms > target 10ms")
	}

	// Window 3: a wedged queue (no admissions at all, leaders waiting)
	// stays shedding.
	if !sh.shouldShed(t0.Add(340*time.Millisecond), 2) {
		t.Error("stopped shedding during a wedged window (no admissions, queue > 0)")
	}

	// Window 4: idle (no admissions, no queue) reopens admission.
	if sh.shouldShed(t0.Add(450*time.Millisecond), 0) {
		t.Error("still shedding after an idle window with an empty queue")
	}

	// Drain rate: 5 completions over 400ms ⇒ 10/s; 4 queued ⇒ ceil(5/10) = 1s.
	for i := 0; i < 5; i++ {
		sh.noteCompletion(t0.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	if ra := sh.retryAfter(t0.Add(500*time.Millisecond), 4); ra != 1 {
		t.Errorf("retryAfter(4 queued @ 10/s) = %d, want 1", ra)
	}
	if ra := sh.retryAfter(t0.Add(500*time.Millisecond), 40); ra != 5 {
		t.Errorf("retryAfter(40 queued @ 10/s) = %d, want ceil(41/10) = 5", ra)
	}

	// No throughput measured yet ⇒ answer 1, don't invent a number.
	fresh := newShedder(target, window)
	if ra := fresh.retryAfter(t0, 100); ra != 1 {
		t.Errorf("retryAfter with no measurements = %d, want 1", ra)
	}
}

// TestAdaptiveShedIntegration: with the single slot wedged and leaders
// already queued, a full observation window with zero admissions flips
// the shedder, and the next arrival is shed with a typed 429 — instead
// of joining an already-hopeless queue — while the queued leaders are
// still served once the slot frees.
func TestAdaptiveShedIntegration(t *testing.T) {
	cfg := Config{MaxInFlight: 1, MaxQueue: 8}
	pol := defaultPolicy
	pol.queueTarget, pol.queueWindow = time.Millisecond, 20*time.Millisecond
	srv := newPolicyServer(t, cfg, pol)
	reqA := &core.Request{V: core.WireV1, Source: testSrc, Procs: 8}
	keyA := keyOf(t, cfg, reqA)
	release := make(chan struct{})
	srv.hookFlightStart = func(key artifact.Key) {
		if key == keyA {
			<-release
		}
	}

	doneA := make(chan *httptest.ResponseRecorder, 1)
	go func() { doneA <- post(srv, requestBody(t, reqA)) }()
	waitFor(t, "flight A to hold its slot", func() bool { return srv.inflight.Load() == 1 })

	doneB := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		doneB <- post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 16}))
	}()
	waitFor(t, "flight B to queue", func() bool { return srv.queued.Load() == 1 })

	// The window rolls lazily, on admission attempts.  Arrival C1 rolls
	// the first window (which saw A's instant admission — not shedding
	// yet) and queues behind B; after a further full window with
	// leaders waiting and zero admissions, arrival C2's roll must flip
	// the shedder and C2 is shed with a typed 429.
	time.Sleep(30 * time.Millisecond)
	doneC1 := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		doneC1 <- post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 32}))
	}()
	waitFor(t, "arrival C1 to queue", func() bool { return srv.queued.Load() == 2 })
	time.Sleep(30 * time.Millisecond)
	doneC := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		doneC <- post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 64}))
	}()
	var recC *httptest.ResponseRecorder
	select {
	case recC = <-doneC:
	case <-time.After(5 * time.Second):
		// Queued behind the wedged slot instead of shed: unwedge so the
		// server can close, then fail.
		close(release)
		t.Fatal("arrival after a wedged window was queued, not shed")
	}
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("arrival after a wedged window answered %d, want 429 (body %.200s)", recC.Code, recC.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(recC.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != core.KindOverloaded {
		t.Errorf("shed kind = %q, want %q", eb.Error.Kind, core.KindOverloaded)
	}
	if recC.Header().Get("Retry-After") == "" {
		t.Error("shed 429 without a Retry-After header")
	}
	if got := srv.m.shed.Load(); got < 1 {
		t.Errorf("shed_total = %d, want ≥ 1", got)
	}

	// Shedding protected the queue, it didn't break it: the queued
	// leaders complete once the slot frees.
	close(release)
	if recA := <-doneA; recA.Code != http.StatusOK {
		t.Fatalf("held flight A: status %d", recA.Code)
	}
	if recB := <-doneB; recB.Code != http.StatusOK {
		t.Fatalf("queued flight B: status %d (shedding must not starve the queue)", recB.Code)
	}
	if recC1 := <-doneC1; recC1.Code != http.StatusOK {
		t.Fatalf("queued arrival C1: status %d (shedding must not starve the queue)", recC1.Code)
	}
}

// TestDrainAndReadyz: /readyz is 200 while serving; Drain flips it to
// a typed 503 (while /healthz stays 200 — liveness is not readiness),
// new arrivals bounce with core.KindDraining, queued leaders are
// bounced too, and in-flight work completes.
func TestDrainAndReadyz(t *testing.T) {
	cfg := Config{MaxInFlight: 1, MaxQueue: 8, StoreDir: t.TempDir()}
	srv := newTestServer(t, cfg)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200 (body %s)", rec.Code, rec.Body)
	}

	reqA := &core.Request{V: core.WireV1, Source: testSrc, Procs: 8}
	keyA := keyOf(t, cfg, reqA)
	release := make(chan struct{})
	srv.hookFlightStart = func(key artifact.Key) {
		if key == keyA {
			<-release
		}
	}
	doneA := make(chan *httptest.ResponseRecorder, 1)
	go func() { doneA <- post(srv, requestBody(t, reqA)) }()
	waitFor(t, "flight A to hold its slot", func() bool { return srv.inflight.Load() == 1 })

	// A leader queued behind A, to be bounced by the drain.
	doneB := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		doneB <- post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 16}))
	}()
	waitFor(t, "flight B to queue", func() bool { return srv.queued.Load() == 1 })

	srv.Drain()
	rec := get("/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", rec.Code)
	}
	var rz struct {
		Ready    bool  `json:"ready"`
		Draining bool  `json:"draining"`
		InFlight int64 `json:"inflight"`
		StoreOK  bool  `json:"store_ok"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || !rz.Draining || rz.InFlight != 1 || !rz.StoreOK {
		t.Errorf("readyz document = %+v, want draining with 1 in flight and a healthy store", rz)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200 (liveness is not readiness)", rec.Code)
	}

	// The queued leader is bounced...
	recB := <-doneB
	if recB.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued leader under drain: status %d, want 503", recB.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(recB.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != core.KindDraining {
		t.Errorf("bounced leader kind = %q, want %q", eb.Error.Kind, core.KindDraining)
	}
	// ...new arrivals are bounced...
	recC := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 32}))
	if recC.Code != http.StatusServiceUnavailable {
		t.Fatalf("new arrival under drain: status %d, want 503", recC.Code)
	}
	// ...and the in-flight flight completes normally.
	close(release)
	if recA := <-doneA; recA.Code != http.StatusOK {
		t.Fatalf("in-flight flight under drain: status %d, want 200 (drain must not kill running work)", recA.Code)
	}
	if got := srv.m.drainRejected.Load(); got < 2 {
		t.Errorf("drain_rejections = %d, want ≥ 2", got)
	}
}

// TestCloseWaitsForInflight is the Close-ordering regression (run
// under -race): Close must wait for in-flight flights to finish before
// closing the shared store, so a completing flight never writes to a
// closing store.  PR 7's Close canceled the base context and closed
// the store immediately — under -race this test catches that ordering.
func TestCloseWaitsForInflight(t *testing.T) {
	cfg := Config{MaxInFlight: 1, StoreDir: t.TempDir()}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.hookFlightStart = func(artifact.Key) { <-release }

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8})) }()
	waitFor(t, "the flight to hold its slot", func() bool { return srv.inflight.Load() == 1 })

	var closed atomic.Bool
	closeDone := make(chan error, 1)
	go func() {
		err := srv.Close()
		closed.Store(true)
		closeDone <- err
	}()

	// Close must be parked in its drain wait, not finished: the flight
	// is mid-air (held at the start hook, about to analyze and write to
	// the store).
	time.Sleep(50 * time.Millisecond)
	if closed.Load() {
		t.Fatal("Close returned while a flight was in-flight — the store can be closed under a writer")
	}

	release <- struct{}{}
	rec := <-done
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("in-flight flight during Close: status %d, want 200 (drain completes running work)", rec.Code)
	}
	// The store was live for the whole flight: its write happened, and
	// nothing failed.
	ss := srv.store.Stats()
	if ss.WriteFailures != 0 || ss.ReadFailures != 0 {
		t.Errorf("store failures during drained Close: %d write / %d read, want 0/0", ss.WriteFailures, ss.ReadFailures)
	}
	if ss.Writes == 0 {
		t.Error("store.writes = 0 — the flight's artifact write was lost")
	}
}
