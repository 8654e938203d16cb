package service

// Server tests: the singleflight proof (K identical concurrent
// requests run exactly one analysis and share byte-identical bytes),
// admission control (full queue ⇒ 429 + Retry-After, never wedging
// in-flight work), per-request budgets degrading exactly like the
// CLI's -timeout, wire parity with direct core.Analyze over the golden
// corpus, and the /metrics counter inventory.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/programs"
	"repro/internal/stage"
)

// testSrc is a small two-phase program (copy then transpose) whose
// analysis is fast but non-trivial — it prices candidates and runs the
// selection 0-1.
const testSrc = `
program svc
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(j,i) * 2.0
    end do
  end do
end
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return newPolicyServer(t, cfg, defaultPolicy)
}

// newPolicyServer is newTestServer under a shortened policy.
func newPolicyServer(t *testing.T, cfg Config, pol policy) *Server {
	t.Helper()
	srv, err := newServer(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// post sends one request body through the handler and returns the
// recorded response.
func post(srv *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
	return rec
}

func requestBody(t *testing.T, req *core.Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// keyOf reproduces the server's flight key for a request under a
// config's timeout clamps, so hooks can target a specific flight.
func keyOf(t *testing.T, cfg Config, req *core.Request) artifact.Key {
	t.Helper()
	opt, err := req.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Timeout == 0 {
		opt.Timeout = cfg.DefaultTimeout
	}
	if cfg.MaxTimeout > 0 && (opt.Timeout == 0 || opt.Timeout > cfg.MaxTimeout) {
		opt.Timeout = cfg.MaxTimeout
	}
	return req.Key(opt)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultPolicyPinned: the fixed policy every NewServer runs is
// the tuning the daemon always shipped with — a change here is a
// behaviour change of every deployment, not a refactor.
func TestDefaultPolicyPinned(t *testing.T) {
	want := policy{
		queueTarget:      50 * time.Millisecond,
		queueWindow:      time.Second,
		watchdogMultiple: 8,
		watchdogFloor:    2 * time.Second,
		watchdogGrace:    time.Second,
		quarantineTTL:    5 * time.Minute,
	}
	if defaultPolicy != want {
		t.Errorf("defaultPolicy = %+v, want %+v", defaultPolicy, want)
	}
	if srv := newTestServer(t, Config{}); srv.pol != want {
		t.Errorf("NewServer policy = %+v, want %+v", srv.pol, want)
	}
	if quarantineAfter != 2 || quarantineCap != 1024 || maxSessions != 8 {
		t.Errorf("quarantineAfter, quarantineCap, maxSessions = %d, %d, %d, want 2, 1024, 8",
			quarantineAfter, quarantineCap, maxSessions)
	}
}

// TestSingleflightCoalesces is the dedup proof: K concurrent identical
// requests run exactly one analysis (counter-asserted) and every
// client receives byte-identical bytes.  The flight leader is held at
// the start hook until all K-1 duplicates have joined, so the overlap
// is deterministic, not a scheduling accident.
func TestSingleflightCoalesces(t *testing.T) {
	const k = 8
	cfg := Config{MaxInFlight: 4}
	srv := newTestServer(t, cfg)
	srv.hookFlightStart = func(artifact.Key) {
		waitFor(t, "duplicates to join the flight", func() bool {
			return srv.m.dedup.Load() >= k-1
		})
	}
	body := requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8})

	var wg sync.WaitGroup
	responses := make([]*httptest.ResponseRecorder, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i] = post(srv, body)
		}(i)
	}
	wg.Wait()

	if got := srv.m.analyses.Load(); got != 1 {
		t.Errorf("analyses_total = %d, want exactly 1", got)
	}
	if got := srv.m.dedup.Load(); got != k-1 {
		t.Errorf("dedup_inflight_hits = %d, want %d", got, k-1)
	}
	first := responses[0].Body.Bytes()
	for i, rec := range responses {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), first) {
			t.Errorf("request %d received different bytes than request 0", i)
		}
	}
	var resp core.Response
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatalf("shared body is not a Response: %v", err)
	}
	if resp.V != core.WireV1 || resp.HPF == "" {
		t.Errorf("shared response incomplete: %+v", resp)
	}
}

// TestWorkersCoalesce: requests that differ only in workers, a field
// that selects nothing, share one flight key, so two concurrent ones run
// one analysis and the second counts as one dedup hit.
func TestWorkersCoalesce(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2})
	srv.hookFlightStart = func(artifact.Key) {
		waitFor(t, "the other request to join the flight", func() bool {
			return srv.m.dedup.Load() >= 1
		})
	}
	var wg sync.WaitGroup
	responses := make([]*httptest.ResponseRecorder, 2)
	for i, workers := range []int{1, 4} {
		body := requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8, Workers: workers})
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i] = post(srv, body)
		}()
	}
	wg.Wait()
	if got := srv.m.analyses.Load(); got != 1 {
		t.Errorf("analyses_total = %d, want exactly 1", got)
	}
	if got := srv.m.dedup.Load(); got != 1 {
		t.Errorf("dedup_inflight_hits = %d, want 1", got)
	}
	for i, rec := range responses {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, rec.Code, rec.Body)
		}
	}
	if !bytes.Equal(responses[0].Body.Bytes(), responses[1].Body.Bytes()) {
		t.Error("the coalesced requests received different bytes")
	}
}

// TestDistinctRequestsNotBlocked: the singleflight map never couples
// distinct keys — a held flight for request A does not delay an
// unrelated request B.
func TestDistinctRequestsNotBlocked(t *testing.T) {
	cfg := Config{MaxInFlight: 2}
	srv := newTestServer(t, cfg)
	reqA := &core.Request{V: core.WireV1, Source: testSrc, Procs: 8}
	keyA := keyOf(t, cfg, reqA)
	release := make(chan struct{})
	srv.hookFlightStart = func(key artifact.Key) {
		if key == keyA {
			<-release
		}
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(srv, requestBody(t, reqA)) }()
	waitFor(t, "flight A to hold its slot", func() bool { return srv.inflight.Load() == 1 })

	reqB := &core.Request{V: core.WireV1, Source: testSrc, Procs: 16}
	recB := post(srv, requestBody(t, reqB))
	if recB.Code != http.StatusOK {
		t.Fatalf("distinct request blocked behind an unrelated flight: status %d, body %s", recB.Code, recB.Body)
	}

	close(release)
	if recA := <-done; recA.Code != http.StatusOK {
		t.Fatalf("held flight failed after release: status %d, body %s", recA.Code, recA.Body)
	}
}

// TestFullQueueRejects: with the pipeline saturated and no queue, a
// new analysis is answered 429 with a Retry-After header immediately —
// and the rejection never wedges the in-flight work, which completes
// normally once released.
func TestFullQueueRejects(t *testing.T) {
	cfg := Config{MaxInFlight: 1, MaxQueue: -1}
	srv := newTestServer(t, cfg)
	reqA := &core.Request{V: core.WireV1, Source: testSrc, Procs: 8}
	keyA := keyOf(t, cfg, reqA)
	release := make(chan struct{})
	srv.hookFlightStart = func(key artifact.Key) {
		if key == keyA {
			<-release
		}
	}

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(srv, requestBody(t, reqA)) }()
	waitFor(t, "flight A to hold its slot", func() bool { return srv.inflight.Load() == 1 })

	bodyB := requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 16})
	recB := post(srv, bodyB)
	if recB.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429 (body %s)", recB.Code, recB.Body)
	}
	if recB.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var eb ErrorBody
	if err := json.Unmarshal(recB.Body.Bytes(), &eb); err != nil {
		t.Fatalf("429 body is not the error envelope: %v", err)
	}
	if eb.Error.Kind != "overloaded" {
		t.Errorf("429 kind = %q, want overloaded", eb.Error.Kind)
	}
	if got := srv.m.rejected.Load(); got != 1 {
		t.Errorf("requests_rejected = %d, want 1", got)
	}

	// The rejection must not have wedged the held flight.
	close(release)
	if recA := <-done; recA.Code != http.StatusOK {
		t.Fatalf("in-flight analysis wedged by the rejection: status %d, body %s", recA.Code, recA.Body)
	}
	if recB2 := post(srv, bodyB); recB2.Code != http.StatusOK {
		t.Fatalf("server wedged after 429: status %d, body %s", recB2.Code, recB2.Body)
	}
}

// TestBoundedQueueAdmits: a leader inside the queue bound waits for a
// slot instead of being rejected, and is served when the slot frees.
func TestBoundedQueueAdmits(t *testing.T) {
	cfg := Config{MaxInFlight: 1, MaxQueue: 2}
	srv := newTestServer(t, cfg)
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

	close(release)
	if recA := <-doneA; recA.Code != http.StatusOK {
		t.Fatalf("flight A: status %d, body %s", recA.Code, recA.Body)
	}
	if recB := <-doneB; recB.Code != http.StatusOK {
		t.Fatalf("queued flight B never served: status %d, body %s", recB.Code, recB.Body)
	}
	if got := srv.m.rejected.Load(); got != 0 {
		t.Errorf("requests_rejected = %d, want 0 (queue had room)", got)
	}
}

// TestTimeoutDegradesLikeCLI: a per-request budget goes through the
// same Options.Timeout machinery as the CLI's -timeout flag — the
// analysis completes with the forfeit recorded as typed degradations
// naming the same stage vocabulary, never as a failure.  The server's
// DefaultTimeout clamp is the budget source here, so the clamp path is
// covered too.  The program is examples/conflict's: b is read both
// canonically and transposed, so alignment has a 0-1 conflict for the
// budget to cut — selection alone no longer does, the elimination DP
// ignores the budget.
func TestTimeoutDegradesLikeCLI(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2, DefaultTimeout: time.Nanosecond})
	const src = `
program conflict
  parameter (n = 32)
  real a(n,n), b(n,n), c(n,n)
  do it = 1, 10
    do j = 1, n
      do i = 1, n
        a(i,j) = b(i,j) + c(i,j)
      end do
    end do
    do j = 1, n
      do i = 1, n
        c(i,j) = a(i,j) + b(j,i)
      end do
    end do
  end do
end
`
	rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: src, Procs: 8}))
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted request failed instead of degrading: status %d, body %s", rec.Code, rec.Body)
	}
	var resp core.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Degradations) == 0 {
		t.Fatal("no degradations recorded under a 1ns budget")
	}
	for _, d := range resp.Degradations {
		if d.Subsystem != stage.AlignSolve && d.Subsystem != stage.Selection {
			t.Errorf("degradation names unknown subsystem %q", d.Subsystem)
		}
		if d.Detail == "" {
			t.Errorf("degradation without detail: %+v", d)
		}
	}
	if resp.HPF == "" {
		t.Error("degraded response carries no layout")
	}

	// The CLI path under the same budget produces the same typed
	// degradation shape.
	cli, err := core.Analyze(context.Background(), core.Input{Source: src},
		core.Options{Procs: 8, Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(cli.Degradations) == 0 {
		t.Fatal("CLI-path run did not degrade under the same budget")
	}

	// Strict mode turns the same forfeit into a typed 422.
	recStrict := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: src, Procs: 8, Strict: true}))
	if recStrict.Code != http.StatusUnprocessableEntity {
		t.Fatalf("strict degradation: status %d, want 422 (body %s)", recStrict.Code, recStrict.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(recStrict.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != "strict" {
		t.Errorf("strict kind = %q, want strict", eb.Error.Kind)
	}
}

// TestErrorMapping pins the typed error surface: each bad input gets a
// deterministic HTTP status and a stable machine-readable kind.
func TestErrorMapping(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2})
	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"unknown field", `{"v":1,"source":"x","procs":4,"bogus":1}`, http.StatusBadRequest, "bad_request"},
		{"wrong version", `{"v":9,"source":"x","procs":4}`, http.StatusBadRequest, "bad_request"},
		{"malformed json", `{"v":1,`, http.StatusBadRequest, "bad_request"},
		{"empty source", `{"v":1,"source":"","procs":4}`, http.StatusBadRequest, "bad_request"},
		{"unknown machine", `{"v":1,"source":"program p\nend\n","procs":4,"machine":"cm5"}`, http.StatusBadRequest, "bad_request"},
		{"syntax error", `{"v":1,"source":"this is not fortran","procs":4}`, http.StatusBadRequest, "syntax"},
		{"too few procs", `{"v":1,"source":"program p\nend\n","procs":1}`, http.StatusBadRequest, "validation"},
		{"default_prob out of range", `{"v":1,"source":"program p\nend\n","procs":4,"default_prob":-0.5}`, http.StatusBadRequest, "validation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(srv, []byte(tc.body))
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not the envelope: %v (%s)", err, rec.Body)
			}
			if eb.V != core.WireV1 || eb.Error.Kind != tc.kind {
				t.Errorf("envelope = %+v, want kind %q", eb, tc.kind)
			}
		})
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/analyze", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze: status %d, want 405", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /healthz: status %d, want 200", rec.Code)
	}
}

// TestGoldenParity: the wire path is a faithful transport — for every
// corpus program the daemon's response carries byte-identical HPF text
// and the same cost, dynamism and remaps as a direct core.Analyze with
// the same options.
func TestGoldenParity(t *testing.T) {
	srv := newTestServer(t, Config{StoreDir: t.TempDir()})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	corpus := []struct {
		name string
		src  string
	}{
		{"adi", programs.Adi(48, fortran.Double)},
		{"erlebacher", programs.Erlebacher(16, fortran.Double)},
		{"tomcatv", programs.Tomcatv(32, fortran.Double)},
		{"shallow", programs.Shallow(32, fortran.Real)},
	}
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			req := &core.Request{V: core.WireV1, Source: tc.src, Procs: 16}
			hr, err := http.Post(hs.URL+"/v1/analyze", "application/json",
				bytes.NewReader(requestBody(t, req)))
			if err != nil {
				t.Fatal(err)
			}
			defer hr.Body.Close()
			var resp core.Response
			if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if hr.StatusCode != http.StatusOK {
				t.Fatalf("status %d", hr.StatusCode)
			}

			opt, err := req.BuildOptions()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := core.Analyze(context.Background(), core.Input{Source: tc.src}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if resp.HPF != direct.EmitHPF() {
				t.Errorf("HPF text differs from direct analysis:\n--- daemon ---\n%s\n--- direct ---\n%s",
					resp.HPF, direct.EmitHPF())
			}
			if resp.TotalCostUS != direct.TotalCost || resp.Dynamic != direct.Dynamic {
				t.Errorf("cost/dynamic = %v/%v, direct %v/%v",
					resp.TotalCostUS, resp.Dynamic, direct.TotalCost, direct.Dynamic)
			}
			if len(resp.Remaps) != len(direct.Remaps) {
				t.Fatalf("remap count %d, direct %d", len(resp.Remaps), len(direct.Remaps))
			}
			for i, rm := range resp.Remaps {
				dm := direct.Remaps[i]
				if rm.FromPhase != dm.Edge.From || rm.ToPhase != dm.Edge.To ||
					strings.Join(rm.Arrays, ",") != strings.Join(dm.Arrays, ",") {
					t.Errorf("remap %d = %+v, direct %+v", i, rm, dm)
				}
			}
		})
	}
}

// TestMetricsInventory: /metrics carries every counter the wire
// contract names, with values consistent with the traffic just served.
func TestMetricsInventory(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 8, StoreDir: t.TempDir()})
	body := requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8})
	for i := 0; i < 3; i++ {
		if rec := post(srv, body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d", i, rec.Code)
		}
	}
	post(srv, []byte(`{"v":1,`)) // one typed failure

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.RequestsTotal != 4 || m.RequestsOK != 3 || m.RequestsFailed != 1 {
		t.Errorf("request accounting = %d total / %d ok / %d failed, want 4/3/1",
			m.RequestsTotal, m.RequestsOK, m.RequestsFailed)
	}
	if m.AnalysesTotal != 3 {
		t.Errorf("analyses_total = %d, want 3", m.AnalysesTotal)
	}
	if m.QueueCapacity != 8 || m.InFlightCapacity != 2 {
		t.Errorf("capacities = %d/%d, want 8/2", m.QueueCapacity, m.InFlightCapacity)
	}
	if len(m.Totals.StageUS) == 0 {
		t.Error("totals.stage_us is empty after three analyses")
	}
	for _, st := range []string{stage.Parse, stage.Pricing, stage.Selection} {
		if m.Totals.StageUS[st] < 0 {
			t.Errorf("stage %s has negative time", st)
		}
		if _, ok := m.Totals.StageUS[st]; !ok {
			t.Errorf("totals.stage_us missing stage %s", st)
		}
	}
	if m.Totals.Solver.Solves == 0 {
		t.Error("totals.solver.solves is zero after three analyses")
	}
	// Requests 2 and 3 repeat request 1's key, so the shared layers must
	// show reuse: either the L2 shared cache or the L3 store served hits.
	reuse := m.Totals.Cache.SharedPricing.Hits + m.Totals.Cache.SharedSelection.Hits +
		m.Totals.Cache.Store.Hits + m.SharedCache.Hits
	if reuse == 0 {
		t.Errorf("no shared-layer reuse across identical sequential requests: %+v", m.Totals.Cache)
	}
	for _, name := range []string{"l1_pricing", "l1_remap", "l2_pricing", "l2_remap", "l2_selection", "l3_store"} {
		if _, ok := m.CacheHitRates[name]; !ok {
			t.Errorf("cache_hit_rates missing %q", name)
		}
	}
	if !m.Store.Configured {
		t.Error("store.configured = false with a store directory set")
	}
	// All three unbudgeted requests route through the incremental
	// session path: one program family, three Session.Update flights,
	// and a positive reuse ratio (identical re-posts reuse everything).
	if m.IncrementalFlights != 3 {
		t.Errorf("incremental_flights = %d, want 3", m.IncrementalFlights)
	}
	if m.IncrementalSessions != 1 {
		t.Errorf("incremental_sessions = %d, want 1", m.IncrementalSessions)
	}
	if m.IncrementalReuseRatio <= 0 {
		t.Errorf("incremental_reuse_ratio = %v, want > 0", m.IncrementalReuseRatio)
	}
	if m.Store.Writes == 0 {
		t.Error("store.writes = 0 after analyses over a store")
	}

	// The serialized document carries the exact counter names the CI
	// service job greps for.
	raw := rec.Body.String()
	for _, name := range []string{
		`"requests_total"`, `"requests_ok"`, `"requests_failed"`, `"requests_rejected"`,
		`"analyses_total"`, `"dedup_inflight_hits"`,
		`"queue_depth"`, `"queue_capacity"`, `"inflight"`, `"inflight_capacity"`,
		`"totals"`, `"stage_us"`, `"cache_hit_rates"`, `"l3_store"`,
		`"solver"`, `"lp_pivots"`, `"shared_cache"`, `"store"`, `"quarantined"`,
		`"shed_total"`, `"shedding"`, `"drain_rate_per_sec"`, `"drain_rejections"`, `"draining"`,
		`"watchdog_trips"`, `"watchdog_abandoned"`,
		`"crashes_total"`, `"quarantined_keys"`, `"quarantine_rejections"`,
		`"incremental_flights"`, `"incremental_sessions"`, `"incremental_reuse_ratio"`,
	} {
		if !strings.Contains(raw, name) {
			t.Errorf("/metrics document missing %s", name)
		}
	}
}
