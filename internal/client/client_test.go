package client

// Client unit tests against scripted handlers: the retry policy
// (transient typed errors retried, terminal kinds returned
// immediately, Retry-After honored over backoff, the caller's context
// always wins), the hedged second attempt, and — through the netchaos
// proxy — survival of every injected network failure mode.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netchaos"
)

var testReq = &core.Request{V: core.WireV1, Source: "program p\nend\n", Procs: 4}

func writeResponse(w http.ResponseWriter, resp core.Response) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func writeErrorBody(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(core.ErrorBody{V: core.WireV1, Error: core.ErrorInfo{Kind: kind, Message: msg}})
}

// fastPolicy is the default policy with a 1ms backoff base, so retry
// tests do not sleep for real.
func fastPolicy() policy {
	pol := defaultPolicy
	pol.baseBackoff = time.Millisecond
	return pol
}

func newTestClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	return newPolicyClient(t, cfg, fastPolicy())
}

// newPolicyClient is newTestClient under a given policy.
func newPolicyClient(t *testing.T, cfg Config, pol policy) *Client {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	c, err := newClient(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDefaultPolicyPinned: New runs the retry and hedging tuning the
// client always shipped with.
func TestDefaultPolicyPinned(t *testing.T) {
	want := policy{
		maxAttempts:    4,
		baseBackoff:    100 * time.Millisecond,
		maxBackoff:     5 * time.Second,
		maxRetryAfter:  30 * time.Second,
		attemptTimeout: 60 * time.Second,
		hedgeMin:       50 * time.Millisecond,
	}
	if defaultPolicy != want {
		t.Errorf("defaultPolicy = %+v, want %+v", defaultPolicy, want)
	}
	c, err := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if c.pol != want {
		t.Errorf("New policy = %+v, want %+v", c.pol, want)
	}
}

// TestRetriesTransientThenSucceeds: retryable typed errors are retried
// until the server recovers.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeErrorBody(w, http.StatusInternalServerError, core.KindInternal, "transient")
			return
		}
		writeResponse(w, core.Response{V: core.WireV1, HPF: "!hpf$ ok", TotalCostUS: 1.5})
	}))
	defer hs.Close()

	c := newTestClient(t, Config{BaseURL: hs.URL})
	resp, err := c.Analyze(context.Background(), testReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.HPF != "!hpf$ ok" || resp.TotalCostUS != 1.5 {
		t.Errorf("response = %+v", resp)
	}
	st := c.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.APIErrors != 2 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries / 2 api errors", st)
	}
}

// TestTerminalKindsNotRetried: a terminal kind returns immediately as
// a typed *APIError — one attempt, no retry, no sleep.
func TestTerminalKindsNotRetried(t *testing.T) {
	for _, kind := range []string{core.KindValidation, core.KindQuarantined, core.KindStrict, core.KindBadRequest} {
		t.Run(kind, func(t *testing.T) {
			var calls atomic.Int64
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				writeErrorBody(w, http.StatusUnprocessableEntity, kind, "no")
			}))
			defer hs.Close()

			c := newTestClient(t, Config{BaseURL: hs.URL})
			_, err := c.Analyze(context.Background(), testReq)
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("error = %v, want *APIError", err)
			}
			if ae.Kind != kind || ae.Retryable() {
				t.Errorf("APIError = %+v, want terminal kind %q", ae, kind)
			}
			if got := calls.Load(); got != 1 {
				t.Errorf("server saw %d calls, want exactly 1 (terminal kinds must not be retried)", got)
			}
		})
	}
}

// TestHonorsRetryAfter: a server-sent Retry-After stretches the
// backoff (capped by the policy's maxRetryAfter) instead of being
// ignored.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "30")
			writeErrorBody(w, http.StatusTooManyRequests, core.KindOverloaded, "busy")
			return
		}
		writeResponse(w, core.Response{V: core.WireV1, HPF: "!hpf$ ok"})
	}))
	defer hs.Close()

	// The 30s hint is capped to 80ms; the 1ms backoff would otherwise
	// retry near-instantly, so a ≥ 80ms wall time proves the hint won.
	pol := fastPolicy()
	pol.maxRetryAfter = 80 * time.Millisecond
	c := newPolicyClient(t, Config{BaseURL: hs.URL}, pol)
	t0 := time.Now()
	if _, err := c.Analyze(context.Background(), testReq); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < 80*time.Millisecond {
		t.Errorf("retried after %v, want ≥ 80ms (Retry-After ignored?)", elapsed)
	}
	// The hint outweighs the ≤ 1ms backoff, and the cap trims it to
	// exactly 80ms: an uncapped client would sleep the full 30s.
	if st := c.Stats(); st.RetrySleep != int64(80*time.Millisecond) {
		t.Errorf("retry_sleep = %v, want exactly the 80ms cap", time.Duration(st.RetrySleep))
	}
}

// TestGivesUpAfterMaxAttempts: persistent retryable failure ends in
// the last typed error, wrapped, after exactly maxAttempts tries.
func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeErrorBody(w, http.StatusServiceUnavailable, core.KindDraining, "down forever")
	}))
	defer hs.Close()

	pol := fastPolicy()
	pol.maxAttempts = 3
	c := newPolicyClient(t, Config{BaseURL: hs.URL}, pol)
	_, err := c.Analyze(context.Background(), testReq)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Kind != core.KindDraining {
		t.Fatalf("error = %v, want wrapped draining APIError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
}

// TestCallerContextWins: the caller's context cancels the whole retry
// loop promptly, mid-attempt included.
func TestCallerContextWins(t *testing.T) {
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release) // runs first: hs.Close waits for the handler

	c := newTestClient(t, Config{BaseURL: hs.URL})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.Analyze(ctx, testReq)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want the caller's deadline", err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("took %v to honor a 50ms caller deadline", elapsed)
	}
}

// TestHedgedAttempt: once latencies are known, a straggling attempt
// gets a hedge racing it, and the fast copy's answer wins well before
// the straggler would have finished.
func TestHedgedAttempt(t *testing.T) {
	var calls atomic.Int64
	const slowCall = 9
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == slowCall {
			time.Sleep(400 * time.Millisecond) // the straggler
		}
		writeResponse(w, core.Response{V: core.WireV1, HPF: "!hpf$ ok"})
	}))
	defer hs.Close()

	pol := fastPolicy()
	pol.hedgeMin = 10 * time.Millisecond
	c := newPolicyClient(t, Config{BaseURL: hs.URL, Hedge: true}, pol)
	for i := 0; i < slowCall-1; i++ { // build the p95 sample window
		if _, err := c.Analyze(context.Background(), testReq); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	if _, err := c.Analyze(context.Background(), testReq); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed >= 400*time.Millisecond {
		t.Errorf("hedged call took %v — the hedge never overtook the straggler", elapsed)
	}
	if st := c.Stats(); st.Hedges != 1 {
		t.Errorf("hedges = %d, want 1", st.Hedges)
	}
}

// TestSurvivesEveryChaosMode: for each injected network failure — a
// refused connection, a torn upload, slow-loris headers, a truncated
// response, a duplicated response — the client in front of a chaos
// proxy still delivers the server's exact answer.
func TestSurvivesEveryChaosMode(t *testing.T) {
	want := core.Response{V: core.WireV1, HPF: "!hpf$ distribute a(block,*)", TotalCostUS: 42.25}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeResponse(w, want)
	}))
	defer hs.Close()

	for _, mode := range netchaos.Faulty {
		t.Run(mode.String(), func(t *testing.T) {
			proxy, err := netchaos.New(hs.Listener.Addr().String(), []netchaos.Mode{mode, netchaos.Pass})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()

			pol := fastPolicy()
			pol.attemptTimeout = 5 * time.Second
			c := newPolicyClient(t, Config{
				BaseURL: proxy.URL(),
				// One exchange per proxied connection, or the schedule
				// desynchronizes from the exchanges.
				HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
			}, pol)
			resp, err := c.Analyze(context.Background(), testReq)
			if err != nil {
				t.Fatalf("mode %s: %v (stats %+v)", mode, err, c.Stats())
			}
			if resp.HPF != want.HPF || resp.TotalCostUS != want.TotalCostUS {
				t.Errorf("mode %s: response drifted: %+v", mode, resp)
			}
			if proxy.Faults() != 1 {
				t.Errorf("mode %s: proxy faults = %d, want 1", mode, proxy.Faults())
			}
		})
	}
}
