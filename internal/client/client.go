// Package client is the retrying Go client for the layoutd wire API —
// the other half of the crash-only contract: the server may shed,
// drain, watchdog-kill or quarantine a request, and the network may
// tear, stall, truncate or duplicate the exchange, yet a caller using
// this client sees exactly one of three outcomes: a certified
// core.Response (byte-equivalent to a direct core.Analyze), a typed
// *APIError it chose not to retry past, or its own context expiring.
//
// # Retry policy
//
// The policy is driven by the server's typed error kinds
// (core.RetryableKind), not by HTTP status folklore:
//
//   - transport failures (dial errors, torn connections, truncated or
//     undecodable bodies) are always retryable — the analysis is
//     deterministic and deduplicated server-side, so re-asking is safe
//     and cannot double any effect;
//   - retryable kinds (overloaded, draining, watchdog, canceled,
//     fault, internal) back off and retry, honoring the server's
//     Retry-After (capped by the policy) over the computed backoff;
//   - terminal kinds (bad_request, validation, syntax, strict,
//     quarantined, certification) return immediately: the server has
//     said re-sending the same bytes cannot succeed, and retrying a
//     quarantined key would be exactly the poisoned-retry loop the
//     quarantine exists to stop.
//
// A call makes a bounded number of attempts, each with its own
// timeout.  Backoff is exponential with seeded jitter (deterministic
// under a fixed Seed, decorrelated in production), and the caller's
// context is checked before every sleep and attempt.  The numbers are
// the fixed defaultPolicy below.
//
// # Hedging
//
// With Hedge enabled the client races a second attempt when the first
// exceeds the observed p95 latency (never sooner than the policy's
// hedge floor, and only once at least eight latencies have been
// observed).  The server
// deduplicates identical in-flight requests by content hash, so the
// hedge joins the original flight rather than doubling work; whichever
// copy answers first wins.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config parameterizes a Client.  Only BaseURL is required; the retry
// and hedging tuning is the fixed policy below.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8780".
	BaseURL string
	// HTTPClient overrides the transport (nil ⇒ a dedicated client;
	// tests point it at chaos proxies).
	HTTPClient *http.Client
	// Hedge enables the p95 hedged second attempt.
	Hedge bool
	// Seed makes the backoff jitter deterministic for tests (0 ⇒ seeded
	// from the clock).
	Seed int64
}

// policy is the client's fixed retry and hedging tuning.  New always
// uses defaultPolicy; only in-package tests shorten it (newClient).
type policy struct {
	// maxAttempts bounds tries per Analyze call, first attempt included.
	maxAttempts int
	// baseBackoff seeds the exponential backoff; maxBackoff caps it.
	baseBackoff, maxBackoff time.Duration
	// maxRetryAfter caps how long a server-sent Retry-After is honored —
	// an overloaded server must not park clients forever.
	maxRetryAfter time.Duration
	// attemptTimeout bounds one attempt's round trip, so a slow-loris
	// peer costs one attempt, not the whole deadline.
	attemptTimeout time.Duration
	// hedgeMin is the earliest a hedge may launch.
	hedgeMin time.Duration
}

var defaultPolicy = policy{
	maxAttempts:    4,
	baseBackoff:    100 * time.Millisecond,
	maxBackoff:     5 * time.Second,
	maxRetryAfter:  30 * time.Second,
	attemptTimeout: 60 * time.Second,
	hedgeMin:       50 * time.Millisecond,
}

// APIError is a typed error answer from the server (any non-200 with a
// parseable core.ErrorBody envelope).
type APIError struct {
	Status     int           // HTTP status
	Kind       string        // stable machine-readable kind (core.Kind*)
	Message    string        // human-readable message
	Detail     string        // optional diagnostic pin (cert stage/check, watchdog stack)
	RetryAfter time.Duration // parsed Retry-After hint (0 if absent)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("layoutd: %s (%d): %s", e.Kind, e.Status, e.Message)
}

// Retryable reports whether the server's kind invites a retry.
func (e *APIError) Retryable() bool { return core.RetryableKind(e.Kind) }

// Stats is the client's own accounting, for tests and -stats output.
type Stats struct {
	Requests   int64 // Analyze calls
	Attempts   int64 // HTTP round trips started (hedges included)
	Retries    int64 // attempts beyond each call's first
	Hedges     int64 // hedged second attempts launched
	Transport  int64 // attempts lost to transport-level failures
	APIErrors  int64 // attempts answered with a typed error envelope
	RetrySleep int64 // total nanoseconds spent backing off
}

// Client is a retrying layoutd client.  Safe for concurrent use.
type Client struct {
	cfg Config
	pol policy
	hc  *http.Client

	requests   atomic.Int64
	attempts   atomic.Int64
	retries    atomic.Int64
	hedges     atomic.Int64
	transport  atomic.Int64
	apiErrors  atomic.Int64
	retrySleep atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
	lat []time.Duration // ring of recent successful-attempt latencies
	n   int
}

// latencyWindow bounds the p95 measurement ring.
const latencyWindow = 64

// New builds a client.
func New(cfg Config) (*Client, error) { return newClient(cfg, defaultPolicy) }

// newClient is New under a given policy — the seam tests use to shorten
// backoffs and bounds.
func newClient(cfg Config, pol policy) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL is required")
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		cfg: cfg,
		pol: pol,
		hc:  hc,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		lat: make([]time.Duration, 0, latencyWindow),
	}, nil
}

// Stats snapshots the client's accounting.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:   c.requests.Load(),
		Attempts:   c.attempts.Load(),
		Retries:    c.retries.Load(),
		Hedges:     c.hedges.Load(),
		Transport:  c.transport.Load(),
		APIErrors:  c.apiErrors.Load(),
		RetrySleep: c.retrySleep.Load(),
	}
}

// Analyze sends one request, retrying per the policy, and returns the
// server's response.  A non-nil error is either a terminal *APIError,
// the last *APIError/transport error after the policy's attempts, or
// ctx's own error.
func (c *Client) Analyze(ctx context.Context, req *core.Request) (*core.Response, error) {
	c.requests.Add(1)
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	var lastErr error
	for attempt := 0; attempt < c.pol.maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			delay := c.backoff(attempt, lastErr)
			c.retrySleep.Add(int64(delay))
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			}
		}
		resp, err := c.attempt(ctx, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's deadline, not the server's trouble.
			return nil, ctx.Err()
		}
		var ae *APIError
		if errors.As(err, &ae) && !ae.Retryable() {
			// Terminal: the server says the same bytes cannot succeed.
			return nil, err
		}
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", c.pol.maxAttempts, lastErr)
}

// backoff computes the sleep before the given retry (attempt ≥ 1):
// exponential with jitter, overridden upward by a server Retry-After.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	d := c.pol.baseBackoff << (attempt - 1)
	if d > c.pol.maxBackoff || d <= 0 {
		d = c.pol.maxBackoff
	}
	// Full jitter over [d/2, d]: decorrelates a fleet of clients
	// without ever collapsing the wait to ~0.
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		ra := ae.RetryAfter
		if ra > c.pol.maxRetryAfter {
			ra = c.pol.maxRetryAfter
		}
		if ra > d {
			d = ra
		}
	}
	return d
}

// attempt runs one (possibly hedged) try under the attempt timeout.
func (c *Client) attempt(ctx context.Context, body []byte) (*core.Response, error) {
	actx, cancel := context.WithTimeout(ctx, c.pol.attemptTimeout)
	defer cancel()

	hedgeAfter, ok := c.hedgeDelay()
	if !c.cfg.Hedge || !ok {
		return c.do(actx, body)
	}

	type result struct {
		resp *core.Response
		err  error
	}
	ch := make(chan result, 2)
	go func() {
		r, err := c.do(actx, body)
		ch <- result{r, err}
	}()
	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timer.C:
	}
	// The first copy is slow: race a second.  The server's singleflight
	// dedups the pair onto one analysis, so the hedge is cheap.  First
	// success wins (cancel reaps the loser); if both fail, report the
	// later failure.
	c.hedges.Add(1)
	go func() {
		r, err := c.do(actx, body)
		ch <- result{r, err}
	}()
	first := <-ch
	if first.err == nil {
		return first.resp, nil
	}
	second := <-ch
	if second.err == nil {
		return second.resp, nil
	}
	return nil, second.err
}

// hedgeDelay returns the p95 of observed latencies (floored at
// the policy's hedgeMin), and whether enough samples exist to hedge at
// all.
func (c *Client) hedgeDelay() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 8 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), c.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p95 := sorted[(len(sorted)*95)/100]
	if p95 < c.pol.hedgeMin {
		p95 = c.pol.hedgeMin
	}
	return p95, true
}

func (c *Client) noteLatency(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.lat) < latencyWindow {
		c.lat = append(c.lat, d)
	} else {
		c.lat[c.n%latencyWindow] = d
	}
	c.n++
}

// maxResponseBytes bounds how much of a response the client will read.
const maxResponseBytes = 64 << 20

// do performs exactly one HTTP round trip.  Failures split three ways:
// transport errors (retryable), typed *APIError answers, and malformed
// 200s (retryable — a truncated or garbled success is a network
// artifact, the server's real answer is deterministic).
func (c *Client) do(ctx context.Context, body []byte) (*core.Response, error) {
	c.attempts.Add(1)
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.hc.Do(hreq)
	if err != nil {
		c.transport.Add(1)
		return nil, fmt.Errorf("client: transport: %w", err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxResponseBytes))
	if err != nil {
		// Torn or truncated mid-body: Content-Length said more.
		c.transport.Add(1)
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	if hres.StatusCode != http.StatusOK {
		var eb core.ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Kind == "" {
			// A non-200 without the typed envelope is proxy/network
			// debris, not a server verdict: retryable.
			c.transport.Add(1)
			return nil, fmt.Errorf("client: untyped %d response (%.120s)", hres.StatusCode, data)
		}
		c.apiErrors.Add(1)
		return nil, &APIError{
			Status:     hres.StatusCode,
			Kind:       eb.Error.Kind,
			Message:    eb.Error.Message,
			Detail:     eb.Error.Detail,
			RetryAfter: parseRetryAfter(hres.Header.Get("Retry-After")),
		}
	}
	var resp core.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		c.transport.Add(1)
		return nil, fmt.Errorf("client: decoding response: %w", err)
	}
	if resp.V != core.WireV1 {
		c.transport.Add(1)
		return nil, fmt.Errorf("client: response wire version %d, want %d", resp.V, core.WireV1)
	}
	c.noteLatency(time.Since(t0))
	return &resp, nil
}

// parseRetryAfter parses the delay-seconds form of Retry-After (the
// only form layoutd emits); anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
