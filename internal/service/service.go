// Package service is the layout-analysis daemon behind cmd/layoutd: a
// long-running HTTP/JSON server multiplexing concurrent analysis
// requests over one process-wide core.SharedCache (L2) and one on-disk
// artifact store (L3), speaking the versioned wire API of package core
// (core.Request / core.Response, "v":1).
//
// # Request lifecycle
//
//		decode → key → singleflight → quarantine → admit → watchdog(session) → respond
//
//	 1. decode: the body is decoded with core.DecodeRequest (unknown
//	    fields, bad versions and malformed JSON are typed 400s) and
//	    mapped to validated core.Options through the same BuildOptions
//	    path the CLI uses — the server and CLI cannot drift.
//	 2. key: the request's content-hash identity (core.Request.Key)
//	    reuses the artifact keys that already address the L2/L3 cache
//	    entries: same program + machine + options ⇒ same key.
//	 3. singleflight: identical requests in flight coalesce onto one
//	    analysis; every waiter receives the leader's response bytes, so
//	    deduplicated answers are byte-identical by construction.
//	    Distinct keys never wait on each other (each is its own flight).
//	 4. quarantine: a key that repeatedly crashed the analyzer (recovered
//	    panic, internal error, watchdog abandonment) is answered with an
//	    immediate typed 422 (core.KindQuarantined) for a TTL instead of
//	    being retried into the analyzer again (the crash table,
//	    quarantine.go).
//	 5. admit: only flight leaders consume admission slots.  Up to
//	    MaxInFlight analyses run; leaders beyond that wait in a bounded
//	    queue — but admission is delay-based, not just depth-based: when
//	    the observed standing queueing delay exceeds the CoDel-style
//	    target, new leaders are shed early with 429 and an honest
//	    Retry-After computed from the measured drain rate (shed.go).  A
//	    draining server sheds everything with a typed 503.
//	 6. watchdog(session): the analysis runs on its own goroutine under
//	    core.Analyze with the server's shared cache and store injected;
//	    per-request budgets go through the same Options.Timeout
//	    machinery as the CLI, so an exhausted budget degrades gracefully.
//	    A flight that overruns a hard wall-clock multiple of its clamped
//	    budget is shot by the watchdog: canceled, stack-dumped into the
//	    error detail, and — if it will not unwind — abandoned, so a
//	    wedged solver can never leak an admission slot (watchdog.go).
//	 7. respond: the Result is rendered to a core.Response; errors map
//	    to typed JSON bodies (core.ErrorBody) with deterministic HTTP
//	    statuses, and crash-shaped failures feed the quarantine table.
//
// # Lifecycle
//
// GET /healthz is pure liveness: 200 while the process can serve
// bytes.  GET /readyz is readiness: 503 once the server is draining
// (or its store directory has vanished), 200 otherwise — a load
// balancer stops routing here while in-flight work completes.  Drain
// begins with Server.Drain (cmd/layoutd calls it on SIGTERM) and
// Close finishes it: new work is shed, running flights get
// DrainTimeout to complete, only then is the store closed and synced —
// a racing flight can never write to a closing store.
//
// # Metrics
//
// GET /metrics serves a Metrics snapshot: request/queue/dedup/shed/
// quarantine/watchdog counters, per-stage wall clock, L1/L2/L3 cache
// traffic and hit rates, solver effort, and the shared-cache and store
// snapshots.  The per-run counters aggregate the same core.Stats
// struct every Response (and the CLI's -stats line) carries.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/store"
)

// Config parameterizes a Server.  The zero value is a working
// memory-only server with sensible bounds.  It holds only what an
// operator sizes to the host: capacities, budgets and the store path.
// The mechanisms' own tuning (shedder, watchdog, quarantine, session
// table) is the fixed policy below.
type Config struct {
	// MaxInFlight bounds concurrently running analyses (0 ⇒ NumCPU).
	MaxInFlight int
	// MaxQueue bounds flight leaders waiting for an admission slot —
	// the hard depth backstop behind the delay-based shedder; a leader
	// beyond the bound is answered 429 immediately (0 ⇒ 64, negative ⇒
	// no queue: reject as soon as MaxInFlight is busy).
	MaxQueue int
	// DrainTimeout bounds how long Close waits for in-flight flights
	// to complete before cutting them off and closing the store (0 ⇒ 15s).
	DrainTimeout time.Duration
	// CacheCapacity bounds the process-wide shared cache entries
	// (0 ⇒ core.DefaultSharedCapacity).
	CacheCapacity int
	// StoreDir names the on-disk artifact store directory ("" ⇒ no L3).
	// The store is opened once at NewServer and shared by every
	// request, so warm state survives restarts.
	StoreDir string
	// DefaultTimeout is applied to requests that carry no timeout_ms;
	// MaxTimeout caps every request's budget.  Zero means none.  The
	// clamp happens before the request is keyed, so two requests that
	// clamp to the same effective budget deduplicate.  Only a budgeted
	// request has a watchdog wall.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body (0 ⇒ 16 MiB).
	MaxBodyBytes int64
	// Fault arms the chaos fault-injection plan on every request, on
	// the server-opened store, and at the service-flight site (nil
	// outside tests).
	Fault *fault.Plan
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.NumCPU()
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// The fixed tuning of the server's self-protection mechanisms.  Every
// value here is the one NewServer runs; the timings sit in
// defaultPolicy because in-package tests shorten them (newServer) to
// make the mechanisms trip in milliseconds, the counts are constants.
const (
	// A request key that crashed the analyzer quarantineAfter times is
	// rejected with a typed 422 for policy.quarantineTTL; the crash
	// table keeps at most quarantineCap keys (quarantine.go).
	quarantineAfter = 2
	quarantineCap   = 1024
	// maxSessions bounds the edit-aware session table (incremental.go).
	maxSessions = 8
)

// policy holds the mechanisms' timings.
type policy struct {
	// queueTarget is the CoDel-style standing queueing-delay target:
	// when the minimum admission delay over a whole queueWindow stays
	// above it, new leaders are shed early with 429 + an honest
	// Retry-After from the measured drain rate (shed.go).
	queueTarget, queueWindow time.Duration
	// A flight's hard wall clock is watchdogFloor + watchdogMultiple ×
	// its clamped budget (the floor keeps a 1ns degradation probe from
	// tripping at once); past it the flight is canceled, stack-dumped
	// and its slot reclaimed, and after watchdogGrace more its goroutine
	// is abandoned (watchdog.go).
	watchdogMultiple             int
	watchdogFloor, watchdogGrace time.Duration
	// quarantineTTL is how long a quarantined key stays rejected.
	quarantineTTL time.Duration
}

var defaultPolicy = policy{
	queueTarget:      50 * time.Millisecond,
	queueWindow:      time.Second,
	watchdogMultiple: 8,
	watchdogFloor:    2 * time.Second,
	watchdogGrace:    time.Second,
	quarantineTTL:    5 * time.Minute,
}

// flight is one in-progress (or just-finished) analysis shared by
// every request with the same key.  The leader fills the response
// fields and closes done; waiters only read after done is closed.
type flight struct {
	done       chan struct{}
	status     int
	body       []byte
	retryAfter string // non-empty on 429/503 rejections
}

// admitResult is the admission decision for one flight leader.
type admitResult int

const (
	admitOK       admitResult = iota
	admitDraining             // server is draining: typed 503
	admitShed                 // standing queue delay over target: typed 429
	admitFull                 // hard queue bound reached: typed 429
)

// Server multiplexes layout-analysis requests.  Create with NewServer;
// it implements http.Handler.
type Server struct {
	cfg   Config
	pol   policy
	cache *core.SharedCache
	store *store.Store // nil ⇒ no L3

	// baseCtx outlives any single request: a flight with waiters must
	// finish even if the leader's client disconnects.  Close cancels it
	// only after the drain wait, so flights finish before the store dies.
	baseCtx context.Context
	cancel  context.CancelFunc

	// draining flips once (Drain); drainCh unblocks queued leaders.
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}
	closeOnce sync.Once
	closeErr  error

	sem      chan struct{} // admission slots (MaxInFlight)
	queued   atomic.Int64  // leaders waiting for a slot
	inflight atomic.Int64  // analyses currently running (admitted flights)
	running  gauge         // live analysis goroutines, incl. watchdog-abandoned ones

	shed     *shedder
	crashes  *crashTable
	sessions *sessionTable // edit-aware session families

	mu      sync.Mutex
	flights map[artifact.Key]*flight

	m counters

	// hookFlightStart, when set, runs on the flight leader right after
	// admission and before the analysis — test seam for making flights
	// deterministically observable mid-air.
	hookFlightStart func(key artifact.Key)
}

// NewServer builds a server: one shared cache, one store (opened from
// cfg.StoreDir).  A store directory that cannot be opened is a
// configuration error and fails construction — the operator asked for
// an L3 the process cannot provide; per-request store trouble after a
// successful open still degrades, never fails.
func NewServer(cfg Config) (*Server, error) { return newServer(cfg, defaultPolicy) }

// newServer is NewServer under a given policy — the seam tests use to
// shorten the mechanisms' timings.
func newServer(cfg Config, pol policy) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pol:      pol,
		cache:    core.NewSharedCache(cfg.CacheCapacity),
		sem:      make(chan struct{}, cfg.MaxInFlight),
		flights:  map[artifact.Key]*flight{},
		drainCh:  make(chan struct{}),
		shed:     newShedder(pol.queueTarget, pol.queueWindow),
		crashes:  newCrashTable(pol.quarantineTTL),
		sessions: newSessionTable(),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: cfg.StoreDir, Fault: cfg.Fault})
		if err != nil {
			return nil, fmt.Errorf("service: opening artifact store: %w", err)
		}
		s.store = st
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Drain flips the server into drain mode: /readyz answers 503, new
// flights are shed with a typed 503 (core.KindDraining), queued
// leaders are bounced, and in-flight analyses keep running to
// completion.  Idempotent; Close implies it.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports the number of currently running analyses, for
// drain-progress logging.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Close is the crash-only exit path: drain, wait for in-flight
// flights (bounded by DrainTimeout), only then cancel stragglers and
// close the store — so a racing flight can never write to
// a closing store, and a clean shutdown leaves the L3 fully synced.
// Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.Drain()
		idle := s.running.waitZero(s.cfg.DrainTimeout)
		s.cancel()
		if !idle {
			// Stragglers were cut off; give the cancellation one grace
			// period to unwind before the store goes away under them.
			// (A store racing a truly wedged, watchdog-abandoned flight
			// still degrades rather than fails — but a clean drain never
			// relies on that.)
			s.running.waitZero(s.pol.watchdogGrace)
		}
		if s.store != nil {
			s.closeErr = s.store.Close()
		}
	})
	return s.closeErr
}

// ServeHTTP routes the endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/analyze" && r.Method == http.MethodPost:
		s.handleAnalyze(w, r)
	case r.URL.Path == "/v1/analyze":
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", "")
	case r.URL.Path == "/metrics" && r.Method == http.MethodGet:
		s.handleMetrics(w)
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		// Pure liveness: the process is up and serving bytes.
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"v":%d,"ok":true}`+"\n", core.WireV1)
	case r.URL.Path == "/readyz" && r.Method == http.MethodGet:
		s.handleReadyz(w)
	default:
		s.writeError(w, http.StatusNotFound, "not_found", "unknown endpoint "+r.URL.Path, "")
	}
}

// handleReadyz is the readiness probe: 503 while draining or when the
// configured store directory has vanished out from under the process,
// 200 otherwise.  (Store *IO* trouble still degrades per request and
// keeps the replica ready — only a missing store or a drain should
// pull it out of rotation.)
func (s *Server) handleReadyz(w http.ResponseWriter) {
	type readyz struct {
		V        int    `json:"v"`
		Ready    bool   `json:"ready"`
		Draining bool   `json:"draining"`
		InFlight int64  `json:"inflight"`
		StoreOK  bool   `json:"store_ok"`
		Detail   string `json:"detail,omitempty"`
	}
	rz := readyz{V: core.WireV1, Ready: true, Draining: s.Draining(), InFlight: s.InFlight(), StoreOK: true}
	if st := s.store; st != nil {
		if _, err := os.Stat(st.Dir()); err != nil {
			rz.StoreOK = false
			rz.Ready = false
			rz.Detail = "store directory unavailable: " + err.Error()
		}
	}
	if rz.Draining {
		rz.Ready = false
		if rz.Detail == "" {
			rz.Detail = "draining"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if !rz.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(rz)
}

// handleAnalyze is the request lifecycle: decode → key → singleflight
// → quarantine → admit → watchdog(session) → respond.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	req, err := core.DecodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.m.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, core.KindBadRequest, err.Error(), "")
		return
	}
	opt, err := req.BuildOptions()
	if err != nil {
		s.m.failed.Add(1)
		status, kind := classify(err)
		s.writeError(w, status, kind, err.Error(), "")
		return
	}
	// Clamp the budget before keying so requests that clamp to the same
	// effective options deduplicate.
	if opt.Timeout == 0 {
		opt.Timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (opt.Timeout == 0 || opt.Timeout > s.cfg.MaxTimeout) {
		opt.Timeout = s.cfg.MaxTimeout
	}
	key := req.Key(opt)

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		// Joined an identical in-flight request: wait for the leader's
		// bytes.  A waiter whose client disconnects just stops waiting —
		// the flight keeps running for everyone else.
		s.m.dedup.Add(1)
		s.mu.Unlock()
		select {
		case <-f.done:
			s.writeFlight(w, f)
		case <-r.Context().Done():
		}
		return
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	s.runFlight(f, key, req, opt)
	s.writeFlight(w, f)
}

// runFlight is the leader's path: quarantine, admission, the
// watchdogged analysis, rendering.  It always finishes the flight
// (fills the response, deregisters the key, closes done), so waiters
// can never hang on it.
func (s *Server) runFlight(f *flight, key artifact.Key, req *core.Request, opt core.Options) {
	defer func() {
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
	}()

	// Poisoned-key quarantine: a key that keeps crashing the analyzer
	// is rejected before it can consume a slot, let alone crash again.
	if until, crashes, blocked := s.crashes.blocked(key, time.Now()); blocked {
		s.m.quarantineRejected.Add(1)
		f.status = http.StatusUnprocessableEntity
		f.body = errorBody(core.KindQuarantined,
			fmt.Sprintf("request crashed the analyzer %d time(s) and is quarantined for another %s",
				crashes, time.Until(until).Round(time.Second)), "")
		return
	}

	switch s.admit() {
	case admitDraining:
		s.m.drainRejected.Add(1)
		f.status = http.StatusServiceUnavailable
		f.retryAfter = "1"
		f.body = errorBody(core.KindDraining, "server is draining for shutdown", "")
		return
	case admitShed:
		s.m.rejected.Add(1)
		s.m.shed.Add(1)
		ra := s.shed.retryAfter(time.Now(), int(s.queued.Load()))
		f.status = http.StatusTooManyRequests
		f.retryAfter = fmt.Sprintf("%d", ra)
		f.body = errorBody(core.KindOverloaded,
			fmt.Sprintf("standing queueing delay over target (%v); retry after ~%ds", s.pol.queueTarget, ra), "")
		return
	case admitFull:
		s.m.rejected.Add(1)
		ra := s.shed.retryAfter(time.Now(), int(s.queued.Load()))
		f.status = http.StatusTooManyRequests
		f.retryAfter = fmt.Sprintf("%d", ra)
		f.body = errorBody(core.KindOverloaded,
			fmt.Sprintf("analysis queue full (%d running, %d queued)", s.cfg.MaxInFlight, s.cfg.MaxQueue), "")
		return
	}
	defer func() { <-s.sem }()
	// running covers the whole admitted section (admission → response
	// rendered), so Close's drain-wait cannot close the store under a
	// flight that is about to write to it.  The analysis goroutine holds
	// its own increment, which outlives this frame if the watchdog
	// abandons it — the zombie is still visible to the drain wait.
	s.running.add(1)
	defer s.running.add(-1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer s.shed.noteCompletion(time.Now())
	if hook := s.hookFlightStart; hook != nil {
		hook(key)
	}

	// Inject the server's resources; they are process-wide and never
	// part of the request key.
	opt.Cache = s.cache
	opt.Store = s.store
	opt.Fault = s.cfg.Fault
	s.m.analyses.Add(1)
	o := s.runAnalysis(req, opt)
	if o.err != nil {
		if crashShaped(o.err) {
			s.m.crashes.Add(1)
			s.crashes.record(key, time.Now())
		}
		s.m.failed.Add(1)
		status, kind := classify(o.err)
		f.status = status
		f.body = errorBody(kind, o.err.Error(), detailOf(o.err))
		return
	}
	s.m.addResult(o.res)
	body, err := json.Marshal(core.NewResponse(o.res))
	if err != nil {
		s.m.failed.Add(1)
		f.status = http.StatusInternalServerError
		f.body = errorBody(core.KindInternal, fmt.Sprintf("encoding response: %v", err), "")
		return
	}
	s.m.ok.Add(1)
	f.status = http.StatusOK
	f.body = append(body, '\n')
}

// admit acquires an analysis slot.  The fast path takes a free slot;
// otherwise the leader is shed (draining, standing delay over target,
// or hard queue bound) or waits in the bounded queue.  Waiting is
// bounded by drain/shutdown, never by another request's client: queue
// occupants hold no locks and block nothing in flight.
func (s *Server) admit() admitResult {
	select {
	case s.sem <- struct{}{}:
		s.shed.noteAdmit(time.Now(), 0, int(s.queued.Load()))
		return admitOK
	default:
	}
	if s.Draining() {
		return admitDraining
	}
	if s.shed.shouldShed(time.Now(), int(s.queued.Load())) {
		return admitShed
	}
	if s.cfg.MaxQueue < 0 {
		return admitFull
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return admitFull
	}
	defer s.queued.Add(-1)
	t0 := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.shed.noteAdmit(time.Now(), time.Since(t0), int(s.queued.Load()-1))
		return admitOK
	case <-s.drainCh:
		return admitDraining
	case <-s.baseCtx.Done():
		return admitDraining
	}
}

// crashShaped reports whether a flight error counts as a crash for the
// quarantine table: a recovered panic (internal error), an injected
// service/pipeline fault, or a watchdog abandonment.  Degradations,
// strict failures, validation and certification errors are NOT crashes
// — they are the pipeline working as specified.
func crashShaped(err error) bool {
	var ie *core.InternalError
	var fe *fault.Error
	var we *core.WatchdogError
	return errors.As(err, &ie) || errors.As(err, &fe) || errors.As(err, &we)
}

// writeFlight writes a finished flight's shared bytes.
func (s *Server) writeFlight(w http.ResponseWriter, f *flight) {
	w.Header().Set("Content-Type", "application/json")
	if f.retryAfter != "" {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// ErrorBody and ErrorInfo are the wire error envelope, shared with the
// client through package core.
type (
	ErrorBody = core.ErrorBody
	ErrorInfo = core.ErrorInfo
)

func errorBody(kind, msg, detail string) []byte {
	b, err := json.Marshal(ErrorBody{V: core.WireV1, Error: ErrorInfo{Kind: kind, Message: msg, Detail: detail}})
	if err != nil { // cannot happen: the struct is marshalable
		return []byte(fmt.Sprintf(`{"v":%d,"error":{"kind":%q,"message":"encoding failure"}}`, core.WireV1, kind))
	}
	return append(b, '\n')
}

func (s *Server) writeError(w http.ResponseWriter, status int, kind, msg, detail string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(errorBody(kind, msg, detail))
}

// classify maps an analysis error to (HTTP status, wire error kind).
// The mapping is part of the wire contract: clients branch on kind,
// so each core error type gets a stable label.
func classify(err error) (int, string) {
	var we *core.WireError
	var ve *core.ValidationError
	var se *fortran.SyntaxError
	var ste *core.StrictError
	var ce *core.CertificationError
	var wde *core.WatchdogError
	var fe *fault.Error
	switch {
	case errors.As(err, &we):
		return http.StatusBadRequest, core.KindBadRequest
	case errors.As(err, &ve):
		return http.StatusBadRequest, core.KindValidation
	case errors.As(err, &se):
		return http.StatusBadRequest, core.KindSyntax
	case errors.As(err, &ste):
		return http.StatusUnprocessableEntity, core.KindStrict
	case errors.As(err, &ce):
		return http.StatusInternalServerError, core.KindCertification
	case errors.As(err, &wde):
		return http.StatusServiceUnavailable, core.KindWatchdog
	case errors.As(err, &fe):
		return http.StatusInternalServerError, core.KindFault
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, core.KindCanceled
	default:
		return http.StatusInternalServerError, core.KindInternal
	}
}

// detailOf extracts the diagnostic pin for the error envelope's detail
// field: the stage/check of a certification failure, or the goroutine
// dump of a watchdog trip.
func detailOf(err error) string {
	var ce *core.CertificationError
	if errors.As(err, &ce) {
		return fmt.Sprintf("%s/%s", ce.Stage, ce.Check)
	}
	var we *core.WatchdogError
	if errors.As(err, &we) {
		return string(we.Stack)
	}
	return ""
}
