package core

// The versioned wire API: Request and Response are the single JSON
// serialization of (Input, Options) and Result, shared by the layoutd
// request/response bodies (internal/service) and the CLI's -json
// output mode.  The field set is pinned by TestRequestSchemaPinned /
// TestResponseSchemaPinned: renaming or removing a field is a wire
// break and must bump WireV1.
//
// Runtime resources deliberately have no wire representation: the
// shared cache (Options.Cache), an adopted store (Options.Store) and a
// fault plan (Options.Fault) are injected by the process that owns
// them, never by a client.  The
// store *directory* is likewise the server's (or the CLI invocation's)
// resource, not the request's.
//
// BuildOptions is the one defaulting + validation path from a Request
// to core.Options: the CLI builds a Request from its flags and the
// server decodes one from the body, so the two cannot drift.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/compmodel"
	"repro/internal/machine"
)

// WireV1 is the wire format version carried in the "v" field of every
// Request, Response and Stats value.
const WireV1 = 1

// The wire error kinds: every non-200 layoutd answer carries exactly
// one of these stable machine-readable labels in its ErrorBody, and
// the retrying client (internal/client) branches on them.  Renaming
// one is a wire break (TestErrorKindsPinned).
const (
	// Terminal kinds: the same request will deterministically fail
	// again, so a client must not retry.
	KindBadRequest    = "bad_request"   // malformed body, unknown field, version skew
	KindValidation    = "validation"    // invalid options or directives
	KindSyntax        = "syntax"        // the program does not parse
	KindStrict        = "strict"        // strict mode turned a degradation into a failure
	KindQuarantined   = "quarantined"   // the request key repeatedly crashed the analyzer
	KindCertification = "certification" // a solver product failed its independent certificate

	// Retryable kinds: the failure is about the server's state, not
	// the request — a later attempt (or another replica) may succeed.
	KindOverloaded = "overloaded" // admission shed the request (honor Retry-After)
	KindDraining   = "draining"   // the replica is draining for shutdown
	KindWatchdog   = "watchdog"   // the analysis exceeded its hard wall clock and was abandoned
	KindCanceled   = "canceled"   // the analysis was cut off by server shutdown
	KindFault      = "fault"      // an injected chaos fault (tests only)
	KindInternal   = "internal"   // a recovered analyzer panic or encoding failure
)

// RetryableKind reports whether a wire error kind is worth retrying:
// true for failures of the server's current state (overload, drain,
// watchdog abandonment, a possibly-transient crash), false for kinds
// that deterministically depend on the request itself.  Note that
// retrying KindInternal/KindFault is bounded server-side: a key that
// keeps crashing the analyzer is quarantined and the retry then lands
// on the terminal KindQuarantined.
func RetryableKind(kind string) bool {
	switch kind {
	case KindOverloaded, KindDraining, KindWatchdog, KindCanceled, KindFault, KindInternal:
		return true
	}
	return false
}

// ErrorBody is the typed JSON error envelope of every non-200 wire
// answer (layoutd and any future server speak the same envelope; the
// client decodes it back into a typed error).
type ErrorBody struct {
	V     int       `json:"v"`
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries the error classification: Kind is one of the
// stable Kind* labels, Message the human-readable cause, Detail an
// optional pin — the stage/check of a certification failure, or the
// goroutine dump of a watchdog abandonment.
type ErrorInfo struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Detail  string `json:"detail,omitempty"`
}

// WireError reports a request that could not be decoded or mapped to
// valid options: a malformed body, an unknown field, an unsupported
// version, or an unknown machine name.  Servers map it to HTTP 400.
type WireError struct {
	Msg string
}

func (e *WireError) Error() string { return "core: bad request: " + e.Msg }

// Request is the versioned wire form of one analysis request: the
// program source plus every client-settable option.  The zero value of
// every optional field means "use the default", matching the CLI's
// flag defaults exactly (BuildOptions is the shared path).
type Request struct {
	// V is the wire version; must be WireV1.
	V int `json:"v"`
	// Source is the program in the restricted Fortran dialect.
	Source string `json:"source"`
	// Procs is the number of available processors (required, ≥ 2).
	Procs int `json:"procs"`
	// Machine names a built-in machine model: "ipsc860" (the default
	// when empty), "paragon" or "cluster2020".
	Machine string `json:"machine,omitempty"`
	// MachineTable is a custom machine table in machine.WriteTable
	// format; when set it wins over Machine.
	MachineTable string `json:"machine_table,omitempty"`
	// Cyclic and MultiDim enable the extended distribution spaces.
	Cyclic   bool `json:"cyclic,omitempty"`
	MultiDim bool `json:"multidim,omitempty"`
	// UseDP runs the selection by the elimination DP alone: over its
	// table cap the request fails instead of falling back to the ILP.
	UseDP bool `json:"use_dp,omitempty"`
	// MergePhases ties adjacent phases when remapping between them can
	// never be profitable.
	MergePhases bool `json:"merge_phases,omitempty"`
	// GreedyAlign uses greedy alignment conflict resolution.
	GreedyAlign bool `json:"greedy_align,omitempty"`
	// ImportScale overrides the CAG import weight scale (0 = default).
	ImportScale float64 `json:"import_scale,omitempty"`
	// IgnoreProbHints ignores !prob annotations (always guess 50%).
	IgnoreProbHints bool `json:"ignore_prob_hints,omitempty"`
	// DefaultTrip for loops with unknown bounds (0 = 100).
	DefaultTrip int `json:"default_trip,omitempty"`
	// DefaultProb is the guessed branch probability (0 = 0.5).
	DefaultProb float64 `json:"default_prob,omitempty"`
	// Compiler selects the target compiler's optimizations.
	Compiler compmodel.Options `json:"compiler"`
	// TimeoutMS bounds the wall-clock budget of the run's 0-1 solves in
	// milliseconds; on expiry the tool degrades gracefully (see
	// Response.Degradations).  0 means no request-level budget (a
	// server may still apply its own default and cap).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Strict turns any graceful degradation into a hard failure.
	Strict bool `json:"strict,omitempty"`
	// Workers is accepted for compatibility; the pipeline runs on the
	// calling goroutine, so it changes neither the output nor the Key.
	Workers int `json:"workers,omitempty"`
	// NoCache disables every memoization layer for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Verify forces independent certification of every solver product
	// (false leaves the VerifyAuto default: on in test binaries only).
	Verify bool `json:"verify,omitempty"`
}

// DecodeRequest reads one JSON Request from r.  Unknown fields, a
// malformed body, trailing data and a version other than WireV1 all
// fail with a *WireError, so servers can map them to a typed 400
// without guessing.
func DecodeRequest(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req := &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, &WireError{Msg: err.Error()}
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return nil, &WireError{Msg: "trailing data after request body"}
	}
	if req.V != WireV1 {
		return nil, &WireError{Msg: fmt.Sprintf("unsupported wire version %d (want %d)", req.V, WireV1)}
	}
	return req, nil
}

// BuildOptions maps the request to validated core.Options — the single
// defaulting + validation path shared by the server and the CLI.  The
// machine model is resolved here (name or custom table), so callers on
// both sides reject unknown machines identically; everything else goes
// through Options.Validate.  Runtime resources (Cache, Store/StoreDir,
// Fault) are left zero for the caller to inject.  default_trip sets
// both trip defaults: the PCFG's loop frequencies and the dependence
// analysis's iteration counts.
func (r *Request) BuildOptions() (Options, error) {
	if r.V != WireV1 {
		return Options{}, &WireError{Msg: fmt.Sprintf("unsupported wire version %d (want %d)", r.V, WireV1)}
	}
	if strings.TrimSpace(r.Source) == "" {
		return Options{}, &WireError{Msg: "empty source"}
	}
	opt := Options{
		Procs:       r.Procs,
		Cyclic:      r.Cyclic,
		MultiDim:    r.MultiDim,
		UseDP:       r.UseDP,
		MergePhases: r.MergePhases,
		Compiler:    r.Compiler,
		DefaultTrip: r.DefaultTrip,
		Timeout:     time.Duration(r.TimeoutMS) * time.Millisecond,
		Strict:      r.Strict,
		Workers:     r.Workers,
		NoCache:     r.NoCache,
	}
	opt.Align.Greedy = r.GreedyAlign
	opt.Align.ImportScale = r.ImportScale
	opt.PCFG.DefaultTrip = r.DefaultTrip
	opt.PCFG.IgnoreProbHints = r.IgnoreProbHints
	opt.PCFG.DefaultProb = r.DefaultProb
	if r.Verify {
		opt.Verify = VerifyOn
	}
	if r.TimeoutMS < 0 {
		return Options{}, &WireError{Msg: fmt.Sprintf("timeout_ms = %d, need >= 0", r.TimeoutMS)}
	}
	switch {
	case r.MachineTable != "":
		m, err := machine.ReadTable(strings.NewReader(r.MachineTable))
		if err != nil {
			return Options{}, &WireError{Msg: fmt.Sprintf("machine_table: %v", err)}
		}
		opt.Machine = m
	case r.Machine == "" || r.Machine == "ipsc860":
		opt.Machine = machine.IPSC860()
	case r.Machine == "paragon":
		opt.Machine = machine.Paragon()
	case r.Machine == "cluster2020":
		opt.Machine = machine.Cluster2020()
	default:
		return Options{}, &WireError{Msg: fmt.Sprintf("unknown machine %q", r.Machine)}
	}
	if err := opt.Validate(); err != nil {
		return Options{}, err
	}
	return opt, nil
}

// Key is the request's content-hash identity: two requests with equal
// keys ask for the same analysis under the same options and are
// interchangeable — the server's in-flight deduplication coalesces
// them onto one analysis.  opt must be the result of BuildOptions, so
// the machine component is the same artifact.MachineKey that already
// keys the L2/L3 cache entries (a named model and its serialized table
// hash identically).
func (r *Request) Key(opt Options) artifact.Key {
	return artifact.NewHasher("request").
		Int(r.V).
		Str(r.Source).
		Str(string(artifact.MachineKey(opt.Machine))).
		Int(opt.Procs).
		Bool(opt.Cyclic).
		Bool(opt.MultiDim).
		Bool(opt.UseDP).
		Bool(opt.MergePhases).
		Bool(opt.Align.Greedy).
		Float(opt.Align.ImportScale).
		Bool(opt.PCFG.IgnoreProbHints).
		Float(opt.PCFG.DefaultProb).
		Int(opt.DefaultTrip).
		Bool(opt.Compiler.NoMessageVectorization).
		Bool(opt.Compiler.NoMessageCoalescing).
		Bool(opt.Compiler.LoopInterchange).
		Bool(opt.Compiler.CoarseGrainPipelining).
		Int(int(opt.Timeout)).
		Bool(opt.Strict).
		Bool(opt.NoCache).
		Int(int(opt.Verify)).
		Key()
}

// RemapWire is one dynamic remapping decision on the wire.
type RemapWire struct {
	FromPhase int      `json:"from_phase"`
	ToPhase   int      `json:"to_phase"`
	Arrays    []string `json:"arrays"`
	CostUS    float64  `json:"cost_us"`
}

// SelectionWire summarizes the final 0-1 selection solve on the wire.
type SelectionWire struct {
	Vars        int     `json:"vars"`
	Constraints int     `json:"constraints"`
	BBNodes     int     `json:"bb_nodes"`
	DurationUS  int64   `json:"duration_us"`
	Degraded    bool    `json:"degraded"`
	Gap         float64 `json:"gap"`
	// Route names the solver that answered the selection ("tree-dp",
	// "presolved", "dense", or "" for baseline fallbacks).
	// Additive v1 field: lenient clients skip it.
	Route string `json:"route"`
}

// Stats is the machine-readable counters struct of one run: per-stage
// wall clock, every cache layer's traffic and the 0-1 solver effort.
// It is served three ways from the same definition — inside every
// Response, as the CLI's -stats line, and (aggregated across requests)
// as the "totals" object of layoutd's /metrics — so the counter names
// cannot drift between surfaces.
type Stats struct {
	V         int              `json:"v"`
	ElapsedUS int64            `json:"elapsed_us"`
	StageUS   map[string]int64 `json:"stage_us"`
	Cache     CacheSummary     `json:"cache"`
	Solver    SolverSummary    `json:"solver"`
	// Incremental is the replay-vs-reuse account of a Session.Update
	// run (all zero for cold analyses).  Additive v1 field: clients
	// decode Responses leniently, so old clients skip it.
	Incremental IncrementalSummary `json:"incremental"`
}

// NewStats snapshots a Result's counters into the wire form.
func NewStats(res *Result) Stats {
	st := Stats{
		V:           WireV1,
		ElapsedUS:   res.Elapsed.Microseconds(),
		StageUS:     map[string]int64{},
		Cache:       res.Cache,
		Solver:      res.Solver,
		Incremental: res.Incremental,
	}
	for name, d := range res.StageTimes {
		st.StageUS[name] = d.Microseconds()
	}
	return st
}

// Response is the versioned wire form of one Result: the rendered HPF
// layout, the cost and remapping decisions, the degradations taken,
// the selection solve summary, the run's counters and the artifact
// keys the result was derived from.
type Response struct {
	V int `json:"v"`
	// HPF is the emitted program layout (Result.EmitHPF), byte-for-byte
	// what the CLI prints.
	HPF string `json:"hpf"`
	// TotalCostUS is the estimated whole-program execution time (µs).
	TotalCostUS float64 `json:"total_cost_us"`
	Dynamic     bool    `json:"dynamic"`
	Procs       int     `json:"procs"`
	Machine     string  `json:"machine"`
	// Remaps lists the dynamic remappings of the chosen layout.
	Remaps []RemapWire `json:"remaps,omitempty"`
	// Degradations lists every graceful fallback taken (empty for a
	// fully optimal run) — the same typed entries the CLI prints as
	// "! degraded:" lines.
	Degradations []Degradation `json:"degradations,omitempty"`
	Selection    SelectionWire `json:"selection"`
	Stats        Stats         `json:"stats"`
	// Artifacts maps pipeline stages to the content-hash keys of their
	// products (Result.Artifacts).
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

// NewResponse renders a Result into its wire form.
func NewResponse(res *Result) *Response {
	resp := &Response{
		V:           WireV1,
		HPF:         res.EmitHPF(),
		TotalCostUS: res.TotalCost,
		Dynamic:     res.Dynamic,
		Procs:       res.Phases[0].ChosenLayout().Procs(),
		Machine:     res.Machine.Name(),
		Stats:       NewStats(res),
	}
	for _, rd := range res.Remaps {
		resp.Remaps = append(resp.Remaps, RemapWire{
			FromPhase: rd.Edge.From,
			ToPhase:   rd.Edge.To,
			Arrays:    append([]string(nil), rd.Arrays...),
			CostUS:    rd.Cost,
		})
	}
	resp.Degradations = append(resp.Degradations, res.Degradations...)
	if sel := res.Selection; sel != nil {
		resp.Selection = SelectionWire{
			Vars:        sel.Vars,
			Constraints: sel.Constraints,
			BBNodes:     sel.BBNodes,
			DurationUS:  sel.Duration.Microseconds(),
			Degraded:    sel.Degraded,
			Gap:         sel.Gap,
			Route:       sel.Solver,
		}
	}
	if len(res.Artifacts) > 0 {
		resp.Artifacts = map[string]string{}
		for st, k := range res.Artifacts {
			resp.Artifacts[st] = string(k)
		}
	}
	return resp
}
