// Package stage is the shared vocabulary of pipeline stage names.
//
// One constant set names every stage of the analysis pipeline, so the
// labels in cancellation errors (core's per-item stage loops), the
// subsystems named by core.Degradation, the sites of the fault-injection
// registry (package fault), the stages carried by certification failures
// (package verify) and the per-stage wall-clock timings (Timings) all
// correlate: a chaos report, a degradation log line, a timing line and
// a certificate error about the same stage use the same word.
//
// The package is a leaf: it imports only the standard library, and
// everything that names a pipeline stage imports it.
package stage

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// The pipeline stages, in execution order.
const (
	// Parse covers parsing and semantic analysis of the input program.
	Parse = "parse"
	// Dep is the per-phase dependence analysis.
	Dep = "dep"
	// AlignSolve covers the alignment search-space construction,
	// including every 0-1 conflict resolution (package align / cag).
	AlignSolve = "align-solve"
	// SpaceBuild is the per-phase distribution search-space
	// construction (cross product, user-constraint filtering).
	SpaceBuild = "space-build"
	// Pricing is the per-candidate performance estimation
	// (compiler model + execution model).
	Pricing = "pricing"
	// ILPRoot is the root of one branch-and-bound solve: the root LP
	// relaxation that yields the global bound.
	ILPRoot = "ilp-root"
	// BBNode is one interior branch-and-bound node.
	BBNode = "bb-node"
	// Selection is the final layout selection over the data layout
	// graph, including the transition-cost matrices.
	Selection = "selection"
	// Cache is the per-run pricing/remapping memoization layer.
	Cache = "cache"
	// CacheShared is the process-wide shared cache (core.SharedCache):
	// the site fires on every cross-run lookup, and its Corrupt action
	// poisons the value a shared hit serves.
	CacheShared = "cache-shared"
	// StoreOpen is the on-disk artifact store's open path
	// (internal/store): directory creation, the listing that builds the
	// index, and the quarantine of temp-file debris, foreign-named files
	// and files too short to be a record.  No record is read here.
	StoreOpen = "store-open"
	// StoreRead is one disk lookup of the artifact store: the selection
	// record, looked up after the shared cache missed.  Checksum and key
	// are validated on every read, and a failing record is quarantined
	// and served as a miss.  The site fires once per read attempt, so
	// After-targeted rules can fail the first attempt and let the bounded
	// retry recover; its Corrupt action poisons the cost of the selection
	// a disk hit serves, for the selection certificate to reject.
	StoreRead = "store-read"
	// StoreWrite is one write-through put of the artifact store.  The
	// site fires mid-record — after part of the payload reached the
	// temp file but before the atomic rename — so a Fail or Panic rule
	// simulates a crash that leaves a torn temp file behind, and a
	// Corrupt rule flips payload bytes under an already-computed
	// checksum (a checksum-failing record on disk).
	StoreWrite = "store-write"
)

// ServiceFlight is the service layer's per-flight injection site
// (internal/service): it fires on the flight leader's analysis
// goroutine right before core.Analyze launches, inside the service's
// own panic-recovery boundary, so chaos tests can crash (Panic), fail
// (Fail) or wedge (Delay) a whole flight and assert the server's
// crash-only behaviour — slot recovery by the watchdog, poisoned-key
// quarantine, typed error envelopes.  It is deliberately NOT part of
// All: All enumerates the core analysis pipeline swept by core's chaos
// matrix, and this site only exists under a running server (the
// service and client chaos suites sweep it instead).
const ServiceFlight = "service-flight"

// IncrementalInvalidate is Session.Update's reuse-admission injection
// site (core's incremental path): it fires once per reuse decision —
// each previous-run phase artifact or memoized alignment resolution
// about to be served instead of recomputed.  A Fail rule drops the
// candidate (simulating a lost artifact), a Corrupt rule makes the
// re-verification of the stored artifact fail (simulating a corrupted
// one); both force a replay of that artifact, so the poison-proof rule
// — reused artifacts are re-verified, never silently trusted — is
// directly exercisable.  A Panic rule unwinds through core's usual
// guard into a typed InternalError.  Like ServiceFlight it is
// deliberately NOT part of All: the site only exists on the Update
// path, which the dedicated incremental chaos tests sweep.
const IncrementalInvalidate = "incremental-invalidate"

// All lists every stage in execution order; chaos sweeps iterate it so
// a newly added stage is exercised automatically.
var All = []string{Parse, Dep, AlignSolve, SpaceBuild, Pricing, ILPRoot, BBNode, Selection, Cache, CacheShared, StoreOpen, StoreRead, StoreWrite}

// order maps each stage to its position in All, for sorted rendering.
var order = func() map[string]int {
	m := make(map[string]int, len(All))
	for i, s := range All {
		m[s] = i
	}
	return m
}()

// Timings records per-stage wall-clock durations keyed by the stage
// names above — the timing hooks piggyback the same site vocabulary the
// fault registry and the certificates use.  A nil Timings ignores Add,
// so instrumentation call sites stay unconditional.
type Timings map[string]time.Duration

// Add accumulates d into the stage's bucket (stages that run more than
// once per operation, like selection after a Reselect, sum up).
func (t Timings) Add(stage string, d time.Duration) {
	if t == nil {
		return
	}
	t[stage] += d
}

// String renders the non-zero buckets in pipeline execution order,
// unknown stages last in lexical order.
func (t Timings) String() string {
	names := make([]string, 0, len(t))
	for s, d := range t {
		if d > 0 {
			names = append(names, s)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iOK := order[names[i]]
		oj, jOK := order[names[j]]
		switch {
		case iOK && jOK:
			return oi < oj
		case iOK:
			return true
		case jOK:
			return false
		}
		return names[i] < names[j]
	})
	parts := make([]string, len(names))
	for i, s := range names {
		parts[i] = fmt.Sprintf("%s %s", s, t[s].Round(time.Microsecond))
	}
	return strings.Join(parts, ", ")
}
