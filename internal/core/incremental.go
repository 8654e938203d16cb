package core

// Incremental re-analysis (Session.Update): per-phase artifact keys
// let an edit to one phase replay only the artifacts downstream of
// that phase.  This file holds the pieces the Update path threads
// through the stage functions — the replay/reuse accounting and the
// alignment-resolution memo.  (The invalidation DAG over artifact keys
// that specifies exactly which artifacts an edit may replay is a test
// oracle; it lives in incremental_test.go.)
//
// Reuse is never trust: a previous-run artifact is served only when
// its content key re-derives identically from the *new* source (or the
// new source is byte-identical to the last one it was served for), memo
// hits re-certify like fresh solves when verification is on, and the
// final Certify pass re-derives every cost from the models.  The
// stage.IncrementalInvalidate fault site sits on every reuse-admission
// decision so chaos tests can drop or corrupt a reused artifact and
// assert the run replays instead of serving poison.

import (
	"sync"

	"repro/internal/artifact"
	"repro/internal/cag"
	"repro/internal/fault"
	"repro/internal/stage"
)

// StageReuse counts, for one pipeline stage of one Update, the
// artifacts that were recomputed versus served from a previous run.
type StageReuse struct {
	Replayed int64 `json:"replayed"`
	Reused   int64 `json:"reused"`
}

// IncrementalSummary is the replay-vs-reuse account of a
// Session.Update run, keyed by the package stage vocabulary.  The
// granularity is per-artifact, per stage: dep counts phase dependence
// infos, align-solve counts 0-1 resolutions, pricing counts shared
// (L2) candidate lookups, selection the one shared selection lookup.
// Parse replays unless the source is byte-identical to the one the
// session's last Update was given (parsing is otherwise how an edit is
// detected); space-build always replays (spaces are cheap cross
// products rebuilt per run).
type IncrementalSummary struct {
	// Edits is the number of Update calls this session has served
	// (1 on the first Update's Result, and so on).
	Edits int64 `json:"edits"`
	// Stages maps stage name to its replay/reuse counts.
	Stages map[string]StageReuse `json:"stages,omitempty"`
	// ReuseRatio is reused / (reused + replayed) across all stages
	// (0 when nothing was reusable).
	ReuseRatio float64 `json:"reuse_ratio"`
}

// Add folds one summary into an accumulator (used by the service
// metrics and by multi-edit reporting) and recomputes the ratio.
func (s *IncrementalSummary) Add(o IncrementalSummary) {
	s.Edits += o.Edits
	if len(o.Stages) > 0 && s.Stages == nil {
		s.Stages = map[string]StageReuse{}
	}
	for name, sr := range o.Stages {
		cur := s.Stages[name]
		cur.Replayed += sr.Replayed
		cur.Reused += sr.Reused
		s.Stages[name] = cur
	}
	var replayed, reused int64
	for _, sr := range s.Stages {
		replayed += sr.Replayed
		reused += sr.Reused
	}
	s.ReuseRatio = 0
	if reused+replayed > 0 {
		s.ReuseRatio = float64(reused) / float64(reused+replayed)
	}
}

// frontState is one immutable snapshot of a session's front-half
// artifacts.  Session swaps whole snapshots under its mutex, so
// concurrent Analyze calls always see a consistent triple.
type frontState struct {
	unit  *unitArtifact
	dep   *depArtifact
	align *alignArtifact
	front stage.Timings
}

// incrementalRun is the session's context for one front-half run,
// passed to front and the stage functions: the previous snapshot to
// reuse from (nil in NewSession), the source the session's last Update
// was given ("" before the first), the alignment memo (nil when the run
// is not memo-eligible) and the replay/reuse counters.  A nil receiver
// is valid everywhere (the cold path) and disables all incremental
// behaviour.
type incrementalRun struct {
	prev   *frontState
	posted string
	memo   *memo[string, *cag.Resolution]

	mu     sync.Mutex
	stages map[string]StageReuse
}

// prevDep returns the previous run's dep artifact when its per-phase
// keys are comparable to the current run's (same declaration context);
// nil disables dep-level reuse.
func (inc *incrementalRun) prevDep(decls artifact.Key) *depArtifact {
	if inc == nil || inc.prev == nil || inc.prev.dep.declsKey != decls {
		return nil
	}
	return inc.prev.dep
}

// reposted reports whether src is byte-identical to the source the
// session's last Update was given, so the previous snapshot answers it
// as is.
func (inc *incrementalRun) reposted(src string) bool {
	return inc != nil && inc.posted != "" && inc.posted == src
}

// admitReuse is the reuse-admission gate: every previous-run artifact
// about to be served instead of recomputed passes through here, which
// is where the stage.IncrementalInvalidate chaos site fires.  A Fail
// rule drops the candidate (lost artifact), a Corrupt rule counts as a
// failed re-verification of the stored artifact; both return false so
// the caller replays.  A Panic rule unwinds into core's usual guard.
func (inc *incrementalRun) admitReuse(plan *fault.Plan) bool {
	if inc == nil {
		return false
	}
	if err := plan.Err(stage.IncrementalInvalidate); err != nil {
		return false
	}
	return !plan.ShouldCorrupt(stage.IncrementalInvalidate)
}

// count adds replayed/reused artifacts to a stage's bucket.
func (inc *incrementalRun) count(st string, replayed, reused int64) {
	if inc == nil || (replayed == 0 && reused == 0) {
		return
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.stages == nil {
		inc.stages = map[string]StageReuse{}
	}
	cur := inc.stages[st]
	cur.Replayed += replayed
	cur.Reused += reused
	inc.stages[st] = cur
}

// alignMemo adapts the session's resolution memo to align.Memo for one
// run, booking every lookup as an align-solve reuse (hit) or replay
// (miss).  Stored resolutions are proven optimal and immutable by
// contract (align treats them as read-only).
type alignMemo struct{ inc *incrementalRun }

func (m alignMemo) GetResolution(key string) (*cag.Resolution, bool) {
	res, ok := m.inc.memo.get(key)
	if ok {
		m.inc.count(stage.AlignSolve, 0, 1)
	} else {
		m.inc.count(stage.AlignSolve, 1, 0)
	}
	return res, ok
}

func (m alignMemo) PutResolution(key string, res *cag.Resolution) { m.inc.memo.put(key, res) }

// finish derives the back-half counters from the run's cache traffic
// and stamps the summary onto the Result.  Pricing and selection reuse
// ride the shared (L2) layer the session carries across edits: an
// unchanged phase's candidate pricings hit, the edited phase's miss.
func (inc *incrementalRun) finish(res *Result, edits int64) {
	if inc == nil {
		return
	}
	inc.count(stage.SpaceBuild, int64(len(res.Phases)), 0)
	cs := res.Cache
	inc.count(stage.Pricing, cs.SharedPricing.Misses, cs.SharedPricing.Hits)
	inc.count(stage.Selection, cs.SharedSelection.Misses, cs.SharedSelection.Hits)
	inc.mu.Lock()
	var sum IncrementalSummary
	sum.Add(IncrementalSummary{Edits: edits, Stages: inc.stages})
	inc.mu.Unlock()
	res.Incremental = sum
}
