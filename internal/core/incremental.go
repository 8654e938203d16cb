package core

// Incremental re-analysis (Session.Update): per-phase artifact keys
// let an edit to one phase replay only the artifacts downstream of
// that phase.  This file holds the pieces the Update path threads
// through the stage functions — the replay/reuse accounting, the
// alignment-resolution memo, and the invalidation DAG over artifact
// keys that specifies (and lets tests verify) exactly which artifacts
// an edit may replay.
//
// Reuse is never trust: a previous-run artifact is served only when
// its content key re-derives identically from the *new* source, memo
// hits re-certify like fresh solves when verification is on, and the
// final Certify pass re-derives every cost from the models.  The
// stage.IncrementalInvalidate fault site sits on every reuse-admission
// decision so chaos tests can drop or corrupt a reused artifact and
// assert the run replays instead of serving poison.

import (
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/align"
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
// Parse and space-build always replay (parsing is how an edit is
// detected; spaces are cheap cross products rebuilt per run).
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
	if reused+replayed > 0 {
		s.ReuseRatio = float64(reused) / float64(reused+replayed)
	} else {
		s.ReuseRatio = 0
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

// incrementalRun is the per-Update context threaded through the stage
// functions via Options.inc.  A nil receiver is valid everywhere (the
// cold path) and disables all incremental behaviour.
type incrementalRun struct {
	prev  *frontState
	fault *fault.Plan
	memo  *sessionMemo

	mu     sync.Mutex
	stages map[string]StageReuse
}

// prevDep returns the previous run's dep artifact when its per-phase
// keys are comparable to the current run's (same declaration context);
// nil disables dep-level reuse.
func (inc *incrementalRun) prevDep(decls artifact.Key) *depArtifact {
	if inc == nil || inc.prev == nil {
		return nil
	}
	if inc.prev.dep == nil || inc.prev.dep.declsKey != decls {
		return nil
	}
	return inc.prev.dep
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

// alignMemo exposes the session's alignment-resolution memo to
// stageAlignSpaces (nil when the update is not memo-eligible).
func (inc *incrementalRun) alignMemo() align.Memo {
	if inc == nil || inc.memo == nil {
		return nil
	}
	return inc.memo
}

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
	stages := make(map[string]StageReuse, len(inc.stages))
	for k, v := range inc.stages {
		stages[k] = v
	}
	inc.mu.Unlock()
	sum := IncrementalSummary{Stages: stages}
	var replayed, reused int64
	for _, sr := range stages {
		replayed += sr.Replayed
		reused += sr.Reused
	}
	if reused+replayed > 0 {
		sum.ReuseRatio = float64(reused) / float64(reused+replayed)
	}
	sum.Edits = edits
	res.Incremental = sum
}

// sessionMemo is the session-owned align.Memo: a content-keyed map of
// proven-optimal 0-1 alignment resolutions surviving across edits.
// Stored resolutions are immutable by contract (align treats them as
// read-only); hit/miss counters feed the AlignSolve replay/reuse
// accounting.
type sessionMemo struct {
	mu  sync.Mutex
	res map[string]*cag.Resolution

	hits   atomic.Int64
	misses atomic.Int64
	// last taken snapshot, so each Update reports its own delta.
	lastHits, lastMisses int64
}

func newSessionMemo() *sessionMemo {
	return &sessionMemo{res: map[string]*cag.Resolution{}}
}

func (m *sessionMemo) GetResolution(key string) (*cag.Resolution, bool) {
	m.mu.Lock()
	r, ok := m.res[key]
	m.mu.Unlock()
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return r, true
}

func (m *sessionMemo) PutResolution(key string, res *cag.Resolution) {
	m.mu.Lock()
	m.res[key] = res
	m.mu.Unlock()
}

// takeDelta reports the hits/misses since the previous call (Update
// holds the session lock, so deltas attribute to exactly one edit).
func (m *sessionMemo) takeDelta() (hits, misses int64) {
	h, ms := m.hits.Load(), m.misses.Load()
	hits, misses = h-m.lastHits, ms-m.lastMisses
	m.lastHits, m.lastMisses = h, ms
	return hits, misses
}

// invalidationDAG is the dependency DAG over artifact keys that
// specifies which artifacts an edit may replay.  Nodes are named
//
//	decls, phase/i, dep/i, dep, align, space/i, pricing/i, selection
//
// with edges decls→phase/i, phase/i→dep/i, dep/i→{dep, pricing/i},
// dep→align, align→space/i, space/i→pricing/i, pricing/i→selection.
// Everything reachable from a changed node is invalid and must replay;
// everything else may be reused.  Update builds it from the previous
// and current dep artifacts; the property tests assert the replay
// counters match the DAG's reach set exactly.
type invalidationDAG struct {
	keys    map[string]artifact.Key // node → content key (current run)
	down    map[string][]string     // node → downstream dependents
	changed []string                // nodes whose key differs from the previous run
}

// buildInvalidationDAG constructs the DAG for the current dep artifact
// and marks changed every node whose key is absent from (or differs in)
// the previous one.
func buildInvalidationDAG(prev, cur *depArtifact) *invalidationDAG {
	d := &invalidationDAG{keys: map[string]artifact.Key{}, down: map[string][]string{}}
	edge := func(from, to string) { d.down[from] = append(d.down[from], to) }
	node := func(name string, k artifact.Key) { d.keys[name] = k }

	node("decls", cur.declsKey)
	node("dep", cur.key)
	edge("dep", "align")
	for i := range cur.phaseKeys {
		ph, dp := phaseNode(i), depNode(i)
		node(ph, cur.phaseKeys[i])
		node(dp, cur.depKeys[i])
		edge("decls", ph)
		edge(ph, dp)
		edge(dp, "dep")
		edge(dp, pricingNode(i))
		edge("align", spaceNode(i))
		edge(spaceNode(i), pricingNode(i))
		edge(pricingNode(i), "selection")
	}

	prevKeys := map[artifact.Key]bool{}
	if prev != nil {
		prevKeys[prev.declsKey] = true
		prevKeys[prev.key] = true
		for i := range prev.phaseKeys {
			prevKeys[prev.phaseKeys[i]] = true
			prevKeys[prev.depKeys[i]] = true
		}
	}
	for name, k := range d.keys {
		if !prevKeys[k] {
			d.changed = append(d.changed, name)
		}
	}
	return d
}

func phaseNode(i int) string   { return "phase/" + strconv.Itoa(i) }
func depNode(i int) string     { return "dep-info/" + strconv.Itoa(i) }
func spaceNode(i int) string   { return "space/" + strconv.Itoa(i) }
func pricingNode(i int) string { return "pricing/" + strconv.Itoa(i) }

// reach returns every node reachable from the given starts (inclusive).
func (d *invalidationDAG) reach(starts []string) map[string]bool {
	out := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		if out[n] {
			return
		}
		out[n] = true
		for _, m := range d.down[n] {
			walk(m)
		}
	}
	for _, s := range starts {
		walk(s)
	}
	return out
}

// invalid is the replay specification: everything reachable from a
// changed node.
func (d *invalidationDAG) invalid() map[string]bool {
	return d.reach(d.changed)
}
