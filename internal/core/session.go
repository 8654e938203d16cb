package core

import (
	"context"
	"maps"
	"sync"

	"repro/internal/artifact"
	"repro/internal/cag"
	"repro/internal/stage"
)

// Session caches the machine-independent front half of the pipeline —
// the parsed unit, the dependence-annotated PCFG and the alignment
// search spaces — so the same program can be re-analyzed under
// different machine models, processor counts and compiler options
// without re-running parsing, dependence analysis or the alignment 0-1
// solves.  This is the assistant's interactive re-tuning loop (§1): the
// framework is explicitly parameterized by machine and processor count,
// and only the pricing and selection stages read those parameters.
//
// Since the incremental refactor a Session is also *edit-aware*:
// Update re-analyzes an edited version of the program, reusing every
// front-half artifact whose per-phase content key is unchanged (and,
// through the session-carried shared cache and alignment memo, the
// unchanged phases' pricings, remap costs and alignment solves), so a
// one-phase edit replays only the artifacts downstream of that phase.
//
// Concurrent Analyze calls on one Session are safe and produce
// byte-identical results to cold Analyze calls with the same options:
// the front-half artifacts live in an immutable snapshot that Update
// swaps atomically under the session mutex (Update calls themselves
// serialize).  The front-half options the session was built with
// (PCFG, DefaultTrip, Align) are pinned: Analyze and Update silently
// substitute the session's values, because the cached artifacts were
// derived from them.
type Session struct {
	opt Options // validated + defaulted front-half options

	mu sync.Mutex  // guards st swap and all edit-carry state below
	st *frontState // immutable snapshot of the front-half artifacts

	// Edit-carry state: the alignment-resolution memo (seeded by
	// NewSession, so the very first Update already reuses the unchanged
	// phases' resolutions), the session-owned shared cache injected when
	// the caller brings none, the Update counter, and the source the
	// last successful Update was given ("" before the first: a session's
	// first Update always parses, whatever NewSession was built from).
	memo    memo[string, *cag.Resolution]
	carried *SharedCache
	edits   int64
	posted  string
}

// snapshot returns the current immutable front-half state.
func (s *Session) snapshot() *frontState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// effective merges one call's options with the session's: zero Procs
// and Machine inherit the session's values, and the front-half options
// are pinned — the cached artifacts were derived from them, so honoring
// different values would silently produce a result no cold run could.
// The merged options are validated and defaulted.
func (s *Session) effective(opt Options) (Options, error) {
	if opt.Procs == 0 {
		opt.Procs = s.opt.Procs
	}
	if opt.Machine == nil {
		opt.Machine = s.opt.Machine
	}
	opt.PCFG = s.opt.PCFG
	opt.DefaultTrip = s.opt.DefaultTrip
	opt.Align = s.opt.Align
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	return opt.withDefaults(), nil
}

// frontRun is the session's context for one front-half run over prev
// (nil in NewSession); the caller holds s.mu.  The alignment memo
// requires a fully content-determined solve, the same precondition
// selection reuse applies: a wall-clock budget can change the outcome,
// and an armed fault plan must reach the solver's injection sites.  Memoization never changes a result: only
// proven-optimal resolutions are stored, keyed by the full graph
// content.
func (s *Session) frontRun(opt Options, prev *frontState) *incrementalRun {
	inc := &incrementalRun{prev: prev, posted: s.posted}
	if opt.Timeout == 0 && opt.Fault == nil {
		inc.memo = &s.memo
	}
	return inc
}

// NewSession runs the front half of the pipeline once — parse,
// dependence analysis, alignment search spaces — and returns a Session
// whose Analyze re-runs only the machine-dependent back half.  The
// options' machine-dependent fields (Machine, Procs, Compiler, ...) act
// as defaults for Analyze calls that pass zero Options fields; the
// front-half fields (PCFG, DefaultTrip, Align) are fixed for the
// session's lifetime.
func NewSession(ctx context.Context, in Input, opt Options) (s *Session, err error) {
	defer promoteCert(&err)
	defer guard(&err)
	ctx, start := begin(ctx)
	// A session's own options are the effective ones relative to
	// themselves: nothing to inherit, only validation and defaults.
	sess := &Session{opt: opt}
	if sess.opt, err = sess.effective(opt); err != nil {
		return nil, err
	}
	sess.st, err = front(ctx, start, in, sess.opt, sess.frontRun(sess.opt, nil), stage.Timings{})
	if err != nil {
		return nil, err
	}
	return sess, nil
}

// Analyze runs the machine-dependent back half — candidate search
// spaces, pricing, selection — over the session's cached front half.
// Zero-valued option fields inherit the session's values; the
// front-half fields (PCFG, DefaultTrip, Align) always do, since the
// cached artifacts embody them.  The returned Result is byte-identical
// to a cold core.Analyze with the effective options.
func (s *Session) Analyze(ctx context.Context, opt Options) (res *Result, err error) {
	defer promoteCert(&err)
	defer guard(&err)
	ctx, start := begin(ctx)
	if opt, err = s.effective(opt); err != nil {
		return nil, err
	}
	return backAnalyze(ctx, start, opt, s.snapshot(), stage.Timings{})
}

// Update re-analyzes an edited version of the session's program.  A
// re-post — src byte-identical to the source the last successful Update
// was given — is served the current snapshot without parsing.
// Otherwise Update parses src, diffs the resulting phase list against
// the previous run's per-phase artifact keys, and replays only the
// artifacts downstream of the changed phases: unchanged phases reuse
// their dependence info by key, their 0-1 alignment resolutions through
// the session memo, and their candidate pricings, remap costs and the
// selection solve through the session-carried shared cache (installed
// when the caller injects none).  The returned Result is byte-identical
// to a cold core.Analyze of src with the effective options, and its
// Incremental summary reports per-stage replayed-vs-reused counts.
//
// Reused artifacts are never trusted blindly: reuse requires the source
// bytes to match or the content key to re-derive identically from the
// new source, memo and cache hits re-certify when verification is on,
// and the final Certify pass re-derives every claimed cost from the
// models.  Option merging follows Analyze (front-half options pinned,
// Procs/Machine inherited).  Update calls serialize on the session;
// concurrent Analyze calls keep reading the previous snapshot until
// Update swaps in the new one.
func (s *Session) Update(ctx context.Context, src string, opt Options) (res *Result, err error) {
	defer promoteCert(&err)
	defer guard(&err)
	ctx, start := begin(ctx)
	if opt, err = s.effective(opt); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inc := s.frontRun(opt, s.st)
	tm := stage.Timings{}
	st, err := front(ctx, start, Input{Source: src}, opt, inc, tm)
	if err != nil {
		return nil, err
	}
	if st != s.st {
		// Snapshot the front timings before backAnalyze keeps adding
		// back-half stages to the same map.
		st.front = maps.Clone(tm)
	}
	// Carry the session's shared cache across edits when the caller
	// brings none, so unchanged phases' pricings, remap costs and the
	// selection hit L2 on the next edit.
	if opt.Cache == nil && !opt.NoCache {
		if s.carried == nil {
			s.carried = NewSharedCache(0)
		}
		opt.Cache = s.carried
	}
	res, err = backAnalyze(ctx, start, opt, st, tm)
	if err != nil {
		return nil, err
	}
	s.st, s.posted = st, src
	s.edits++
	inc.finish(res, s.edits)
	return res, nil
}

// Key is the content-hash key of the session's most derived cached
// artifact (the alignment search spaces), which transitively covers the
// program and every front-half option: two sessions with equal keys are
// interchangeable.
func (s *Session) Key() artifact.Key {
	return s.snapshot().align.key
}

// Artifacts returns the content-hash keys of the cached front-half
// stage products, keyed by the package stage vocabulary (the same map
// every derived Result carries).
func (s *Session) Artifacts() map[string]artifact.Key {
	st := s.snapshot()
	return map[string]artifact.Key{
		stage.Parse:      st.unit.key,
		stage.Dep:        st.dep.key,
		stage.AlignSolve: st.align.key,
	}
}

// FrontTimes reports the wall-clock time the front-half stages took
// when the current snapshot was built — by NewSession, or by the last
// Update (replayed stages only; Result.StageTimes on a Session re-run
// covers only the back half).
func (s *Session) FrontTimes() stage.Timings {
	return s.snapshot().front
}
