package service

// The incremental service path: the daemon-side of the assistant's
// edit loop.  A developer iterating on one program posts a stream of
// slightly-edited sources; routing those flights through an edit-aware
// core.Session (Update) instead of a cold core.Analyze lets the server
// reuse every front-half artifact whose per-phase content key is
// unchanged — the same one-phase blast radius the CLI's -watch mode
// gets, multiplexed across clients.
//
// Sessions live in a small LRU table keyed by *family*: the program's
// name (a cheap textual scan, not a parse — a misread name only costs
// reuse, never correctness, because Session.Update re-derives every
// content key from the posted source) plus the front-half options the
// session pins (PCFG, DefaultTrip, Align).  Machine, processor count
// and compiler options are deliberately NOT part of the family: the
// front half is machine-independent, so re-pricing the same program
// for a new machine reuses the session too.
//
// Eligibility mirrors the session memo's own gate: only unbudgeted
// flights on a fault-free server take the incremental path (a
// wall-clock budget makes solve outcomes time-dependent, and an armed
// chaos plan must reach the cold pipeline's injection sites).
// Everything else falls back to core.Analyze unchanged.

import (
	"context"
	"strings"
	"sync"
	"unicode"

	"repro/internal/artifact"
	"repro/internal/core"
)

// incrementalEligible reports whether a flight may be served through a
// session.  The singleflight layer has already deduplicated identical
// requests, so everything reaching here is a distinct (source, options)
// pair.
func (s *Server) incrementalEligible(opt core.Options) bool {
	return s.sessions != nil && opt.Timeout == 0 && s.cfg.Fault == nil
}

// analyzeFlight runs one admitted flight's analysis: eligible flights
// go through the session table's Session.Update, the rest through a
// cold core.Analyze.  Both paths produce byte-identical results for
// the same effective options — incremental reuse is a latency
// optimization, never a behavior change.
func (s *Server) analyzeFlight(ctx context.Context, req *core.Request, opt core.Options) (*core.Result, error) {
	if s.incrementalEligible(opt) {
		return s.runIncremental(ctx, req.Source, opt)
	}
	return core.Analyze(ctx, core.Input{Source: req.Source}, opt)
}

// runIncremental serves one flight from the family's session, creating
// the session on first contact.  Per-family flights serialize on the
// entry (Session.Update serializes internally anyway); distinct
// families run concurrently.
func (s *Server) runIncremental(ctx context.Context, src string, opt core.Options) (*core.Result, error) {
	e := s.sessions.entry(familyKey(src, opt))
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sess == nil {
		sess, err := core.NewSession(ctx, core.Input{Source: src}, opt)
		if err != nil {
			// A source that cannot even build a session fails exactly like
			// a cold run; the empty entry stays and retries on next post.
			return nil, err
		}
		e.sess = sess
	}
	s.m.incrementalFlights.Add(1)
	return e.sess.Update(ctx, src, opt)
}

// familyKey is the session-table identity: program name plus the
// front-half options Session.Update pins.  Two requests with equal
// family keys may share a session; everything request-specific
// (machine, procs, compiler, verify) varies per Update call.
func familyKey(src string, opt core.Options) artifact.Key {
	return artifact.NewHasher("session-family").
		Str(programName(src)).
		Int(opt.DefaultTrip).
		Int(opt.PCFG.DefaultTrip).
		Float(opt.PCFG.DefaultProb).
		Bool(opt.PCFG.IgnoreProbHints).
		Bool(opt.Align.Greedy).
		Float(opt.Align.ImportScale).
		Key()
}

// programName extracts the name from the head `program <name>` line
// with a plain text scan, line by line — no parse, no line or field
// slices; only the lower-cased name may allocate.  A source without
// one (or with a name this scan misses) lands in the anonymous family
// "": still correct, just less reuse locality.
func programName(src string) string {
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		word, tail := firstField(line)
		if !strings.EqualFold(word, "program") {
			continue
		}
		if name, _ := firstField(tail); name != "" {
			return strings.ToLower(name)
		}
	}
	return ""
}

// firstField returns s's first whitespace-separated field (as
// strings.Fields splits) and the text after it.
func firstField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// sessionTable is the bounded LRU of live sessions.
type sessionTable struct {
	cap   int
	mu    sync.Mutex
	m     map[artifact.Key]*sessionEntry
	order []artifact.Key // LRU order, oldest first
}

// sessionEntry holds one family's session; its mutex covers lazy
// construction and serializes the family's updates.
type sessionEntry struct {
	mu   sync.Mutex
	sess *core.Session
}

func newSessionTable(capacity int) *sessionTable {
	return &sessionTable{cap: capacity, m: map[artifact.Key]*sessionEntry{}}
}

// entry returns the family's entry, creating it (and evicting the
// least-recently-used family beyond the cap) as needed.
func (t *sessionTable) entry(key artifact.Key) *sessionEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[key]; ok {
		t.touch(key)
		return e
	}
	if len(t.m) >= t.cap && len(t.order) > 0 {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.m, oldest)
	}
	e := &sessionEntry{}
	t.m[key] = e
	t.order = append(t.order, key)
	return e
}

// touch moves key to the most-recently-used end.
func (t *sessionTable) touch(key artifact.Key) {
	for i, k := range t.order {
		if k == key {
			t.order = append(append(t.order[:i:i], t.order[i+1:]...), key)
			return
		}
	}
}

// size reports the live session population (nil-safe, for metrics).
func (t *sessionTable) size() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
