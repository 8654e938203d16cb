package service

// Poisoned-key quarantine: the crash table.
//
// An input whose analysis reliably panics the analyzer is poison — a
// well-meaning retrying client (or a fleet of them) will walk it into
// every replica, and each hit burns an admission slot on a guaranteed
// crash.  The crash table makes the service crash-only about it: a
// flight that ends in a recovered panic, an *core.InternalError, an
// injected fault or a watchdog abandonment marks its Request.Key; a
// key that reaches quarantineAfter crashes is quarantined for the
// policy's TTL and answered with an immediate typed 422 (core.KindQuarantined)
// instead of re-crashing the analyzer.  After the TTL the key gets a
// fresh start — a crash caused by since-fixed server state should not
// condemn an input forever.
//
// The table is bounded (oldest-crash eviction), metrics-visible
// (crashes, live quarantined keys, rejections), and exercised
// deterministically through the stage.ServiceFlight fault site.

import (
	"sync"
	"time"

	"repro/internal/artifact"
)

// crashEntry tracks one key's crash history.
type crashEntry struct {
	crashes int
	last    time.Time
	until   time.Time // non-zero once quarantined
}

// crashTable is the TTL'd poisoned-key quarantine.  Safe for
// concurrent use.
type crashTable struct {
	mu      sync.Mutex
	ttl     time.Duration // quarantine duration
	entries map[artifact.Key]*crashEntry
}

func newCrashTable(ttl time.Duration) *crashTable {
	return &crashTable{ttl: ttl, entries: map[artifact.Key]*crashEntry{}}
}

// record marks one crash of key, quarantining it once it reaches the
// crash count.
func (t *crashTable) record(key artifact.Key, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil {
		if len(t.entries) >= quarantineCap {
			t.evictOldestLocked()
		}
		e = &crashEntry{}
		t.entries[key] = e
	}
	e.crashes++
	e.last = now
	if e.crashes >= quarantineAfter {
		e.until = now.Add(t.ttl)
	}
}

// blocked reports whether key is currently quarantined; on true it
// returns the expiry and the crash count behind the decision.  An
// expired quarantine deletes the entry — the key earned a fresh start.
func (t *crashTable) blocked(key artifact.Key, now time.Time) (until time.Time, crashes int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[key]
	if e == nil || e.until.IsZero() {
		return time.Time{}, 0, false
	}
	if !now.Before(e.until) {
		delete(t.entries, key)
		return time.Time{}, 0, false
	}
	return e.until, e.crashes, true
}

// quarantined counts the keys currently under quarantine (expired
// entries are pruned as a side effect, keeping the gauge honest).
func (t *crashTable) quarantined(now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for key, e := range t.entries {
		if e.until.IsZero() {
			continue
		}
		if !now.Before(e.until) {
			delete(t.entries, key)
			continue
		}
		n++
	}
	return n
}

// evictOldestLocked drops the entry with the oldest last crash so the
// table stays within its bound.  Callers hold mu.
func (t *crashTable) evictOldestLocked() {
	var oldestKey artifact.Key
	var oldest time.Time
	first := true
	for key, e := range t.entries {
		if first || e.last.Before(oldest) {
			oldestKey, oldest, first = key, e.last, false
		}
	}
	if !first {
		delete(t.entries, oldestKey)
	}
}
