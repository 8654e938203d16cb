package core

// storeLayer is one run's view of the on-disk artifact store (L3): the
// lookup tier below the per-run caches (L1) and the SharedCache (L2).
// It holds only what costs more to compute than to read back — the
// layout-selection 0-1 solve, one record per (program, options); a
// pricing or a transition cost is microseconds of arithmetic, cheaper
// than the checksummed read that would replace it, and stays in L1/L2.
// The layer's governing rule is degradation over failure — no store
// problem may fail an analysis:
//
//   - An unopenable store directory yields a layer that is born broken
//     (memory-only) with a Degradation naming store-open.
//   - Read/write errors that survive the store's bounded retry are
//     counted; each failing site contributes one Degradation, and after
//     storeFailureLimit failures the layer goes memory-only for the
//     rest of the run.
//   - A record that passes the store checksum but fails the value codec
//     is semantically corrupt: it is quarantined and treated as a miss.
//
// Disk hits are never trusted blindly: the values they produce flow
// through the same certificate checkers as freshly computed ones, so a
// tampered-but-checksum-valid record is caught by verification, not
// served (see TestStorePoisonedSelection).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stage"
	"repro/internal/store"
)

// storeFailureLimit is the number of post-retry IO failures after which
// the layer stops touching the disk for the rest of the run.
const storeFailureLimit = 3

type storeLayer struct {
	st *store.Store

	traffic             hitMiss
	writes, decodeFails atomic.Int64

	mu       sync.Mutex
	broken   bool
	failures int
	degSites map[string]bool
	degs     []Degradation
}

// newStoreLayer opens (or adopts) the run's store.  It never returns an
// error: an unusable store degrades to a memory-only layer carrying the
// degradation entry.
func newStoreLayer(opt Options) *storeLayer {
	sl := &storeLayer{degSites: map[string]bool{}}
	if opt.Store != nil {
		sl.st = opt.Store
		return sl
	}
	st, err := store.Open(store.Options{Dir: opt.StoreDir, Fault: opt.Fault})
	if err != nil {
		sl.broken = true
		sl.degSites[stage.StoreOpen] = true
		sl.degs = append(sl.degs, Degradation{
			Subsystem: stage.StoreOpen,
			Detail:    fmt.Sprintf("artifact store unavailable, caching memory-only: %v", err),
		})
		return sl
	}
	sl.st = st
	return sl
}

// usable reports whether the layer should touch the disk.
func (sl *storeLayer) usable() bool {
	if sl == nil || sl.st == nil {
		return false
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return !sl.broken
}

// recordFailure counts one post-retry IO failure, records at most one
// Degradation per site, and trips the memory-only breaker at the limit.
func (sl *storeLayer) recordFailure(site string, err error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.failures++
	if !sl.degSites[site] {
		sl.degSites[site] = true
		sl.degs = append(sl.degs, Degradation{
			Subsystem: site,
			Detail:    fmt.Sprintf("artifact store error, result computed without it: %v", err),
		})
	}
	if sl.failures >= storeFailureLimit && !sl.broken {
		sl.broken = true
		sl.degs = append(sl.degs, Degradation{
			Subsystem: site,
			Detail:    fmt.Sprintf("artifact store disabled for the rest of the run after %d IO failures", sl.failures),
		})
	}
}

// get reads one payload.  Every failure mode is a miss: IO errors count
// toward the breaker, corrupt records were already quarantined by the
// store itself.
func (sl *storeLayer) get(key string) ([]byte, bool) {
	if !sl.usable() {
		return nil, false
	}
	payload, ok, err := sl.st.Get(key)
	if err != nil {
		var ce *store.CorruptError
		if !errors.As(err, &ce) {
			sl.recordFailure(stage.StoreRead, err)
		}
		ok = false
	}
	sl.traffic.count(ok)
	return payload, ok
}

// put writes one payload through, counting it only when a record was
// actually written (a key another run made resident meanwhile is left
// alone); a post-retry failure degrades.
func (sl *storeLayer) put(key string, payload []byte) {
	if !sl.usable() {
		return
	}
	written, err := sl.st.Add(key, payload)
	if err != nil {
		sl.recordFailure(stage.StoreWrite, err)
		return
	}
	if written {
		sl.writes.Add(1)
	}
}

// badDecode quarantines a record whose store checksum passed but whose
// value codec did not — semantic corruption (e.g. a foreign or
// version-skewed writer).  Counted, and treated by the caller as a miss.
func (sl *storeLayer) badDecode(key string) {
	sl.decodeFails.Add(1)
	if sl.st != nil {
		sl.st.Quarantine(key)
	}
}

// degradations snapshots the layer's degradation entries.
func (sl *storeLayer) degradations() []Degradation {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]Degradation(nil), sl.degs...)
}

// summary snapshots the layer for Result.Cache.
func (sl *storeLayer) summary() StoreSummary {
	if sl == nil {
		return StoreSummary{}
	}
	t := sl.traffic.stats()
	s := StoreSummary{
		Hits:           t.Hits,
		Misses:         t.Misses,
		Writes:         sl.writes.Load(),
		DecodeFailures: sl.decodeFails.Load(),
	}
	sl.mu.Lock()
	s.MemoryOnly = sl.broken
	sl.mu.Unlock()
	if sl.st != nil {
		st := sl.st.Stats()
		s.Entries = st.Entries
		s.Bytes = st.Bytes
		s.Quarantined = st.Quarantined
		s.Evictions = st.Evictions
	}
	return s
}
