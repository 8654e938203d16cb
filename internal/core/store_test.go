package core

// Integration tests for the on-disk artifact store (L3) under core:
// warm restarts reproduce cold runs, crash debris and corruption are
// quarantined (never served), poisoned records are caught by the
// certificates, and store trouble degrades the run instead of failing
// it.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/stage"
	"repro/internal/store"
)

// storeOptions is the baseline store-backed configuration: verification
// on, no timeout/solver/fault so selection reuse (selCtx) is eligible.
func storeOptions(dir string) Options {
	return Options{Procs: 8, Workers: 4, Verify: VerifyOn, StoreDir: dir}
}

func renderKey(res *Result) string {
	var b strings.Builder
	b.WriteString(res.EmitHPF())
	for p, pr := range res.Phases {
		b.WriteString(pr.ChosenLayout().FullKey())
		_ = p
	}
	return b.String()
}

// TestStoreWarmRestart: a second Analyze over the same store directory
// — a fresh process in miniature (new per-run caches, no shared cache)
// — reproduces the cold run exactly from the one record the cold run
// wrote: the selection.  Pricings and transition costs never travel
// through the store.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cold, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Cache.Store; s.Hits != 0 || s.Misses != 1 || s.Writes != 1 || s.Entries != 1 {
		t.Fatalf("cold run store traffic = %+v, want one miss and one write (the selection)", s)
	}
	warm, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Cache.Store; s.Hits != 1 || s.Misses != 0 || s.Writes != 0 || s.Entries != 1 {
		t.Fatalf("warm run store traffic = %+v, want exactly one hit", s)
	}
	if renderKey(cold) != renderKey(warm) {
		t.Fatal("store-warmed run differs from the cold run")
	}
	if cold.TotalCost != warm.TotalCost {
		t.Fatalf("costs differ: cold %v, warm %v", cold.TotalCost, warm.TotalCost)
	}
	if len(warm.Degradations) != 0 {
		t.Fatalf("warm run degraded: %+v", warm.Degradations)
	}
}

// TestStoreCrashConsistency: injected mid-write crashes during a run
// leave torn temp files and a degraded but correct result, and repeated
// failures trip the memory-only breaker; the next open quarantines every
// piece of debris and a clean re-run over the same directory fully
// recovers, matching a run that never had a store.
func TestStoreCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(11).Arm(stage.StoreWrite, fault.Rule{Action: fault.Fail})
	opt := storeOptions(dir)
	opt.Fault = plan
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatalf("store crashes failed the analysis: %v", err)
	}
	if plan.Fired(stage.StoreWrite) == 0 {
		t.Fatal("no write fault fired")
	}
	degraded := false
	for _, d := range res.Degradations {
		if d.Subsystem == stage.StoreWrite {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("no store-write degradation recorded: %+v", res.Degradations)
	}
	if s := res.Cache.Store; s.Writes != 0 || s.MemoryOnly {
		t.Fatalf("after one failed write: %+v, want no write counted and the breaker untripped", s)
	}
	// A run writes one record, so one run is one failure; each Reselect
	// re-solves and re-attempts the write until the breaker trips.
	for i := 1; i < storeFailureLimit; i++ {
		if err := res.Reselect(); err != nil {
			t.Fatalf("reselect %d over a crashing store: %v", i, err)
		}
	}
	if !res.Cache.Store.MemoryOnly {
		t.Fatalf("breaker did not trip after %d failed writes: %+v", storeFailureLimit, res.Cache.Store)
	}
	// The crash debris is on disk: torn temp files, no final records.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			torn++
		}
		if strings.HasSuffix(de.Name(), ".art") {
			t.Fatalf("a crashed write left a final record: %s", de.Name())
		}
	}
	if torn == 0 {
		t.Fatal("mid-write crashes left no torn temp files")
	}
	// Reopen: every piece of debris is quarantined, nothing is served.
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Quarantined; got != int64(torn) || st.Len() != 0 {
		t.Fatalf("reopen quarantined %d files and kept %d, want %d and 0", got, st.Len(), torn)
	}
	// Full recovery: a clean run over the same directory succeeds,
	// writes its record, and matches a store-less run byte for byte.
	clean, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Cache.Store.Writes != 1 {
		t.Fatalf("recovered store wrote %d records, want 1", clean.Cache.Store.Writes)
	}
	if len(clean.Degradations) != 0 {
		t.Fatalf("clean run over recovered store degraded: %+v", clean.Degradations)
	}
	memOnly, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Workers: 4, Verify: VerifyOn})
	if err != nil {
		t.Fatal(err)
	}
	if renderKey(clean) != renderKey(memOnly) || clean.TotalCost != memOnly.TotalCost {
		t.Fatal("recovered-store run differs from the memory-only run")
	}
}

// TestStoreCorruptionNeverUncertified pins the acceptance criterion: a
// corrupted or truncated store file can never produce an uncertified
// result.  The record of a warmed store is damaged — torn to a length
// Open still indexes, torn below a record's minimum size, or
// bit-flipped — and the re-run must still return a verified,
// certificate-passing result, quarantining what it touched.
func TestStoreCorruptionNeverUncertified(t *testing.T) {
	damage := map[string]func(b []byte) []byte{
		"torn":      func(b []byte) []byte { return b[:len(b)-7] },
		"undersize": func(b []byte) []byte { return b[:20] },
		"flipped":   func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
	}
	for name, mangle := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cold, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, store.FileName(cold.selCtx))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("warm store holds no selection record: %v", err)
			}
			if err := os.WriteFile(path, mangle(b), 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
			if err != nil {
				t.Fatalf("damaged store failed the analysis: %v", err)
			}
			if cerr := res.Certify(); cerr != nil {
				t.Fatalf("damaged store produced an uncertified result: %v", cerr)
			}
			if renderKey(res) != renderKey(cold) || res.TotalCost != cold.TotalCost {
				t.Fatal("damaged-store run differs from the cold run")
			}
			if s := res.Cache.Store; s.Quarantined != 1 || s.Hits != 0 || s.Writes != 1 {
				t.Fatalf("store traffic = %+v, want the damaged record quarantined, never served, and rewritten", s)
			}
		})
	}
}

// TestStorePoisonedSelection extends the poison-proof rule to records
// that pass the store checksum: a tampered-but-well-formed Selection
// planted under the run's real selection key must be rejected by
// CheckSelection, never served.
func TestStorePoisonedSelection(t *testing.T) {
	dir := t.TempDir()
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if res.selCtx == "" {
		t.Fatal("selection reuse unexpectedly ineligible")
	}
	// Re-plant the selection record with a poisoned cost.  The store
	// dedupes resident keys, so the honest record is removed first; the
	// new record is checksum-valid — only the certificate can catch it.
	if err := os.Remove(filepath.Join(dir, store.FileName(res.selCtx))); err != nil {
		t.Fatal(err)
	}
	poisoned := *res.Selection
	poisoned.Choice = append([]int(nil), res.Selection.Choice...)
	poisoned.Cost += 1000
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res.selCtx, encodeSelection(poisoned)); err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	var ce *CertificationError
	if !errors.As(err, &ce) {
		t.Fatalf("poisoned selection not certified away: err = %v (%T)", err, err)
	}
}

// TestStoreReuseYieldsToSolverFaults: a fault plan aimed at the solve
// must reach it even when the store already holds the answer — reuse is
// skipped, the store untouched — while a plan aimed at the store itself
// keeps travelling the reuse path.
func TestStoreReuseYieldsToSolverFaults(t *testing.T) {
	dir := t.TempDir()
	if _, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir)); err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{stage.Selection, stage.ILPRoot, stage.BBNode} {
		opt := storeOptions(dir)
		opt.Fault = fault.NewPlan(3).Arm(site, fault.Rule{Action: fault.Delay, Delay: time.Microsecond})
		res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
		if err != nil {
			t.Fatalf("%s: %v", site, err)
		}
		if s := res.Cache.Store; s.Hits+s.Misses+s.Writes != 0 {
			t.Fatalf("plan armed at %s still used the store: %+v", site, s)
		}
	}
	opt := storeOptions(dir)
	opt.Fault = fault.NewPlan(3).Arm(stage.StoreRead, fault.Rule{Action: fault.Delay, Delay: time.Microsecond})
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Store.Hits != 1 || opt.Fault.Fired(stage.StoreRead) != 1 {
		t.Fatalf("plan armed at store-read: store %+v, fired %d; want one hit through the armed site",
			res.Cache.Store, opt.Fault.Fired(stage.StoreRead))
	}
}

// TestStoreSemanticCorruptionRecomputed: a record whose store checksum
// passes but whose value codec fails (here: a version-skewed payload)
// is quarantined and recomputed — a decode failure is never an analysis
// failure.
func TestStoreSemanticCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if res.selCtx == "" {
		t.Fatal("selection reuse unexpectedly ineligible")
	}
	if err := os.Remove(filepath.Join(dir, store.FileName(res.selCtx))); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(res.selCtx, []byte("not a selection payload")); err != nil {
		t.Fatal(err)
	}
	again, err := Analyze(context.Background(), Input{Source: adiSmall}, storeOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache.Store.DecodeFailures == 0 {
		t.Fatalf("semantic corruption not counted: %+v", again.Cache.Store)
	}
	if again.TotalCost != res.TotalCost {
		t.Fatal("recomputed run differs from the original")
	}
}

// TestStoreUnavailableDegradesMemoryOnly: a store directory that cannot
// be opened (a plain file in the way) yields a degraded memory-only run
// — never an analysis failure, even under Strict (memory-only caching
// forfeits no optimality).
func TestStoreUnavailableDegradesMemoryOnly(t *testing.T) {
	file := filepath.Join(t.TempDir(), "in-the-way")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := storeOptions(file)
	opt.Strict = true
	res, err := Analyze(context.Background(), Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatalf("unavailable store failed the analysis: %v", err)
	}
	if !res.Cache.Store.MemoryOnly {
		t.Fatalf("run not marked memory-only: %+v", res.Cache.Store)
	}
	found := false
	for _, d := range res.Degradations {
		if d.Subsystem == stage.StoreOpen {
			found = true
		}
	}
	if !found {
		t.Fatalf("no store-open degradation: %+v", res.Degradations)
	}
}

// TestStoreCountersUnderRace: concurrent Analyze calls sharing one
// injected Store and one SharedCache keep every counter consistent (the
// assertion is meaningful under -race, which the CI store job runs).
func TestStoreCountersUnderRace(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	shared := NewSharedCache(0)
	const runs = 6
	results := make([]*Result, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, rerr := Analyze(context.Background(), Input{Source: adiSmall},
				Options{Procs: 8, Workers: 2, Verify: VerifyOn, Store: st, Cache: shared})
			if rerr != nil {
				t.Errorf("run %d: %v", i, rerr)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	stats := st.Stats()
	if stats.Entries != 1 || stats.Writes != 1 {
		t.Fatalf("store stats = %+v, want the one selection record", stats)
	}
	var first *Result
	var writes int64
	for _, res := range results {
		if res == nil {
			t.Fatal("missing result")
		}
		writes += res.Cache.Store.Writes
		if first == nil {
			first = res
			continue
		}
		if res.TotalCost != first.TotalCost {
			t.Fatalf("concurrent runs disagree: %v vs %v", res.TotalCost, first.TotalCost)
		}
	}
	// Runs that raced to the same miss all offer the record; only the
	// one whose write landed may count it.
	if writes != stats.Writes {
		t.Fatalf("runs count %d writes, the store wrote %d", writes, stats.Writes)
	}
}

// TestStoreCodecRoundTrip: the persisted selection survives
// encode/decode bit-exact, and payloads of another kind or version are
// rejected with a typed error (never misread).
func TestStoreCodecRoundTrip(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: adiSmall},
		Options{Procs: 8, Workers: 1, Verify: VerifyOn})
	if err != nil {
		t.Fatal(err)
	}
	sel, derr := decodeSelection(encodeSelection(*res.Selection))
	if derr != nil {
		t.Fatal(derr)
	}
	if !reflect.DeepEqual(sel, *res.Selection) {
		t.Fatalf("selection round trip: got %+v, want %+v", sel, *res.Selection)
	}
	var foreign, skewed artifact.Encoder
	foreign.Int(storeCodecVersion).Str("priced").Float(1)
	skewed.Int(storeCodecVersion + 1).Str(storeKindSel)
	for name, payload := range map[string][]byte{
		"foreign kind": foreign.Out(), "version skew": skewed.Out(), "empty": nil,
		"truncated": encodeSelection(*res.Selection)[:10],
	} {
		if _, derr := decodeSelection(payload); derr == nil {
			t.Fatalf("%s payload accepted as a selection", name)
		}
	}
}
