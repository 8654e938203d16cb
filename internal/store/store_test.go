package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/stage"
)

func mustOpen(t *testing.T, opt Options) *Store {
	t.Helper()
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRecordRoundTrip: encode → decode returns the original key and
// payload; FileName is stable.
func TestRecordRoundTrip(t *testing.T) {
	key := "price-ctx:abc\x1fsome\nmulti-line sig\x1flayout"
	payload := []byte{0, 1, 2, 0xff, 0xfe}
	rec := EncodeRecord(key, payload)
	k, p, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if k != key || string(p) != string(payload) {
		t.Fatalf("round trip: key %q payload %v", k, p)
	}
	if FileName(key) != FileName(key) || len(FileName(key)) != 64+len(".art") {
		t.Fatalf("FileName = %q", FileName(key))
	}
}

// TestRecordCorruptions: every single-byte flip and every truncation of
// a real record decodes to a typed *CorruptError, never succeeds.
func TestRecordCorruptions(t *testing.T) {
	rec := EncodeRecord("key", []byte("payload-bytes"))
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x01
		if _, _, err := DecodeRecord(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		} else {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("flip at byte %d: error %T not *CorruptError", i, err)
			}
		}
	}
	for n := 0; n < len(rec); n++ {
		if _, _, err := DecodeRecord(rec[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, _, err := DecodeRecord(append(append([]byte(nil), rec...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestStoreGetPut: basic round trip through the disk, dedupe on Put,
// stats accounting.
func TestStoreGetPut(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	if _, ok, err := s.Get("k1"); ok || err != nil {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}
	if written, err := s.Add("k1", []byte("v1")); err != nil || !written {
		t.Fatalf("Add of a new key = %v, %v", written, err)
	}
	if written, err := s.Add("k1", []byte("v1")); err != nil || written {
		t.Fatalf("Add of a resident key = %v, %v; want no rewrite, no error", written, err)
	}
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	p, ok, err := s.Get("k1")
	if err != nil || !ok || string(p) != "v1" {
		t.Fatalf("Get = %q, %v, %v", p, ok, err)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(len(EncodeRecord("k1", []byte("v1")))) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

// TestStorePersistsAcrossOpens: a second open over the same directory
// serves records the first one wrote — the warm-restart property.
func TestStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if err := s1.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	s2 := mustOpen(t, Options{Dir: dir})
	if s2.Len() != 10 {
		t.Fatalf("reopened store has %d records, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		p, ok, err := s2.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || string(p) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key-%d: %q, %v, %v", i, p, ok, err)
		}
	}
}

// TestStoreQuarantineOnOpen: what the directory listing alone condemns
// — torn temp files, foreign names, files too short to hold a header
// and checksum — is quarantined at open; the records survive and stay
// readable.
func TestStoreQuarantineOnOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	for _, k := range []string{"good-1", "good-2", "short", "empty"} {
		if err := s1.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	short := filepath.Join(dir, FileName("short"))
	b, _ := os.ReadFile(short)
	os.WriteFile(short, b[:headerLen+checksumLen-1], 0o644)
	os.WriteFile(filepath.Join(dir, FileName("empty")), nil, 0o644)
	os.WriteFile(filepath.Join(dir, FileName("torn")+tempInfix+"123"), []byte("ALSTOR01 torn half-writ"), 0o644)
	os.WriteFile(filepath.Join(dir, "foreign.txt"), []byte("not a record"), 0o644)

	s2 := mustOpen(t, Options{Dir: dir})
	if got := s2.Len(); got != 2 {
		t.Fatalf("survivors = %d, want 2", got)
	}
	if st := s2.Stats(); st.Quarantined != 4 {
		t.Fatalf("quarantined = %d, want 4 (short, empty, torn temp, foreign)", st.Quarantined)
	}
	for _, k := range []string{"good-1", "good-2"} {
		if _, ok, err := s2.Get(k); !ok || err != nil {
			t.Fatalf("survivor %s: %v, %v", k, ok, err)
		}
	}
	for _, k := range []string{"short", "empty"} {
		if _, ok, err := s2.Get(k); ok || err != nil {
			t.Fatalf("undersized record %s: ok=%v err=%v, want a plain miss", k, ok, err)
		}
	}
	// The damaged files are preserved in quarantine/ for forensics.
	qs, err := os.ReadDir(filepath.Join(dir, QuarantineDir))
	if err != nil || len(qs) != 4 {
		t.Fatalf("quarantine dir has %d files (err %v), want 4", len(qs), err)
	}
}

// TestStoreOpenReadsNoRecord: Open indexes a well-named record from its
// directory entry without reading it, so a record whose bytes are bad —
// flipped, torn but still record-sized, or stored under another key's
// name — survives the open and falls at its first Get: a miss with a
// typed *CorruptError, quarantined, and a plain miss ever after.
func TestStoreOpenReadsNoRecord(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, Options{Dir: dir})
	keys := []string{"flip", "trunc", "renamed"}
	for _, k := range append(keys, "donor") {
		if err := s1.Put(k, []byte("payload of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	flip := filepath.Join(dir, FileName("flip"))
	b, _ := os.ReadFile(flip)
	b[headerLen+len("flip")+3] ^= 0xff // a payload byte
	os.WriteFile(flip, b, 0o644)
	trunc := filepath.Join(dir, FileName("trunc"))
	b, _ = os.ReadFile(trunc)
	os.WriteFile(trunc, b[:len(b)-7], 0o644)
	b, _ = os.ReadFile(filepath.Join(dir, FileName("donor")))
	os.WriteFile(filepath.Join(dir, FileName("renamed")), b, 0o644)

	s2 := mustOpen(t, Options{Dir: dir})
	if got, q := s2.Len(), s2.Stats().Quarantined; got != 4 || q != 0 {
		t.Fatalf("open indexed %d records and quarantined %d, want 4 and 0", got, q)
	}
	if reads := s2.Stats().DiskReads; reads != 0 {
		t.Fatalf("open read %d records", reads)
	}
	for i, k := range keys {
		p, ok, err := s2.Get(k)
		var ce *CorruptError
		if ok || p != nil || !errors.As(err, &ce) {
			t.Fatalf("first Get(%s) = %q, %v, %v; want a miss with *CorruptError", k, p, ok, err)
		}
		if q := s2.Stats().Quarantined; q != int64(i+1) {
			t.Fatalf("after Get(%s): quarantined = %d, want %d", k, q, i+1)
		}
		if _, ok, err := s2.Get(k); ok || err != nil {
			t.Fatalf("second Get(%s): ok=%v err=%v, want a plain miss", k, ok, err)
		}
	}
	if p, ok, err := s2.Get("donor"); !ok || err != nil || string(p) != "payload of donor" {
		t.Fatalf("undamaged record: %q, %v, %v", p, ok, err)
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("records left = %d, want 1", got)
	}
}

// TestStoreQuarantineOnRead: a record corrupted after open is caught by
// the per-read checksum, quarantined, and reported as a miss plus a
// typed error — never served.
func TestStoreQuarantineOnRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	if err := s.Put("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName("k"))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0x80 // break the checksum behind the open store's back
	os.WriteFile(path, b, 0o644)
	p, ok, err := s.Get("k")
	if ok || p != nil {
		t.Fatal("corrupt record served")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *CorruptError", err)
	}
	if s.Len() != 0 || s.Stats().Quarantined != 1 {
		t.Fatalf("record not quarantined: len %d, stats %+v", s.Len(), s.Stats())
	}
	if _, serr := os.Lstat(path); !errors.Is(serr, os.ErrNotExist) {
		t.Fatal("corrupt file still in the main directory")
	}
}

// TestStoreSemanticQuarantine: Quarantine removes a checksum-valid
// record from service (the hook for higher-level decode failures).
func TestStoreSemanticQuarantine(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir()})
	s.Put("k", []byte("valid bytes, semantically poisoned"))
	s.Quarantine("k")
	if _, ok, err := s.Get("k"); ok || err != nil {
		t.Fatalf("quarantined record: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreAtomicPut: an injected mid-write crash leaves a torn temp
// file but never a readable final record; the next open quarantines
// the debris and the store fully recovers.
func TestStoreAtomicPut(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(3).Arm(stage.StoreWrite, fault.Rule{Action: fault.Fail})
	s := mustOpen(t, Options{Dir: dir, Fault: plan, Attempts: 2})
	err := s.Put("k", []byte("doomed"))
	var fe *fault.Error
	if !errors.As(err, &fe) {
		t.Fatalf("Put error = %v (%T), want injected fault", err, err)
	}
	if st := s.Stats(); st.WriteFailures != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("torn write served")
	}
	// Crash debris: one torn temp per attempt, no final file.
	des, _ := os.ReadDir(dir)
	torn := 0
	for _, de := range des {
		if strings.Contains(de.Name(), tempInfix) {
			torn++
		}
		if de.Name() == FileName("k") {
			t.Fatal("final record exists after torn write")
		}
	}
	if torn != 2 {
		t.Fatalf("torn temp files = %d, want 2 (one per attempt)", torn)
	}
	s2 := mustOpen(t, Options{Dir: dir})
	if st := s2.Stats(); st.Quarantined != 2 || st.Entries != 0 {
		t.Fatalf("recovery stats = %+v", st)
	}
	if err := s2.Put("k", []byte("fine now")); err != nil {
		t.Fatal(err)
	}
}

// TestStoreWriteCorruptionCaught: a store-write Corrupt fault plants a
// checksum-failing record; a read detects and quarantines it instead
// of serving the poisoned payload.
func TestStoreWriteCorruptionCaught(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(5).Arm(stage.StoreWrite, fault.Rule{Action: fault.Corrupt})
	s := mustOpen(t, Options{Dir: dir, Fault: plan})
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if plan.Fired(stage.StoreWrite) == 0 {
		t.Fatal("corrupt rule never fired")
	}
	if _, ok, err := s.Get("k"); ok {
		t.Fatal("corrupted record served")
	} else if err == nil {
		t.Fatal("corrupted record read reported no error")
	}
	if s.Stats().Quarantined != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

// TestStoreRetryRecovers: a store-read fault targeted at only the
// first attempt is absorbed by the bounded retry; the Get succeeds.
func TestStoreRetryRecovers(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Options{Dir: dir})
	warm.Put("k", []byte("v"))
	plan := fault.NewPlan(1).Arm(stage.StoreRead, fault.Rule{Action: fault.Fail, After: 1})
	s := mustOpen(t, Options{Dir: dir, Fault: plan, Attempts: 3, Backoff: time.Microsecond})
	p, ok, err := s.Get("k")
	if err != nil || !ok || string(p) != "v" {
		t.Fatalf("Get after transient fault = %q, %v, %v", p, ok, err)
	}
	if got := plan.Hits()[stage.StoreRead]; got != 2 {
		t.Fatalf("read attempts = %d, want 2 (fail, then retry)", got)
	}
	if s.Stats().ReadFailures != 0 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

// TestStoreReadFailsAfterRetries: a persistent fault exhausts the
// bounded attempts and surfaces as an error, counted as a read failure.
func TestStoreReadFailsAfterRetries(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Options{Dir: dir})
	warm.Put("k", []byte("v"))
	plan := fault.NewPlan(1).Arm(stage.StoreRead, fault.Rule{Action: fault.Fail})
	s := mustOpen(t, Options{Dir: dir, Fault: plan, Attempts: 3, Backoff: time.Microsecond})
	_, ok, err := s.Get("k")
	if ok || err == nil {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if got := plan.Hits()[stage.StoreRead]; got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if s.Stats().ReadFailures != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

// TestStorePanicContained: an injected panic at any store site becomes
// an error, never escapes to the caller.
func TestStorePanicContained(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Options{Dir: dir})
	warm.Put("k", []byte("v"))
	for _, site := range []string{stage.StoreOpen, stage.StoreRead, stage.StoreWrite} {
		t.Run(site, func(t *testing.T) {
			plan := fault.NewPlan(1).Arm(site, fault.Rule{Action: fault.Panic})
			s, err := Open(Options{Dir: dir, Fault: plan, Attempts: 1})
			if site == stage.StoreOpen {
				if err == nil {
					t.Fatal("open survived an injected panic")
				}
				var oe *OpenError
				if !errors.As(err, &oe) {
					t.Fatalf("error %T is not *OpenError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, gerr := s.Get("k"); site == stage.StoreRead && gerr == nil {
				t.Fatal("read panic vanished")
			}
			// Per-site key: the subtests share the warm directory, and a
			// resident key dedupes without reaching the write site.
			if perr := s.Put("k2-"+site, []byte("v2")); site == stage.StoreWrite && perr == nil {
				t.Fatal("write panic vanished")
			}
		})
	}
}

// TestStoreGC: the byte bound evicts least recently used records
// first, removes their files, and a touched record survives.
func TestStoreGC(t *testing.T) {
	dir := t.TempDir()
	one := int64(len(EncodeRecord("key-00", make([]byte, 100))))
	s := mustOpen(t, Options{Dir: dir, MaxBytes: 4 * one})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key-00 so key-01 is now the LRU record.
	if _, ok, _ := s.Get("key-00"); !ok {
		t.Fatal("key-00 missing before GC")
	}
	if err := s.Put("key-04", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes > 4*one || st.Entries != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok, _ := s.Get("key-01"); ok {
		t.Fatal("LRU record survived eviction")
	}
	if _, ok, _ := s.Get("key-00"); !ok {
		t.Fatal("recently used record evicted")
	}
	if _, err := os.Lstat(filepath.Join(dir, FileName("key-01"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("evicted record's file still on disk")
	}
	// Reopen under the same bound: eviction was crash-safe, nothing
	// stale resurfaces beyond the bound.
	s2 := mustOpen(t, Options{Dir: dir, MaxBytes: 4 * one})
	if got := s2.Len(); got != 4 {
		t.Fatalf("reopen sees %d records, want 4", got)
	}
}

// TestStoreSingleflight: concurrent Gets of one key do one disk read.
func TestStoreSingleflight(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	s.Put("k", []byte("shared"))

	// A delay fault keeps the leader in flight long enough for the
	// others to pile up behind it.
	plan := fault.NewPlan(1).Arm(stage.StoreRead, fault.Rule{Action: fault.Delay, Delay: 50 * time.Millisecond, After: 1})
	s2 := mustOpen(t, Options{Dir: dir, Fault: plan})
	const goroutines = 16
	var wg sync.WaitGroup
	var hits atomic.Int64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, ok, err := s2.Get("k")
			if ok && err == nil && string(p) == "shared" {
				hits.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if hits.Load() != goroutines {
		t.Fatalf("hits = %d, want %d", hits.Load(), goroutines)
	}
	st := s2.Stats()
	if st.DiskReads >= goroutines {
		t.Fatalf("disk reads = %d for %d concurrent gets; singleflight is not deduplicating", st.DiskReads, goroutines)
	}
	if st.Hits != goroutines {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreConcurrent hammers one store from many goroutines with
// overlapping keys under -race: no race, no panic, every served value
// matches its key.
func TestStoreConcurrent(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), MaxBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", (g*37+i)%50)
				want := "value-of-" + k
				if p, ok, err := s.Get(k); err != nil {
					t.Errorf("Get(%s): %v", k, err)
					return
				} else if ok && string(p) != want {
					t.Errorf("Get(%s) = %q", k, p)
					return
				}
				if err := s.Put(k, []byte(want)); err != nil {
					t.Errorf("Put(%s): %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStoreOpenErrors: an unusable directory degrades to a typed
// *OpenError (the caller's cue to go memory-only), never a panic.
func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open(Options{Dir: ""}); err == nil {
		t.Fatal("empty dir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	os.WriteFile(file, []byte("x"), 0o644)
	_, err := Open(Options{Dir: file})
	var oe *OpenError
	if !errors.As(err, &oe) {
		t.Fatalf("open over a plain file: %v (%T)", err, err)
	}
	plan := fault.NewPlan(1).Arm(stage.StoreOpen, fault.Rule{Action: fault.Fail})
	if _, err := Open(Options{Dir: t.TempDir(), Fault: plan, Attempts: 1}); !errors.As(err, &oe) {
		t.Fatalf("injected open failure: %v (%T)", err, err)
	}
}
