// Package store is a content-addressed, crash-safe on-disk artifact
// store: the L3 persistence layer below core's per-run caches (L1) and
// the process-wide SharedCache (L2).
//
// Every record is keyed by a content-hash cache key (derived from
// package artifact's SHA-256 keys), so entries never need invalidation:
// two processes that derive the same key are guaranteed to mean the
// same value, which is what makes one store directory shareable across
// restarts and replicas.  The design goals, in order:
//
//   - Crash safety.  Writes are atomic: the record goes to a temp file
//     in the same directory, is fsynced, and is renamed into place (the
//     directory is fsynced after).  A crash at any point leaves either
//     the complete old state or the complete new state — never a torn
//     final file.  Torn temp files are quarantined at the next open.
//   - Corruption containment.  Every record carries a trailing SHA-256
//     checksum (see record.go), and Get validates checksum and key on
//     every read: a torn, truncated or bit-flipped record is counted,
//     moved into quarantine/ and reported as a miss — a corrupted
//     record is always a miss, never a wrong value.  Open reads no
//     record: it lists the directory and quarantines only what the
//     listing itself condemns (temp files, foreign names, files too
//     short to be a record).
//   - Degradation over failure.  Transient IO errors are retried with
//     bounded exponential backoff (the fixed defaultPolicy below);
//     errors that persist surface as typed
//     errors the caller (core) converts into memory-only degradation,
//     never an analysis failure.
//
// The store is safe for concurrent use.  Concurrent Gets of the same
// key are deduplicated (singleflight): one goroutine reads the disk,
// the rest wait and share the payload.  The store is size-bounded:
// once MaxBytes of records are resident, a Put evicts the least
// recently used records (eviction is crash-safe — remove file, then
// forget it; a crash between the two just resurrects the record at
// the next open).
package store

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/stage"
)

// DefaultMaxBytes bounds a store opened with MaxBytes ≤ 0: 512 MiB of
// records, far more than a full machine-sweep working set.
const DefaultMaxBytes = 512 << 20

// QuarantineDir is the subdirectory corrupted files are moved into.
const QuarantineDir = "quarantine"

// Options parameterizes Open.
type Options struct {
	// Dir is the store directory (created if missing).  Required.
	Dir string
	// MaxBytes bounds the resident record bytes (≤ 0 means
	// DefaultMaxBytes); exceeding it evicts least recently used records.
	MaxBytes int64
	// Fault is the fault-injection plan for the store-open, store-read
	// and store-write chaos sites; nil disarms them.
	Fault *fault.Plan
}

// policy is the store's fixed IO retry tuning.  Open always uses
// defaultPolicy; only in-package tests change it (open).
type policy struct {
	// attempts bounds the IO attempts per open, read or write,
	// including the first.
	attempts int
	// backoff is the sleep before the first retry, doubling per retry.
	backoff time.Duration
}

var defaultPolicy = policy{attempts: 3, backoff: time.Millisecond}

// OpenError reports a store directory that could not be opened or
// scanned; the caller should degrade to memory-only caching.
type OpenError struct {
	Dir string
	Err error
}

func (e *OpenError) Error() string { return fmt.Sprintf("store: open %s: %v", e.Dir, e.Err) }
func (e *OpenError) Unwrap() error { return e.Err }

// entry is one resident record.
type entry struct {
	name string // file name (content hash + extension)
	size int64
	el   *list.Element // position in the LRU list; Value is *entry
}

// Stats is a snapshot of a store's state and lifetime counters.
type Stats struct {
	// Entries and Bytes describe the resident records.
	Entries int
	Bytes   int64
	// Hits, Misses and Writes count Get/Put traffic; DiskReads counts
	// actual record reads (singleflight-deduplicated Gets share one).
	Hits, Misses, Writes int64
	DiskReads            int64
	// Evictions counts records removed by the size bound; Quarantined
	// counts files moved to quarantine/ (debris at open, corrupt records
	// on read).
	Evictions   int64
	Quarantined int64
	// ReadFailures and WriteFailures count operations that failed after
	// every retry (the caller degraded or recomputed).
	ReadFailures, WriteFailures int64
}

// Store is an open artifact store.  All methods are safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	fault    *fault.Plan
	pol      policy

	mu     sync.Mutex
	index  map[string]*entry // file name → entry
	lru    list.List         // front = most recently used
	bytes  int64
	flight map[string]*flightCall

	hits, misses, writes        atomic.Int64
	diskReads                   atomic.Int64
	evictions, quarantined      atomic.Int64
	readFailures, writeFailures atomic.Int64
}

// flightCall is one in-progress disk read shared by concurrent Gets.
type flightCall struct {
	wg      sync.WaitGroup
	payload []byte
	ok      bool
	err     error
}

// guardPanic runs f, converting a panic (an injected fault.Panic or a
// store bug) into an error: the store must never crash its caller.
func guardPanic(site string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if fe, isFault := r.(*fault.Error); isFault {
				err = fe
				return
			}
			err = fmt.Errorf("store: panic at %s: %v", site, r)
		}
	}()
	return f()
}

// retryable reports whether an IO error is worth another attempt:
// corruption and missing files are definitive, everything else
// (including injected faults, which model transient IO) may clear.
func retryable(err error) bool {
	var ce *CorruptError
	if errors.As(err, &ce) || errors.Is(err, fs.ErrNotExist) {
		return false
	}
	return true
}

// withRetry runs op up to the policy's attempts with exponential
// backoff, returning the last error.
func (s *Store) withRetry(site string, op func() error) error {
	backoff := s.pol.backoff
	var err error
	for i := 0; i < s.pol.attempts; i++ {
		if err = guardPanic(site, op); err == nil || !retryable(err) {
			return err
		}
		if i+1 < s.pol.attempts {
			time.Sleep(backoff)
			backoff *= 2
		}
	}
	return err
}

// Open opens (creating if needed) a store directory, quarantines
// leftover temp files, foreign-named files and files too short to be a
// record, and indexes the rest from the directory listing without
// reading them.  Their LRU order is their modification order (oldest
// first to go).  An unreadable directory returns a typed *OpenError.
func Open(opt Options) (*Store, error) { return open(opt, defaultPolicy) }

// open is Open under a given retry policy.
func open(opt Options, pol policy) (*Store, error) {
	s := &Store{
		dir:      opt.Dir,
		maxBytes: opt.MaxBytes,
		fault:    opt.Fault,
		pol:      pol,
		index:    map[string]*entry{},
		flight:   map[string]*flightCall{},
	}
	if s.maxBytes <= 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if opt.Dir == "" {
		return nil, &OpenError{Dir: opt.Dir, Err: errors.New("empty directory")}
	}
	err := s.withRetry(stage.StoreOpen, func() error {
		if ferr := s.fault.Err(stage.StoreOpen); ferr != nil {
			return ferr
		}
		if err := os.MkdirAll(filepath.Join(opt.Dir, QuarantineDir), 0o755); err != nil {
			return err
		}
		return s.scan()
	})
	if err != nil {
		return nil, &OpenError{Dir: opt.Dir, Err: err}
	}
	return s, nil
}

// scan builds the index from the directory listing alone — names, sizes
// and modification times; no record is read (called once, from Open,
// before the store is shared).  Whether a record's bytes are sound is
// decided where it is served: readRecord validates on every Get.
func (s *Store) scan() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var ok []fs.FileInfo
	for _, de := range des {
		if de.IsDir() {
			continue // quarantine/ and anything else
		}
		info, ierr := de.Info()
		// Leftover temp files are torn writes from a crash, and a file too
		// short to hold a header and checksum cannot be a record; anything
		// else foreign is quarantined too rather than trusted.
		if ierr != nil || !isRecordName(de.Name()) || info.Size() < int64(headerLen+checksumLen) {
			s.quarantineFile(filepath.Join(s.dir, de.Name()))
			continue
		}
		ok = append(ok, info)
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].ModTime().Before(ok[j].ModTime()) })
	for _, info := range ok { // oldest first: ends up at the LRU back
		e := &entry{name: info.Name(), size: info.Size()}
		e.el = s.lru.PushFront(e)
		s.index[e.name] = e
		s.bytes += e.size
	}
	s.gcLocked()
	return nil
}

// isRecordName reports whether a file name is a well-formed record
// name (hex hash + extension, no temp infix).
func isRecordName(name string) bool {
	if filepath.Ext(name) != recordExt {
		return false
	}
	hexPart := name[:len(name)-len(recordExt)]
	if len(hexPart) != 64 {
		return false
	}
	for i := 0; i < len(hexPart); i++ {
		c := hexPart[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// quarantineFile moves a bad file into quarantine/, uniquifying the
// name on collision.  Best-effort: if even the move fails the file is
// removed, so a bad record can never be served later.
func (s *Store) quarantineFile(path string) {
	base := filepath.Base(path)
	dst := filepath.Join(s.dir, QuarantineDir, base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(s.dir, QuarantineDir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantined.Add(1)
}

// Get looks a key up.  A miss returns (nil, false, nil).  A corrupt
// record is quarantined and returned as a miss alongside the typed
// *CorruptError; an IO failure that survives every retry is returned
// as (nil, false, err).  Concurrent Gets of one key share a single
// disk read.
func (s *Store) Get(key string) ([]byte, bool, error) {
	name := FileName(key)
	s.mu.Lock()
	e, resident := s.index[name]
	if !resident {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false, nil
	}
	s.lru.MoveToFront(e.el)
	// Singleflight: join an in-progress read of the same record.
	if c, inFlight := s.flight[name]; inFlight {
		s.mu.Unlock()
		c.wg.Wait()
		s.countGet(c.ok)
		return c.payload, c.ok, c.err
	}
	c := &flightCall{}
	c.wg.Add(1)
	s.flight[name] = c
	s.mu.Unlock()

	c.payload, c.ok, c.err = s.readRecord(key, name)
	s.mu.Lock()
	delete(s.flight, name)
	s.mu.Unlock()
	c.wg.Done()
	s.countGet(c.ok)
	return c.payload, c.ok, c.err
}

func (s *Store) countGet(ok bool) {
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
}

// readRecord performs the retried disk read and validation behind one
// Get flight.
func (s *Store) readRecord(key, name string) ([]byte, bool, error) {
	path := filepath.Join(s.dir, name)
	var payload []byte
	err := s.withRetry(stage.StoreRead, func() error {
		if ferr := s.fault.Err(stage.StoreRead); ferr != nil {
			return ferr
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		s.diskReads.Add(1)
		gotKey, p, derr := DecodeRecord(b)
		if derr != nil {
			var ce *CorruptError
			if errors.As(derr, &ce) {
				ce.Path = path
				return ce
			}
			return derr
		}
		if gotKey != key {
			return &CorruptError{Path: path, Reason: "record key does not match lookup key"}
		}
		payload = p
		return nil
	})
	switch {
	case err == nil:
		return payload, true, nil
	case errors.Is(err, fs.ErrNotExist):
		// Index is stale (e.g. another process evicted the file): a
		// plain miss, and the entry is forgotten.
		s.forget(name)
		return nil, false, nil
	default:
		var ce *CorruptError
		if errors.As(err, &ce) {
			s.quarantineKey(name)
			return nil, false, err
		}
		s.readFailures.Add(1)
		return nil, false, err
	}
}

// forget drops an entry from the index (no file operation).
func (s *Store) forget(name string) {
	s.mu.Lock()
	if e, ok := s.index[name]; ok {
		s.lru.Remove(e.el)
		delete(s.index, name)
		s.bytes -= e.size
	}
	s.mu.Unlock()
}

// quarantineKey moves a resident record to quarantine/ and drops it
// from the index.
func (s *Store) quarantineKey(name string) {
	s.forget(name)
	s.quarantineFile(filepath.Join(s.dir, name))
}

// Quarantine removes a key's record from service and moves its file to
// quarantine/.  Callers use it when a record passed the store checksum
// but failed a higher-level decode — semantic corruption the checksum
// cannot see.
func (s *Store) Quarantine(key string) {
	name := FileName(key)
	s.mu.Lock()
	_, resident := s.index[name]
	s.mu.Unlock()
	if resident {
		s.quarantineKey(name)
	}
}

// Add stores a payload under a key (write-through from the memory
// layers) and reports whether a record was written.  Records are
// immutable and content-keyed, so a key that is already resident is left
// untouched (false, nil).  The write is atomic: temp file + fsync +
// rename + directory fsync; a crash mid-write leaves only a torn temp
// file for the next Open to quarantine.  An Add that fails every retry
// returns the error; the store remains usable.
func (s *Store) Add(key string, payload []byte) (written bool, err error) {
	name := FileName(key)
	s.mu.Lock()
	_, resident := s.index[name]
	s.mu.Unlock()
	if resident {
		return false, nil
	}
	rec := EncodeRecord(key, payload)
	err = s.withRetry(stage.StoreWrite, func() error {
		return s.writeRecord(name, key, payload, rec)
	})
	if err != nil {
		s.writeFailures.Add(1)
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, raced := s.index[name]; raced {
		return false, nil
	}
	e := &entry{name: name, size: int64(len(rec))}
	e.el = s.lru.PushFront(e)
	s.index[name] = e
	s.bytes += e.size
	s.writes.Add(1)
	s.gcLocked()
	return true, nil
}

// Put is Add for callers that do not need to know whether the key was
// already resident.
func (s *Store) Put(key string, payload []byte) error {
	_, err := s.Add(key, payload)
	return err
}

// writeRecord is one atomic-write attempt.  The store-write fault site
// fires after part of the record reached the temp file, so an injected
// Fail or Panic models a crash that leaves a torn temp file; a Corrupt
// rule flips a payload byte after the checksum was computed, planting
// a checksum-failing record for reads and reopens to catch.
func (s *Store) writeRecord(name, key string, payload, rec []byte) error {
	f, err := os.CreateTemp(s.dir, name+tempInfix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	// First half of the record, then the crash window.
	split := headerLen + len(key) + len(payload)/2
	if _, err := f.Write(rec[:split]); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if ferr := s.fault.Err(stage.StoreWrite); ferr != nil {
		// Simulated crash: close without the rest, leave the torn temp
		// file in place — exactly what a real crash would leave.
		f.Close()
		return ferr
	}
	rest := append([]byte(nil), rec[split:]...)
	if s.fault.ShouldCorrupt(stage.StoreWrite) {
		rest[len(rest)-1-checksumLen] ^= 0xff // a payload byte, checksum already fixed
	}
	if _, err := f.Write(rest); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// syncDir fsyncs a directory so a rename survives power loss;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// gcLocked evicts least recently used records until the store fits its
// byte bound.  Crash-safe: the file is removed first, then the entry —
// a crash between the two leaves nothing stale (reopen sees neither).
// Caller holds s.mu.
func (s *Store) gcLocked() {
	for s.bytes > s.maxBytes && s.lru.Len() > 0 {
		back := s.lru.Back()
		e := back.Value.(*entry)
		os.Remove(filepath.Join(s.dir, e.name))
		s.lru.Remove(back)
		delete(s.index, e.name)
		s.bytes -= e.size
		s.evictions.Add(1)
	}
}

// Len returns the number of resident records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the store's state and lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return Stats{
		Entries:       entries,
		Bytes:         bytes,
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		DiskReads:     s.diskReads.Load(),
		Evictions:     s.evictions.Load(),
		Quarantined:   s.quarantined.Load(),
		ReadFailures:  s.readFailures.Load(),
		WriteFailures: s.writeFailures.Load(),
	}
}

// Close flushes the directory metadata.  The store holds no open file
// descriptors between operations, so Close never invalidates the
// receiver; it exists so callers can mark the end of a store's use.
func (s *Store) Close() error {
	syncDir(s.dir)
	return nil
}
