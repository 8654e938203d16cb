// Package artifact derives content-hash keys for the immutable values
// flowing between pipeline stages.
//
// Every stage of the analysis pipeline (package core) consumes and
// produces artifacts: the parsed unit, the dependence-annotated PCFG,
// the alignment search spaces, candidate pricings, the selection.  An
// artifact's key is a cryptographic hash of everything its value
// depends on — the program's canonical rendering, the machine model's
// serialized training tables, the per-stage options — so two artifacts
// with equal keys are interchangeable across runs, processes and
// sessions.  That property is what makes cross-run caching
// (core.SharedCache) and session reuse (core.Session) safe: a cache
// keyed by content hashes can be shared by concurrent analyses of
// different programs under different machine models without any
// invalidation protocol.
//
// Keys are prefixed with a kind tag ("unit", "machine", ...) so keys of
// different artifact kinds can never collide even if their payloads
// hash equal.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/fortran"
	"repro/internal/machine"
)

// Key is the content hash of one artifact, in "kind:hex" form.  Equal
// keys identify interchangeable artifact values; the kind prefix keeps
// different artifact kinds in disjoint key spaces.
type Key string

// Kind returns the key's kind tag (the part before the colon).
func (k Key) Kind() string {
	for i := 0; i < len(k); i++ {
		if k[i] == ':' {
			return string(k[:i])
		}
	}
	return string(k)
}

// Short returns an abbreviated form for logs and debug output.
func (k Key) Short() string {
	const n = 12
	kind := k.Kind()
	hexPart := string(k[len(kind)+1:])
	if len(hexPart) > n {
		hexPart = hexPart[:n]
	}
	return kind + ":" + hexPart
}

// Hasher accumulates an artifact's content into a key.  The writer
// methods are length-prefixed and type-tagged, so distinct field
// sequences can never produce colliding digests by concatenation
// tricks ("ab"+"c" vs "a"+"bc").
type Hasher struct {
	kind string
	h    hash.Hash
}

// NewHasher starts a key of the given kind.
func NewHasher(kind string) *Hasher {
	return &Hasher{kind: kind, h: sha256.New()}
}

func (h *Hasher) tag(t byte, n int) {
	var buf [9]byte
	buf[0] = t
	binary.LittleEndian.PutUint64(buf[1:], uint64(n))
	h.h.Write(buf[:])
}

// Str folds a string field into the key.
func (h *Hasher) Str(s string) *Hasher {
	h.tag('s', len(s))
	h.h.Write([]byte(s))
	return h
}

// Int folds an integer field into the key.
func (h *Hasher) Int(v int) *Hasher {
	h.tag('i', v)
	return h
}

// Bool folds a boolean field into the key.
func (h *Hasher) Bool(v bool) *Hasher {
	n := 0
	if v {
		n = 1
	}
	h.tag('b', n)
	return h
}

// Float folds a float field into the key (bit-exact, so -0 and 0
// differ; callers hash configuration values, not computed results).
func (h *Hasher) Float(v float64) *Hasher {
	h.tag('f', int(math.Float64bits(v)))
	return h
}

// Key finalizes the digest.  The Hasher must not be reused afterwards.
func (h *Hasher) Key() Key {
	return Key(h.kind + ":" + hex.EncodeToString(h.h.Sum(nil)))
}

// UnitKey is the content hash of an analyzed program: the canonical
// rendering (fortran.Print round-trips the whole unit — parameters,
// declarations, directives, body, trip and probability hints), so two
// units with equal keys are structurally identical and every
// unit-derived artifact (dependence info, alignment spaces, pricings)
// is interchangeable between them.
func UnitKey(u *fortran.Unit) Key {
	return NewHasher("unit").Str(fortran.Print(u.Prog)).Key()
}

// DeclsKey is the content hash of a program's declaration context: the
// parameters, array and scalar declarations, and layout directives —
// everything the pipeline reads about a program *besides* a phase's
// statements.  Two units with equal decls keys give every analysis
// stage an identical view of the symbol table, so a phase whose
// statement rendering is unchanged between them produces identical
// dependence info, pricings and remap costs.  The program name is
// deliberately excluded: no analysis result depends on it, and folding
// it in would invalidate every phase artifact on a rename.
func DeclsKey(u *fortran.Unit) Key {
	h := NewHasher("decls")
	p := u.Prog
	h.Int(len(p.Params))
	for _, pa := range p.Params {
		h.Str(pa.Name).Int(pa.Value)
	}
	h.Int(len(p.Decls))
	for _, d := range p.Decls {
		h.Str(d.Name).Str(d.Type.String()).Int(len(d.Dims))
		for _, ext := range d.Dims {
			h.Str(ext.String())
		}
	}
	h.Int(len(p.Directives))
	for _, dir := range p.Directives {
		h.Str(dir.Text)
	}
	return h.Key()
}

// PhaseKeyFrom is the content hash of one phase of a program: the
// decls key chained with the phase's canonical statement rendering
// (fortran.PrintStmts round-trips trip and probability hints but not
// source line numbers).  An edit that touches only other phases leaves
// this key — and therefore every artifact derived from it — unchanged,
// which is what lets Session.Update reuse per-phase artifacts across
// edits.
func PhaseKeyFrom(decls Key, sig string) Key {
	return NewHasher("phase").Str(string(decls)).Str(sig).Key()
}

// MachineKey is the content hash of a machine model: its name plus the
// full serialized training tables (machine.WriteTable emits every
// operation time and communication training set in deterministic
// order), so two models with equal keys price every event identically.
//
// A model is immutable, so its key is derived once and kept in the
// model (machine.Model.ContentKey): every request reads it for its own
// key and again for its cache contexts.
func MachineKey(m *machine.Model) Key {
	return Key(m.ContentKey(machineKey))
}

func machineKey(m *machine.Model) string {
	h := NewHasher("machine")
	h.Str(m.Name())
	if err := m.WriteTable(hashWriter{h}); err != nil {
		// WriteTable only fails on writer errors; hashWriter never
		// fails, so this is unreachable — but fold the error in rather
		// than panicking so a future table format cannot break hashing.
		h.Str(fmt.Sprintf("table-error:%v", err))
	}
	return string(h.Key())
}

// hashWriter adapts a Hasher to io.Writer for serializers.
type hashWriter struct{ h *Hasher }

func (w hashWriter) Write(p []byte) (int, error) {
	w.h.tag('w', len(p))
	w.h.h.Write(p)
	return len(p), nil
}

// Combine derives a new key of the given kind from existing keys: the
// canonical way to express "this artifact depends on exactly these
// upstream artifacts".
func Combine(kind string, keys ...Key) Key {
	h := NewHasher(kind)
	for _, k := range keys {
		h.Str(string(k))
	}
	return h.Key()
}
