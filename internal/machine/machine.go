// Package machine provides the machine models that ground performance
// estimation.
//
// The paper's prototype uses over 100 machine-level training sets
// measured on Intel's iPSC/860 and Paragon with if77 -O4: basic
// computations (real and double floating point) and communication
// patterns (nearest-neighbor shifts, send/receive pairs, broadcasts,
// reductions, transposes), each for several processor counts, unit and
// non-unit memory strides, and high- and low-latency regimes (§3).
//
// The hardware is long gone, so this package *synthesizes* the
// training-set tables from published iPSC/860 and Paragon
// characteristics (message start-up, link bandwidth, per-word buffering
// cost, hypercube log-step collectives, per-operation times).  The
// tables keep the paper's exact lookup structure — (pattern, #procs,
// stride class, latency class) → (start-up, per-byte) — and the
// framework only ever consumes those looked-up numbers, so estimated
// rankings depend on the preserved cost ratios, not on absolute
// calibration.  See DESIGN.md for the substitution rationale.
package machine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/fortran"
)

// Pattern is a basic communication pattern with a training set.
type Pattern int8

const (
	// Shift is a nearest-neighbor exchange (all processors in parallel).
	Shift Pattern = iota
	// SendRecv is a single point-to-point message pair.
	SendRecv
	// Broadcast is a one-to-all broadcast.
	Broadcast
	// Reduction is an all-to-one (or all-to-all) combining reduction.
	Reduction
	// Transpose is an all-to-all personalized exchange (remapping).
	Transpose
)

func (p Pattern) String() string {
	switch p {
	case Shift:
		return "shift"
	case SendRecv:
		return "sendrecv"
	case Broadcast:
		return "broadcast"
	case Reduction:
		return "reduction"
	case Transpose:
		return "transpose"
	}
	return fmt.Sprintf("Pattern(%d)", int8(p))
}

// Stride classifies the memory access pattern of message data; non-unit
// stride requires buffering (§3).
type Stride int8

const (
	// UnitStride data is contiguous.
	UnitStride Stride = iota
	// NonUnitStride data must be packed/unpacked through a buffer.
	NonUnitStride
)

func (s Stride) String() string {
	if s == UnitStride {
		return "unit"
	}
	return "non-unit"
}

// Latency selects the observable message latency regime: high for
// loosely synchronous phases, low for pipelined phases that overlap
// computation and communication (§3).
type Latency int8

const (
	// HighLatency is the full, unoverlapped message cost.
	HighLatency Latency = iota
	// LowLatency is the overlapped (pipelined) message cost.
	LowLatency
)

func (l Latency) String() string {
	if l == HighLatency {
		return "high"
	}
	return "low"
}

// OpKind is a basic computation measured by a training set.
type OpKind int8

const (
	OpAddSub OpKind = iota
	OpMul
	OpDiv
	OpSqrt
	OpIntrinsic
	OpPow
	OpLoad
	OpStore
)

// TrainingSet is one synthesized measurement: the cost of one event of
// Pattern on Procs processors is Startup + bytes*PerByte microseconds.
type TrainingSet struct {
	Pattern Pattern
	Procs   int
	Stride  Stride
	Latency Latency
	Startup float64 // µs
	PerByte float64 // µs per byte
}

type setKey struct {
	pat Pattern
	str Stride
	lat Latency
}

type opKey struct {
	op OpKind
	dt fortran.DataType
}

// Model is a machine performance model backed by training-set tables.
// A model is immutable once built (it has no mutator and Sets copies),
// so the built-in models are shared; do not copy a Model by value.
type Model struct {
	name    string
	ops     map[opKey]float64
	sets    map[setKey][]TrainingSet // sorted by Procs
	numSets int

	keyOnce sync.Once
	key     string
}

// ContentKey returns derive(m), computed on the first call and kept in
// the model — in the model, not in a table keyed by model pointer: a
// request that brings its own table builds a fresh model, and its key
// must go when the model does.  The content-hash key of a model
// (artifact.MachineKey, which this package cannot import) serializes
// the whole table; every request reads it several times.
func (m *Model) ContentKey(derive func(*Model) string) string {
	m.keyOnce.Do(func() { m.key = derive(m) })
	return m.key
}

// Name returns the model name.
func (m *Model) Name() string { return m.name }

// ModelError reports an incomplete or inconsistent machine model.
type ModelError struct {
	Model string
	Msg   string
}

func (e *ModelError) Error() string {
	return fmt.Sprintf("machine: model %q: %s", e.Model, e.Msg)
}

// Validate checks that the model backs every lookup the framework
// performs: a training set for each (pattern, stride, latency)
// combination and an operation time for every basic operation, all with
// finite non-negative values.  It returns a *ModelError describing the
// first gap found, so an incomplete hand-authored table fails up front
// instead of panicking mid-estimation.
func (m *Model) Validate() error {
	if m == nil {
		return &ModelError{Model: "", Msg: "nil model"}
	}
	if m.numSets == 0 {
		return &ModelError{Model: m.name, Msg: "no training sets"}
	}
	for _, pat := range []Pattern{Shift, SendRecv, Broadcast, Reduction, Transpose} {
		for _, str := range []Stride{UnitStride, NonUnitStride} {
			for _, lat := range []Latency{HighLatency, LowLatency} {
				ss := m.sets[setKey{pat, str, lat}]
				if len(ss) == 0 {
					return &ModelError{Model: m.name,
						Msg: fmt.Sprintf("no training sets for %v/%v/%v", pat, str, lat)}
				}
				for i, ts := range ss {
					if ts.Procs < 2 {
						return &ModelError{Model: m.name,
							Msg: fmt.Sprintf("training set %v/%v/%v has procs %d < 2", pat, str, lat, ts.Procs)}
					}
					if i > 0 && ts.Procs <= ss[i-1].Procs {
						return &ModelError{Model: m.name,
							Msg: fmt.Sprintf("duplicate or unsorted entry for %v/%v/%v procs %d", pat, str, lat, ts.Procs)}
					}
					if !costOK(ts.Startup) || !costOK(ts.PerByte) {
						return &ModelError{Model: m.name,
							Msg: fmt.Sprintf("training set %v/%v/%v procs %d has invalid costs", pat, str, lat, ts.Procs)}
					}
				}
			}
		}
	}
	for _, k := range opKinds {
		for _, dt := range []fortran.DataType{fortran.Real, fortran.Double} {
			t, ok := m.ops[opKey{k, dt}]
			if !ok {
				return &ModelError{Model: m.name,
					Msg: fmt.Sprintf("missing op time for %s/%v", opNames[k], dt)}
			}
			if !costOK(t) {
				return &ModelError{Model: m.name,
					Msg: fmt.Sprintf("invalid op time for %s/%v", opNames[k], dt)}
			}
		}
	}
	return nil
}

// costOK reports a finite, non-negative cost.
func costOK(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Sets returns all training sets (for inspection and tests).
func (m *Model) Sets() []TrainingSet {
	var out []TrainingSet
	for _, ss := range m.sets {
		out = append(out, ss...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		if a.Stride != b.Stride {
			return a.Stride < b.Stride
		}
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		return a.Procs < b.Procs
	})
	return out
}

// OpTime returns the time of one operation in µs.
func (m *Model) OpTime(op OpKind, dt fortran.DataType) float64 {
	if dt == fortran.Integer {
		dt = fortran.Real // integer ops priced as single precision
	}
	return m.ops[opKey{op, dt}]
}

// MsgTime returns the cost in µs of one communication event moving
// bytes of payload under the given pattern, processor count, stride
// class and latency regime.  Processor counts between table entries
// interpolate log-linearly; counts outside the table clamp.
func (m *Model) MsgTime(pat Pattern, procs, bytes int, stride Stride, lat Latency) float64 {
	if procs < 2 {
		return 0
	}
	ss := m.sets[setKey{pat, stride, lat}]
	if len(ss) == 0 {
		panic(fmt.Sprintf("machine: no training sets for %v/%v/%v", pat, stride, lat))
	}
	startup, perByte := lookup(ss, procs)
	return startup + float64(bytes)*perByte
}

func lookup(ss []TrainingSet, procs int) (startup, perByte float64) {
	if procs <= ss[0].Procs {
		return ss[0].Startup, ss[0].PerByte
	}
	last := ss[len(ss)-1]
	if procs >= last.Procs {
		return last.Startup, last.PerByte
	}
	for i := 1; i < len(ss); i++ {
		if procs <= ss[i].Procs {
			lo, hi := ss[i-1], ss[i]
			if procs == hi.Procs {
				return hi.Startup, hi.PerByte
			}
			// Log-linear interpolation on the processor count.
			t := (math.Log2(float64(procs)) - math.Log2(float64(lo.Procs))) /
				(math.Log2(float64(hi.Procs)) - math.Log2(float64(lo.Procs)))
			return lo.Startup + t*(hi.Startup-lo.Startup),
				lo.PerByte + t*(hi.PerByte-lo.PerByte)
		}
	}
	return last.Startup, last.PerByte
}

// params are the base characteristics a table is synthesized from.
type params struct {
	name string
	// Message start-up in µs: high-latency (unoverlapped) and
	// low-latency (pipelined, partially overlapped) regimes.
	startupHigh, startupLow float64
	// Per-byte transfer time in µs (link bandwidth).
	perByte float64
	// Per-byte packing cost for non-unit stride buffering, and the
	// extra start-up for allocating the buffer.
	packPerByte, packStartup float64
	// Per-operation times in µs: [addsub, mul, div, sqrt, intrinsic,
	// pow, load, store] for double precision; single precision scales
	// by spFactor.
	opsDouble [8]float64
	spFactor  float64
}

// procGrid is the set of processor counts with synthesized entries.
var procGrid = []int{2, 4, 8, 16, 32, 64, 128}

// build synthesizes the full training-set table from base parameters.
func build(p params) *Model {
	m := &Model{
		name: p.name,
		ops:  map[opKey]float64{},
		sets: map[setKey][]TrainingSet{},
	}
	kinds := []OpKind{OpAddSub, OpMul, OpDiv, OpSqrt, OpIntrinsic, OpPow, OpLoad, OpStore}
	for i, k := range kinds {
		m.ops[opKey{k, fortran.Double}] = p.opsDouble[i]
		m.ops[opKey{k, fortran.Real}] = p.opsDouble[i] * p.spFactor
	}
	for _, pat := range []Pattern{Shift, SendRecv, Broadcast, Reduction, Transpose} {
		for _, str := range []Stride{UnitStride, NonUnitStride} {
			for _, lat := range []Latency{HighLatency, LowLatency} {
				for _, procs := range procGrid {
					ts := synthesize(p, pat, procs, str, lat)
					key := setKey{pat, str, lat}
					m.sets[key] = append(m.sets[key], ts)
					m.numSets++
				}
			}
		}
	}
	for key := range m.sets {
		ss := m.sets[key]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Procs < ss[j].Procs })
		m.sets[key] = ss
	}
	return m
}

// synthesize computes one training-set entry.  Collectives use
// hypercube log-step schedules; non-unit stride adds packing costs.
func synthesize(p params, pat Pattern, procs int, str Stride, lat Latency) TrainingSet {
	startup := p.startupHigh
	if lat == LowLatency {
		startup = p.startupLow
	}
	perByte := p.perByte
	if str == NonUnitStride {
		startup += p.packStartup
		perByte += p.packPerByte
	}
	logP := math.Log2(float64(procs))
	ts := TrainingSet{Pattern: pat, Procs: procs, Stride: str, Latency: lat}
	switch pat {
	case Shift, SendRecv:
		// All-processor shifts and single pairs cost one message each.
		ts.Startup, ts.PerByte = startup, perByte
	case Broadcast:
		// log2(P) hypercube steps, full payload each step.
		ts.Startup, ts.PerByte = logP*startup, logP*perByte
	case Reduction:
		// log2(P) combine steps; combining adds one flop-equivalent
		// per 8 bytes per step.
		combine := p.opsDouble[0] / 8
		ts.Startup, ts.PerByte = logP*startup, logP*(perByte+combine)
	case Transpose:
		// All-to-all personalized exchange, direct algorithm: P-1
		// pairwise rounds, each moving 1/P of the local payload.
		// Payload "bytes" is the per-processor volume.
		ts.Startup, ts.PerByte = float64(procs-1)*startup, perByte
	}
	return ts
}

// The built-in models are synthesized once and shared by every caller.

// IPSC860 returns the synthesized Intel iPSC/860 model: ≈75 µs
// unoverlapped message start-up, ≈35 µs overlapped, ≈2.8 MB/s links,
// buffering at ≈0.15 µs/byte, and if77 -O4-class scalar times for the
// 40 MHz i860.
func IPSC860() *Model { return ipsc860 }

var ipsc860 = build(params{
	name:        "iPSC/860",
	startupHigh: 75,
	startupLow:  48,
	perByte:     0.36, // ≈2.8 MB/s
	packPerByte: 0.15,
	packStartup: 20,
	// addsub, mul, div, sqrt, intrinsic, pow, load, store (µs, DP)
	opsDouble: [8]float64{0.15, 0.15, 0.95, 1.70, 3.50, 3.00, 0.05, 0.05},
	spFactor:  0.80,
})

// Paragon returns the synthesized Intel Paragon XP/S model: lower
// latency, an order of magnitude more bandwidth, i860 XP nodes.
func Paragon() *Model { return paragon }

var paragon = build(params{
	name:        "Paragon",
	startupHigh: 50,
	startupLow:  22,
	perByte:     0.012, // ≈85 MB/s
	packPerByte: 0.08,
	packStartup: 12,
	opsDouble:   [8]float64{0.11, 0.11, 0.75, 1.30, 2.80, 2.40, 0.04, 0.04},
	spFactor:    0.80,
})

// Cluster2020 returns a synthesized modern commodity cluster
// (RDMA-class interconnect, superscalar nodes): ≈2 µs message
// start-up, ≈10 GB/s links, sub-nanosecond flops.  It exists to show
// how the framework's machine parameterization (§1) moves conclusions:
// with start-up five hundred times cheaper relative to computation,
// fine-grain pipelines stop being catastrophic and remapping is nearly
// free, so layout choices that were dramatic on the iPSC/860 become
// ties.
func Cluster2020() *Model { return cluster2020 }

var cluster2020 = build(params{
	name:        "Cluster2020",
	startupHigh: 2.0,
	startupLow:  1.2,
	perByte:     0.0001, // ≈10 GB/s
	packPerByte: 0.0004,
	packStartup: 0.5,
	// addsub, mul, div, sqrt, intrinsic, pow, load, store (µs, DP)
	opsDouble: [8]float64{0.0008, 0.0008, 0.004, 0.006, 0.02, 0.015, 0.0005, 0.0005},
	spFactor:  0.70,
})
