// Package remap prices dynamic data remapping between candidate
// layouts.
//
// The framework allows remapping only on PCFG edges (§2.1); the cost of
// an edge between two selected candidate layouts is the cost of
// redistributing every array whose placement differs.  Three cases
// arise:
//
//   - the array is replicated under the source layout: every processor
//     already holds all of it, so adopting any new placement is free;
//   - the array becomes replicated: an all-gather (priced as a
//     broadcast of the full array);
//   - both placements are distributed: an all-to-all personalized
//     exchange of the per-processor share (the machine model's
//     transpose training sets).
package remap

import (
	"sort"

	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/machine"
)

// Kind classifies the remapping one array needs on a transition.
type Kind int8

const (
	// NoMove: identical placement.
	NoMove Kind = iota
	// FreeCopy: the source placement is fully replicated, so the data
	// is already everywhere.
	FreeCopy
	// AllGather: the target is replicated; processors gather the
	// distributed pieces.
	AllGather
	// AllToAll: both placements distributed; personalized exchange.
	AllToAll
)

// Classify determines the remapping kind for one array.
func Classify(from, to *layout.Layout, array string) Kind {
	// The layouts answer these from the placement each derived once.
	if layout.SameArrayPlacement(from, to, array) {
		return NoMove
	}
	fromDist, toDist := len(from.DistributedDims(array)) > 0, len(to.DistributedDims(array)) > 0
	if fromDist && toDist {
		return AllToAll
	}
	// Without distributed dimensions on one side, the array may be
	// replicated there or unknown to that layout; only here does the
	// alignment itself have to say which.
	if _, ok := from.Align.Map[array]; !ok {
		return NoMove
	}
	if _, ok := to.Align.Map[array]; !ok {
		return NoMove
	}
	if !fromDist {
		return FreeCopy
	}
	return AllGather
}

// Moved returns the arrays (from the given set, sorted) whose data must
// actually travel between the two layouts (all-gather or all-to-all;
// free copies are excluded).
func Moved(from, to *layout.Layout, arrays []string) []string {
	var out []string
	for _, a := range arrays {
		if k := Classify(from, to, a); k == AllGather || k == AllToAll {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Cost estimates the time in µs to remap the given arrays from one
// layout to another.
func Cost(from, to *layout.Layout, arrays map[string]*fortran.Array, names []string, m *machine.Model) float64 {
	procs := from.Procs()
	if p2 := to.Procs(); p2 > procs {
		procs = p2
	}
	if procs < 2 {
		return 0
	}
	total := 0.0
	for _, name := range names {
		arr := arrays[name]
		if arr == nil {
			continue
		}
		switch Classify(from, to, name) {
		case AllGather:
			total += m.MsgTime(machine.Broadcast, procs, arr.Bytes(), machine.UnitStride, machine.HighLatency)
		case AllToAll:
			perProc := arr.Bytes() / procs
			total += m.MsgTime(machine.Transpose, procs, perProc, machine.NonUnitStride, machine.HighLatency)
		}
	}
	return total
}
