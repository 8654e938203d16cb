// Package spmd lowers a (phase, candidate layout) pair into
// per-processor operation streams — the stand-in for the SPMD node
// programs the Fortran D prototype compiler generated for the paper's
// measurements (§4).
//
// Unlike the estimator (packages compmodel/execmodel), the lowering is
// per-processor exact: block remainders, boundary processors that skip
// sends or receives, pipeline fill and drain, and per-message occupancy
// all appear explicitly, so the simulated "measured" times diverge from
// the estimates the way real measurements diverged from the paper's
// estimates.
package spmd

import (
	"math"

	"repro/internal/compmodel"
	"repro/internal/dep"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/remap"
)

// Op is one operation of a processor's stream.
type Op interface{ isOp() }

// Compute occupies the processor for T microseconds.
type Compute struct{ T float64 }

// Send transmits Bytes to processor To; the sender is occupied for the
// send overhead and the message arrives after the full transfer time.
type Send struct {
	To     int
	Bytes  int
	Stride machine.Stride
}

// Recv blocks until the next message from processor From arrives.
type Recv struct{ From int }

func (Compute) isOp() {}
func (Send) isOp()    {}
func (Recv) isOp()    {}

// Program is a set of per-processor operation streams.
type Program struct {
	Procs   int
	Streams [][]Op
}

func newProgram(procs int) *Program {
	return &Program{Procs: procs, Streams: make([][]Op, procs)}
}

func (p *Program) add(proc int, ops ...Op) {
	p.Streams[proc] = append(p.Streams[proc], ops...)
}

// LowerPhase lowers one execution of a phase under a candidate layout
// into processor streams.
func LowerPhase(u *fortran.Unit, pi *dep.PhaseInfo, l *layout.Layout, plan *compmodel.Plan,
	dt fortran.DataType, m *machine.Model) *Program {
	procs := l.Procs()
	prog := newProgram(procs)
	work := perProcWork(u, pi, l, dt, m)

	// Boundary-exchange and collective events first (the compiler
	// places vectorized messages at the phase boundary), then the
	// computation — pipelined when a cross-processor dependence exists.
	for _, e := range plan.Events {
		if e.Level >= 0 && e.Pattern == machine.Shift && feedsPipeline(plan, e) {
			continue // folded into the pipeline stages below
		}
		lowerEvent(prog, e)
	}

	if len(plan.CrossDeps) == 0 {
		for p := 0; p < procs; p++ {
			if work[p] > 0 {
				prog.add(p, Compute{T: work[p]})
			}
		}
		return prog
	}

	// Pipeline: the binding dependence defines stages; each processor
	// receives its predecessor's boundary, computes a chunk, and sends
	// its own boundary onward.
	bind := plan.CrossDeps[0]
	for _, cd := range plan.CrossDeps[1:] {
		if cd.Level < bind.Level {
			bind = cd
		}
	}
	stages := int(math.Max(bind.OuterTrips, 1))
	stageBytes := bind.StageBytes
	stride := pipelineStride(plan, bind)
	for p := 0; p < procs; p++ {
		chunk := work[p] / float64(stages)
		for s := 0; s < stages; s++ {
			if p > 0 {
				prog.add(p, Recv{From: p - 1})
			}
			if chunk > 0 {
				prog.add(p, Compute{T: chunk})
			}
			if p < procs-1 {
				prog.add(p, Send{To: p + 1, Bytes: stageBytes, Stride: stride})
			}
		}
	}
	return prog
}

// feedsPipeline reports whether a shift event belongs to a pipeline.
func feedsPipeline(plan *compmodel.Plan, e compmodel.Event) bool {
	for _, cd := range plan.CrossDeps {
		if cd.Dep.Array == e.Array && cd.Level == e.Level {
			return true
		}
	}
	return false
}

func pipelineStride(plan *compmodel.Plan, bind compmodel.CrossDep) machine.Stride {
	for _, e := range plan.Events {
		if e.Array == bind.Dep.Array && e.Level == bind.Level && e.Pattern == machine.Shift {
			return e.Stride
		}
	}
	return machine.UnitStride
}

// lowerEvent emits the message ops of one non-pipelined event.
func lowerEvent(prog *Program, e compmodel.Event) {
	procs := prog.Procs
	reps := int(math.Max(math.Round(e.Count), 1))
	if e.Count < 0.5 {
		// Guarded events with low probability round to their expected
		// number of occurrences (0 drops the event entirely).
		if e.Count <= 0 {
			return
		}
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		switch e.Pattern {
		case machine.Shift:
			dir := e.Dir
			if dir == 0 {
				dir = 1
			}
			// Every processor sends its boundary to the neighbor in the
			// data-flow direction; edge processors skip.
			for p := 0; p < procs; p++ {
				if to := p + dir; to >= 0 && to < procs {
					prog.add(p, Send{To: to, Bytes: e.Bytes, Stride: e.Stride})
				}
			}
			for p := 0; p < procs; p++ {
				if from := p - dir; from >= 0 && from < procs {
					prog.add(p, Recv{From: from})
				}
			}
		case machine.Broadcast:
			lowerBroadcast(prog, 0, e.Bytes, e.Stride)
		case machine.Reduction:
			lowerReduction(prog, e.Bytes)
		case machine.Transpose:
			lowerAllToAll(prog, e.Bytes)
		}
	}
}

// lowerBroadcast emits a hypercube broadcast from root.
func lowerBroadcast(prog *Program, root, bytes int, stride machine.Stride) {
	procs := prog.Procs
	// Relabel so the root is rank 0 in the tree.
	abs := func(r int) int { return (r + root) % procs }
	for step := 1; step < procs; step *= 2 {
		for r := 0; r < step && r < procs; r++ {
			partner := r + step
			if partner >= procs {
				continue
			}
			prog.add(abs(r), Send{To: abs(partner), Bytes: bytes, Stride: stride})
			prog.add(abs(partner), Recv{From: abs(r)})
		}
	}
}

// lowerReduction emits a hypercube combine to processor 0.
func lowerReduction(prog *Program, bytes int) {
	procs := prog.Procs
	for step := 1; step < procs; step *= 2 {
		for r := 0; r+step < procs; r += 2 * step {
			prog.add(r+step, Send{To: r, Bytes: bytes, Stride: machine.UnitStride})
			prog.add(r, Recv{From: r + step})
		}
	}
}

// lowerAllToAll emits an all-to-all personalized exchange where each
// processor holds bytes of data to redistribute.
func lowerAllToAll(prog *Program, bytes int) {
	procs := prog.Procs
	if procs < 2 {
		return
	}
	per := bytes / procs
	if per == 0 {
		per = 1
	}
	for round := 1; round < procs; round++ {
		for p := 0; p < procs; p++ {
			prog.add(p, Send{To: (p + round) % procs, Bytes: per, Stride: machine.NonUnitStride})
		}
		for p := 0; p < procs; p++ {
			prog.add(p, Recv{From: (p - round + procs) % procs})
		}
	}
}

// LowerRemap lowers the redistribution of the named arrays between two
// layouts: replicated sources need no messages, newly replicated
// targets all-gather via a broadcast tree, and distributed-to-
// distributed transitions run an all-to-all personalized exchange of
// each array's per-processor share.
func LowerRemap(from, to *layout.Layout, arrays map[string]*fortran.Array, names []string) *Program {
	procs := from.Procs()
	if p := to.Procs(); p > procs {
		procs = p
	}
	prog := newProgram(procs)
	for _, name := range names {
		arr := arrays[name]
		if arr == nil {
			continue
		}
		switch remap.Classify(from, to, name) {
		case remap.AllGather:
			lowerBroadcast(prog, 0, arr.Bytes(), machine.UnitStride)
		case remap.AllToAll:
			lowerAllToAll(prog, arr.Bytes()/procs)
		}
	}
	return prog
}

// perProcWork prices each processor's share of the phase computation,
// with exact block remainders (boundary processors do less work — the
// effect the estimator deliberately ignores).
func perProcWork(u *fortran.Unit, pi *dep.PhaseInfo, l *layout.Layout, dt fortran.DataType, m *machine.Model) []float64 {
	procs := l.Procs()
	work := make([]float64, procs)
	for _, ai := range pi.Assigns {
		per := opTime(ai.Ops, dt, m) * ai.Guard
		if ai.LHS == nil && !ai.IsReduction {
			// Replicated scalar statement: everyone executes.
			for p := range work {
				work[p] += per * ai.Iters
			}
			continue
		}
		// Determine the partitioned loop (if any) and each processor's
		// share of its trips.
		partVar, tdim, lo := partitionInfo(ai, l)
		if partVar == "" {
			if ai.IsReduction {
				// Reduction over distributed reads: split evenly with
				// remainder to the low processors.
				for p := range work {
					work[p] += per * ai.Iters / float64(procs)
				}
				continue
			}
			for p := range work {
				work[p] += per * ai.Iters
			}
			continue
		}
		// Trips of the partitioned loop per processor.
		var partTrip int
		rest := 1.0
		for _, lp := range ai.Loops {
			if lp.Var == partVar {
				partTrip = lp.Trip
			} else {
				rest *= float64(lp.Trip)
			}
		}
		n := l.Template.Extents[tdim]
		bs := l.BlockSize(tdim)
		for p := 0; p < procs; p++ {
			// The loop iterates [lo, lo+partTrip); intersect with the
			// processor's block [p*bs+1, (p+1)*bs] in 1-based indices.
			blockLo := p*bs + 1
			blockHi := (p + 1) * bs
			if blockHi > n {
				blockHi = n
			}
			loopLo, loopHi := lo, lo+partTrip-1
			span := intersect(loopLo, loopHi, blockLo, blockHi)
			work[p] += per * float64(span) * rest
		}
	}
	return work
}

// partitionInfo finds the loop variable that owner-computes partitions
// the statement, the template dimension it spans, and the loop's
// 1-based lower bound.
func partitionInfo(ai *dep.AssignInfo, l *layout.Layout) (partVar string, tdim, lo int) {
	if ai.LHS == nil {
		return "", 0, 0
	}
	for dim, sub := range ai.LHS.Subs {
		if !sub.Single || !l.IsDistributed(ai.LHS.Array.Name, dim) {
			continue
		}
		for _, lp := range ai.Loops {
			if lp.Var == sub.Var {
				lo := 1
				if lp.LoOK {
					lo = lp.Lo
				}
				if lp.Step < 0 {
					// Descending loop: the range still spans
					// [hi-trips+1, hi]; normalize to ascending bounds.
					lo = lo - lp.Trip + 1
					if lo < 1 {
						lo = 1
					}
				}
				return sub.Var, l.Align.Of(ai.LHS.Array.Name, dim), lo
			}
		}
	}
	return "", 0, 0
}

func intersect(a1, a2, b1, b2 int) int {
	lo, hi := a1, a2
	if b1 > lo {
		lo = b1
	}
	if b2 < hi {
		hi = b2
	}
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// opTime prices one execution of a statement.
func opTime(o dep.OpCount, dt fortran.DataType, m *machine.Model) float64 {
	return float64(o.AddSub)*m.OpTime(machine.OpAddSub, dt) +
		float64(o.Mul)*m.OpTime(machine.OpMul, dt) +
		float64(o.Div)*m.OpTime(machine.OpDiv, dt) +
		float64(o.Sqrt)*m.OpTime(machine.OpSqrt, dt) +
		float64(o.Intrinsic)*m.OpTime(machine.OpIntrinsic, dt) +
		float64(o.Pow)*m.OpTime(machine.OpPow, dt) +
		float64(o.Loads)*m.OpTime(machine.OpLoad, dt) +
		float64(o.Stores)*m.OpTime(machine.OpStore, dt)
}
