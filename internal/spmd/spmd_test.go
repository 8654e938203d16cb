package spmd_test

import (
	"testing"

	"repro/internal/compmodel"
	"repro/internal/dep"
	"repro/internal/fortran"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/spmd"
)

func lower(t *testing.T, src string, tdim, procs int) (*spmd.Program, *compmodel.Plan) {
	t.Helper()
	u, err := fortran.Analyze(fortran.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	pi := dep.Analyze(u, u.Prog.Body, 100)
	tpl := layout.Template{Extents: u.TemplateExtents()}
	a := layout.NewAlignment()
	var dt fortran.DataType
	for name, arr := range u.Arrays {
		dims := make([]int, arr.Rank())
		for k := range dims {
			dims[k] = k
		}
		a.Set(name, dims)
		dt = arr.Type
	}
	dd := make([]layout.DimDist, tpl.Rank())
	for k := range dd {
		dd[k] = layout.DimDist{Kind: layout.Star, Procs: 1}
	}
	dd[tdim] = layout.DimDist{Kind: layout.Block, Procs: procs}
	l := layout.MustLayout(tpl, a, dd)
	plan := compmodel.Analyze(u, pi, l, compmodel.Options{})
	m := machine.IPSC860()
	return spmd.LowerPhase(u, pi, l, plan, dt, m), plan
}

const localPhase = `
program p
  parameter (n = 64)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
end
`

func TestLocalPhaseComputeOnly(t *testing.T) {
	prog, _ := lower(t, localPhase, 0, 8)
	for p, stream := range prog.Streams {
		for _, op := range stream {
			if _, ok := op.(spmd.Compute); !ok {
				t.Errorf("proc %d: unexpected op %T in local phase", p, op)
			}
		}
	}
}

func TestBlockRemainderWork(t *testing.T) {
	// 64 rows over 8 procs divide evenly: equal work.  Over 7: last
	// processor gets the short block (boundary effect).
	prog, _ := lower(t, localPhase, 0, 8)
	var first float64
	for p, stream := range prog.Streams {
		c := stream[0].(spmd.Compute)
		if p == 0 {
			first = c.T
		} else if c.T != first {
			t.Errorf("proc %d work %v != %v on even split", p, c.T, first)
		}
	}
	prog7, _ := lower(t, localPhase, 0, 7)
	last := prog7.Streams[6][0].(spmd.Compute)
	if last.T >= first {
		t.Errorf("remainder processor should do less work: %v vs %v", last.T, first)
	}
}

const pipePhase = `
program p
  parameter (n = 32)
  real x(n,n), a(n,n)
  do j = 1, n
    do i = 2, n
      x(i,j) = x(i,j) - x(i-1,j)*a(i,j)
    end do
  end do
end
`

func TestPipelineShape(t *testing.T) {
	prog, plan := lower(t, pipePhase, 0, 4)
	if len(plan.CrossDeps) != 1 {
		t.Fatalf("cross deps = %v", plan.CrossDeps)
	}
	// Processor 0 never receives; processor 3 never sends; middle
	// processors do both, 32 stages each.
	counts := func(p int) (sends, recvs, computes int) {
		for _, op := range prog.Streams[p] {
			switch op.(type) {
			case spmd.Send:
				sends++
			case spmd.Recv:
				recvs++
			case spmd.Compute:
				computes++
			}
		}
		return
	}
	s0, r0, _ := counts(0)
	if r0 != 0 || s0 != 32 {
		t.Errorf("proc 0: %d sends %d recvs, want 32/0", s0, r0)
	}
	s3, r3, _ := counts(3)
	if s3 != 0 || r3 != 32 {
		t.Errorf("proc 3: %d sends %d recvs, want 0/32", s3, r3)
	}
	s1, r1, c1 := counts(1)
	if s1 != 32 || r1 != 32 || c1 != 32 {
		t.Errorf("proc 1: %d/%d/%d, want 32/32/32", s1, r1, c1)
	}
	// The lowered pipeline must simulate without deadlock.
	if _, err := sim.Run(prog, machine.IPSC860()); err != nil {
		t.Fatal(err)
	}
}

const stencilPhase = `
program p
  parameter (n = 64)
  real unew(n,n), u(n,n)
  do j = 1, n
    do i = 2, n-1
      unew(i,j) = u(i-1,j) + u(i+1,j)
    end do
  end do
end
`

func TestStencilBoundaryProcessorsSkipMessages(t *testing.T) {
	prog, _ := lower(t, stencilPhase, 0, 8)
	// Interior processors exchange both directions; edge processors
	// only one.
	count := func(p int) (sends, recvs int) {
		for _, op := range prog.Streams[p] {
			switch op.(type) {
			case spmd.Send:
				sends++
			case spmd.Recv:
				recvs++
			}
		}
		return
	}
	s0, r0 := count(0)
	s7, r7 := count(7)
	s3, r3 := count(3)
	if s0 != 1 || r0 != 1 {
		t.Errorf("proc 0: %d sends %d recvs, want 1/1 (one direction skipped)", s0, r0)
	}
	if s7 != 1 || r7 != 1 {
		t.Errorf("proc 7: %d sends %d recvs, want 1/1", s7, r7)
	}
	if s3 != 2 || r3 != 2 {
		t.Errorf("proc 3: %d sends %d recvs, want 2/2", s3, r3)
	}
	if _, err := sim.Run(prog, machine.IPSC860()); err != nil {
		t.Fatal(err)
	}
}

func TestReductionLowering(t *testing.T) {
	src := `
program p
  parameter (n = 64)
  real x(n,n), s
  do j = 1, n
    do i = 1, n
      s = s + x(i,j)
    end do
  end do
end
`
	prog, _ := lower(t, src, 0, 8)
	// Hypercube combine: 7 messages total for 8 procs.
	sends := 0
	for _, stream := range prog.Streams {
		for _, op := range stream {
			if _, ok := op.(spmd.Send); ok {
				sends++
			}
		}
	}
	if sends != 7 {
		t.Errorf("reduction sends = %d, want 7", sends)
	}
	if _, err := sim.Run(prog, machine.IPSC860()); err != nil {
		t.Fatal(err)
	}
}

func remapLayout(tdim, procs int) *layout.Layout {
	a := layout.NewAlignment()
	a.Set("x", []int{0, 1})
	dd := []layout.DimDist{{Kind: layout.Star, Procs: 1}, {Kind: layout.Star, Procs: 1}}
	if tdim >= 0 {
		dd[tdim] = layout.DimDist{Kind: layout.Block, Procs: procs}
	}
	return layout.MustLayout(layout.Template{Extents: []int{64, 64}}, a, dd)
}

func TestLowerRemapAllToAll(t *testing.T) {
	m := machine.IPSC860()
	arr := &fortran.Array{Name: "x", Type: fortran.Double, Extents: []int{64, 64}}
	arrays := map[string]*fortran.Array{"x": arr}
	prog := spmd.LowerRemap(remapLayout(0, 4), remapLayout(1, 4), arrays, []string{"x"})
	sends := 0
	for _, stream := range prog.Streams {
		for _, op := range stream {
			if _, ok := op.(spmd.Send); ok {
				sends++
			}
		}
	}
	if sends != 4*3 {
		t.Errorf("remap sends = %d, want 12 (all-to-all)", sends)
	}
	r, err := sim.Run(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan <= 0 {
		t.Error("remap should take time")
	}
}

func TestLowerRemapReplicatedSourceFree(t *testing.T) {
	arr := &fortran.Array{Name: "x", Type: fortran.Double, Extents: []int{64, 64}}
	arrays := map[string]*fortran.Array{"x": arr}
	// Replicated -> distributed needs no messages.
	prog := spmd.LowerRemap(remapLayout(-1, 4), remapLayout(1, 4), arrays, []string{"x"})
	for _, stream := range prog.Streams {
		if len(stream) != 0 {
			t.Fatalf("replicated source should lower to nothing, got %v", stream)
		}
	}
	// Distributed -> replicated all-gathers (a broadcast tree here).
	prog2 := spmd.LowerRemap(remapLayout(0, 4), remapLayout(-1, 4), arrays, []string{"x"})
	sends := 0
	for _, stream := range prog2.Streams {
		for _, op := range stream {
			if _, ok := op.(spmd.Send); ok {
				sends++
			}
		}
	}
	if sends != 3 {
		t.Errorf("all-gather sends = %d, want 3 (tree on 4 procs)", sends)
	}
}

func TestSimulatedPipelineBeatsSequentialized(t *testing.T) {
	// The same column sweep under row layout (fine pipeline) vs column
	// layout (local, no comm) vs the row sweep under column layout
	// (sequentialized): simulate and compare shapes.
	m := machine.IPSC860()
	pipe, _ := lower(t, pipePhase, 0, 4) // fine pipeline
	loc, _ := lower(t, pipePhase, 1, 4)  // dependence local
	rPipe, err := sim.Run(pipe, m)
	if err != nil {
		t.Fatal(err)
	}
	rLoc, err := sim.Run(loc, m)
	if err != nil {
		t.Fatal(err)
	}
	if rLoc.Makespan >= rPipe.Makespan {
		t.Errorf("local (%v) should beat pipeline (%v)", rLoc.Makespan, rPipe.Makespan)
	}
}
