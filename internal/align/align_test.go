package align

import (
	"context"
	"testing"

	"repro/internal/cag"
	"repro/internal/dep"
	"repro/internal/fortran"
	"repro/internal/pcfg"
)

func setup(t *testing.T, src string) (*fortran.Unit, *pcfg.Graph, map[int]*dep.PhaseInfo) {
	t.Helper()
	u, err := fortran.Analyze(fortran.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := pcfg.Build(u, pcfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	infos := map[int]*dep.PhaseInfo{}
	for _, ph := range g.Phases {
		infos[ph.ID] = dep.Analyze(u, ph.Stmts(), 100)
	}
	return u, g, infos
}

const canonicalTwoPhase = `
program p
  parameter (n = 16)
  real a(n,n), b(n,n), c(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + c(i,j)
    end do
  end do
  do j = 1, n
    do i = 1, n
      c(i,j) = a(i,j) * b(i,j)
    end do
  end do
end
`

func TestBuildCAGCanonical(t *testing.T) {
	u, g, infos := setup(t, canonicalTwoPhase)
	cg := BuildCAG(u, infos[0], g.Phases[0].Freq)
	if cg.HasConflict() {
		t.Fatal("canonical accesses must not conflict")
	}
	// Edges: (b1,a1),(b2,a2),(c1,a1),(c2,a2) — 4 edges.
	if len(cg.Edges()) != 4 {
		t.Fatalf("edges = %v", cg.Edges())
	}
	// Weight: bytes of the read array times frequency (1): 16*16*4.
	for _, e := range cg.Edges() {
		if e.Weight != 1024 {
			t.Errorf("edge %v weight = %v, want 1024", e, e.Weight)
		}
		// Direction: from the read array (owner-computes source).
		if e.From.Array == "a" && e.To.Array != "a" {
			t.Errorf("edge %v should flow toward the written array", e)
		}
	}
	// The partitioning pairs up corresponding dimensions.
	p := cg.Partitioning()
	if p.NumParts() != 2 {
		t.Errorf("partitioning = %v, want 2 parts", p)
	}
}

func TestBuildCAGOppositeFlowsAddWeight(t *testing.T) {
	// Phase writes a from b and b from a: directions conflict, so the
	// edge weight accumulates and direction flips (§3.1).
	src := `
program p
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j)
      b(i,j) = a(i,j)
    end do
  end do
end
`
	u, g, infos := setup(t, src)
	cg := BuildCAG(u, infos[0], g.Phases[0].Freq)
	for _, e := range cg.Edges() {
		if e.Weight != 2048 {
			t.Errorf("edge %v weight = %v, want 2048 (flipped once)", e, e.Weight)
		}
	}
}

func TestSingleClassSingleCandidate(t *testing.T) {
	u, g, infos := setup(t, canonicalTwoPhase)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Classes) != 1 {
		t.Fatalf("classes = %d, want 1 (no conflicts)", len(sp.Classes))
	}
	if len(sp.Classes[0].Cands) != 1 {
		t.Errorf("candidates = %d, want 1 (nothing to import)", len(sp.Classes[0].Cands))
	}
	for id := range infos {
		if len(sp.PerPhase[id]) != 1 {
			t.Errorf("phase %d candidates = %d, want 1", id, len(sp.PerPhase[id]))
		}
	}
	// No 0-1 solves were needed.
	if len(sp.Stats) != 0 {
		t.Errorf("stats = %v, want none", sp.Stats)
	}
}

// tomcatvLike has two phases with incompatible preferences: phase 1
// couples a and b canonically, phase 2 transposed.
const tomcatvLike = `
program p
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      a(i,j) = a(i,j) + b(j,i)
    end do
  end do
end
`

func TestConflictingPhasesSplitClasses(t *testing.T) {
	u, g, infos := setup(t, tomcatvLike)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Classes) != 2 {
		t.Fatalf("classes = %d, want 2 (transposed preference conflicts)", len(sp.Classes))
	}
	// Each class imports the other's alignment: two candidates each
	// (the paper's Tomcatv: "resulting alignment search spaces for each
	// phase had two entries").
	for _, c := range sp.Classes {
		if len(c.Cands) != 2 {
			t.Errorf("class %d candidates = %d, want 2", c.ID, len(c.Cands))
		}
	}
	for id := range infos {
		if n := len(sp.PerPhase[id]); n != 2 {
			t.Errorf("phase %d candidates = %d, want 2", id, n)
		}
	}
}

func TestImportDominanceFollowsScale(t *testing.T) {
	// With a huge import scale the imported candidate reflects the
	// source class's (transposed) preference inside the sink class.
	u, g, infos := setup(t, tomcatvLike)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{ImportScale: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	c0 := sp.Classes[0]
	if len(c0.Cands) != 2 {
		t.Fatalf("class 0 candidates = %d, want 2", len(c0.Cands))
	}
	base, imported := c0.Cands[0], c0.Cands[1]
	// The base pairs a1-b1; the import (transposed source) pairs a1-b2.
	a1, b1, b2 := cag.Node{Array: "a", Dim: 0}, cag.Node{Array: "b", Dim: 0}, cag.Node{Array: "b", Dim: 1}
	if base.Assignment[a1] != base.Assignment[b1] {
		t.Errorf("base should align a1 with b1: %v", base.Assignment)
	}
	if imported.Assignment[a1] != imported.Assignment[b2] {
		t.Errorf("import should align a1 with b2: %v", imported.Assignment)
	}
}

func TestPhaseWithIntraPhaseConflict(t *testing.T) {
	// A single phase referencing b both ways has an internal conflict
	// resolved by the 0-1 formulation before initialization.
	src := `
program p
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + b(j,i)
    end do
  end do
end
`
	u, g, infos := setup(t, src)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Stats) == 0 {
		t.Error("expected a 0-1 resolution for the intra-phase conflict")
	}
	if len(sp.Classes) != 1 {
		t.Errorf("classes = %d, want 1", len(sp.Classes))
	}
	// The heavier (duplicate-direction rules make both 1024) — either
	// way the result must be conflict-free.
	if sp.Classes[0].Cands[0].Part.HasConflict() {
		t.Error("resolved candidate still conflicts")
	}
}

func TestGreedyOptionRuns(t *testing.T) {
	u, g, infos := setup(t, tomcatvLike)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Classes) != 2 {
		t.Errorf("greedy classes = %d, want 2", len(sp.Classes))
	}
}

func TestAlignmentCoversPhaseArrays(t *testing.T) {
	u, g, infos := setup(t, canonicalTwoPhase)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range g.Phases {
		for _, cand := range sp.PerPhase[ph.ID] {
			for _, a := range ph.Arrays {
				dims, ok := cand.Align.Map[a]
				if !ok {
					t.Fatalf("phase %d candidate lacks %s", ph.ID, a)
				}
				if len(dims) != u.Arrays[a].Rank() {
					t.Errorf("alignment of %s has %d dims", a, len(dims))
				}
				seen := map[int]bool{}
				for _, td := range dims {
					if td < 0 || td >= sp.TemplateRank || seen[td] {
						t.Errorf("invalid embedding for %s: %v", a, dims)
					}
					seen[td] = true
				}
			}
		}
	}
}

func TestMixedRankEmbedding(t *testing.T) {
	src := `
program p
  parameter (n = 16)
  real a(n,n), v(n)
  do j = 1, n
    do i = 1, n
      a(i,j) = v(i)
    end do
  end do
end
`
	u, g, infos := setup(t, src)
	sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cand := sp.PerPhase[0][0]
	// v(i) pairs with a's first dimension.
	if cand.Align.Of("v", 0) != cand.Align.Of("a", 0) {
		t.Errorf("v should align with a's dim 1: %v", cand.Align)
	}
}

func TestWorkersDeterministic(t *testing.T) {
	u, g, infos := setup(t, tomcatvLike)
	ref, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		sp, err := BuildSearchSpaces(context.Background(), u, g, infos, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(sp.Stats) != len(ref.Stats) {
			t.Fatalf("workers=%d: %d stats, want %d", workers, len(sp.Stats), len(ref.Stats))
		}
		for i := range sp.Stats {
			a, b := sp.Stats[i], ref.Stats[i]
			a.Duration, b.Duration = 0, 0
			if a != b {
				t.Errorf("workers=%d: stats[%d] = %+v, want %+v", workers, i, a, b)
			}
		}
		if len(sp.Classes) != len(ref.Classes) {
			t.Fatalf("workers=%d: %d classes, want %d", workers, len(sp.Classes), len(ref.Classes))
		}
		for ci, c := range sp.Classes {
			rc := ref.Classes[ci]
			if len(c.Cands) != len(rc.Cands) {
				t.Fatalf("workers=%d: class %d has %d candidates, want %d", workers, ci, len(c.Cands), len(rc.Cands))
			}
			for k := range c.Cands {
				if c.Cands[k].Origin != rc.Cands[k].Origin {
					t.Errorf("workers=%d: class %d cand %d origin %q, want %q",
						workers, ci, k, c.Cands[k].Origin, rc.Cands[k].Origin)
				}
				if !c.Cands[k].Part.Equal(rc.Cands[k].Part) {
					t.Errorf("workers=%d: class %d cand %d partition differs", workers, ci, k)
				}
			}
		}
		for id := range infos {
			pc, rpc := sp.PerPhase[id], ref.PerPhase[id]
			if len(pc) != len(rpc) {
				t.Fatalf("workers=%d: phase %d has %d candidates, want %d", workers, id, len(pc), len(rpc))
			}
			for k := range pc {
				if pc[k].Origin != rpc[k].Origin || !sameAlignment(pc[k].Align, rpc[k].Align) {
					t.Errorf("workers=%d: phase %d cand %d differs from sequential", workers, id, k)
				}
			}
		}
	}
}
