// Conflict example: inter-dimensional alignment conflicts and their
// optimal 0-1 resolution.
//
//	go run ./examples/conflict
//
// The program reads array b both canonically (b(i,j)) and transposed
// (b(j,i)) against the same target a, so no alignment satisfies every
// preference — the component affinity graph contains a path between
// two dimensions of one array.  The example shows the CAG, the 0-1
// problem the framework builds from it (the paper's appendix
// formulation), the optimal resolution compared with the greedy
// heuristic, and the per-phase alignment search spaces the conflict
// induces (the two-class structure behind the paper's Tomcatv result).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/align"
	"repro/internal/cag"
	"repro/internal/core"
)

const src = `
program conflict
  parameter (n = 128)
  real a(n,n), b(n,n), c(n,n)
  do it = 1, 10
    do j = 1, n
      do i = 1, n
        a(i,j) = b(i,j) + c(i,j)
      end do
    end do
    do j = 1, n
      do i = 1, n
        c(i,j) = a(i,j) + b(j,i)
      end do
    end do
  end do
end
`

func main() {
	// Hand-build the conflicting CAG of the second phase to show the
	// resolution machinery directly.
	g := cag.NewGraph()
	g.AddArray("a", 2)
	g.AddArray("b", 2)
	g.AddPreference(cag.Node{Array: "b", Dim: 0}, cag.Node{Array: "a", Dim: 0}, 8)
	g.AddPreference(cag.Node{Array: "b", Dim: 1}, cag.Node{Array: "a", Dim: 1}, 8)
	g.AddPreference(cag.Node{Array: "b", Dim: 1}, cag.Node{Array: "a", Dim: 0}, 5)
	g.AddPreference(cag.Node{Array: "b", Dim: 0}, cag.Node{Array: "a", Dim: 1}, 5)
	fmt.Println("conflicting CAG:", g)
	fmt.Println("has conflict:", g.HasConflict())

	res, err := cag.Resolve(g, 2, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n0-1 resolution: %d variables, %d constraints, %d branch-and-bound nodes\n",
		res.Stats.Vars, res.Stats.Constraints, res.Stats.BBNodes)
	fmt.Printf("optimal alignment: %v  (cut weight %.0f)\n", res.Aligned, res.CutWeight)

	gr, err := cag.ResolveGreedy(g, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy alignment:  %v  (cut weight %.0f)\n", gr.Aligned, gr.CutWeight)

	// Now the whole-program view: the tool splits the phases into two
	// conflict-free classes and imports alignments between them.
	tool, err := core.Analyze(context.Background(), core.Input{Source: src}, core.Options{Procs: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhole program: %d phases in %d alignment classes\n",
		len(tool.Phases), len(tool.Spaces.Classes))
	for _, c := range tool.Spaces.Classes {
		fmt.Printf("  class %d: phases %v, %d alignment candidates\n",
			c.ID, c.Phases, len(c.Cands))
		for _, cand := range c.Cands {
			fmt.Printf("    %-24s %v\n", cand.Origin+":", cand.Part)
		}
	}
	fmt.Printf("\nchosen layout (static — the conflict is resolved by alignment):\n%s", tool.EmitHPF())
	_ = align.Options{}
}
