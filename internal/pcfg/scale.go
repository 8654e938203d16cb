package pcfg

// The scale corpus: named generators for synthetic programs in the
// dialect the front end accepts, sized in PHASES rather than array
// extent.  The paper's benchmarks top out at a dozen phases; these
// families stress the selection machinery at 100-500 phases, where the
// dense-tableau simplex falls off the interactive cliff (ROADMAP item
// 3/4).  Two shapes, both under the elimination DP's width cap:
//
//   - stencil-deep: a straight-line pipeline of stencil sweeps whose
//     carried dependence alternates between the two grid dimensions,
//     so consecutive phases prefer conflicting layouts and every PCFG
//     edge is a live remapping decision.  The interphase layout graph
//     is a path (width 1): the elimination DP answers it with zero
//     B&B nodes.
//
//   - conflict-ring: a time-step control loop around a cycle of sweep
//     phases over a rotating array pool, every other phase accessing
//     its operand transposed (tomcatv's inter-dimensional conflict,
//     tiled around a ring).  The loop's back edge closes a cycle, so
//     the graph is not a forest but a ring (width 2): still the DP's.
//
// Generators are deterministic: same (family, phases) in, same source
// out, so content-keyed caches and golden-style comparisons work.

import (
	"fmt"
	"strings"
)

// ScaleFamily names one generated scale-corpus family.
type ScaleFamily string

const (
	// StencilDeep is the path-shaped deep stencil pipeline.
	StencilDeep ScaleFamily = "stencil-deep"
	// ConflictRing is the cycle-shaped conflicting-alignment ring.
	ConflictRing ScaleFamily = "conflict-ring"
)

// ScaleFamilies lists the corpus families in canonical order.
var ScaleFamilies = []ScaleFamily{StencilDeep, ConflictRing}

// ScaleProgram renders a member of the family with exactly `phases`
// phases (counting the initialization phase).  The supported range is
// 2..1000; the corpus proper uses 100-500.
func ScaleProgram(family ScaleFamily, phases int) (string, error) {
	if phases < 2 || phases > 1000 {
		return "", fmt.Errorf("pcfg: scale program wants 2..1000 phases, got %d", phases)
	}
	switch family {
	case StencilDeep:
		return stencilDeep(phases), nil
	case ConflictRing:
		return conflictRing(phases), nil
	}
	return "", fmt.Errorf("pcfg: unknown scale family %q", family)
}

// stencilDeep: one initialization phase, then phases-1 sweeps that
// ping-pong between u and v.  Sweep k carries its dependence on i when
// k is even (fine-grain pipeline under a row layout) and on j when k
// is odd (sequentialized under a column layout), mirroring adi's
// forward sweeps; the per-phase constant keeps statement renderings —
// and so phase content keys — distinct.
func stencilDeep(phases int) string {
	var b strings.Builder
	b.WriteString("program stencildeep\n  parameter (n = 64)\n  double precision u(n,n), v(n,n)\n")
	b.WriteString("  do j = 1, n\n    do i = 1, n\n      u(i,j) = 1.0 / (i + j)\n      v(i,j) = 1.0 / (i + j + 1)\n    end do\n  end do\n")
	for k := 0; k < phases-1; k++ {
		dst, src := "u", "v"
		if k%2 == 0 {
			dst, src = "v", "u"
		}
		c := fmt.Sprintf("0.%02d", 1+k%97)
		if k%2 == 0 {
			fmt.Fprintf(&b, "  do j = 1, n\n    do i = 2, n\n      %s(i,j) = %s(i-1,j) + %s*%s(i,j)\n    end do\n  end do\n", dst, dst, c, src)
		} else {
			fmt.Fprintf(&b, "  do j = 2, n\n    do i = 1, n\n      %s(i,j) = %s(i,j-1) + %s*%s(i,j)\n    end do\n  end do\n", dst, dst, c, src)
		}
	}
	b.WriteString("end\n")
	return b.String()
}

// conflictRing: one initialization phase, then a niter time-step
// control loop (iter never subscripts, so it is not a phase) whose
// body is phases-1 sweeps over a four-array pool.  Odd phases read
// their operand transposed, planting tomcatv's inter-dimensional
// alignment conflict on every other ring edge; the control loop's back
// edge closes the cycle that disqualifies the tree route.
func conflictRing(phases int) string {
	pool := []string{"a", "b", "c", "d"}
	var b strings.Builder
	b.WriteString("program conflictring\n  parameter (n = 64, niter = 10)\n  double precision a(n,n), b(n,n), c(n,n), d(n,n)\n")
	b.WriteString("  do j = 1, n\n    do i = 1, n\n      a(i,j) = 1.0 / (i + j)\n      b(i,j) = 2.0 / (i + j)\n      c(i,j) = 3.0 / (i + j)\n      d(i,j) = 4.0 / (i + j)\n    end do\n  end do\n")
	b.WriteString("  do iter = 1, niter\n")
	for k := 0; k < phases-1; k++ {
		dst := pool[k%len(pool)]
		src := pool[(k+1)%len(pool)]
		idx := "i,j"
		if k%2 == 1 {
			idx = "j,i"
		}
		c := fmt.Sprintf("0.%02d", 1+k%97)
		fmt.Fprintf(&b, "    do j = 1, n\n      do i = 1, n\n        %s(i,j) = %s(i,j) + %s*%s(%s)\n      end do\n    end do\n", dst, dst, c, src, idx)
	}
	b.WriteString("  end do\nend\n")
	return b.String()
}
