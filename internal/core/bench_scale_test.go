package core

// The scale corpus: the two generated pcfg families at 100-500 phases.
// Timings on it are measured by bench/'s scale-path and scale-ring
// workloads; BENCH_scale.json at the repo root is a frozen PR 10
// recording that nothing here regenerates (`bench pin` still reads its
// routed.total_cost_us, so it must stay byte-identical).

import (
	"context"
	"testing"

	"repro/internal/pcfg"
)

func scaleSource(t testing.TB, family pcfg.ScaleFamily, phases int) string {
	t.Helper()
	src, err := pcfg.ScaleProgram(family, phases)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestScaleCorpusSmoke runs one instance per family — stencil-deep at
// 100 phases, conflict-ring at the 200 phases the scale-ring benchmark
// workload runs — and checks the routing invariants so regressions on
// the scaling path fail fast.  Both shapes, path and ring, must be
// answered by the elimination DP without building a 0-1 model.
func TestScaleCorpusSmoke(t *testing.T) {
	for _, tc := range []struct {
		family pcfg.ScaleFamily
		phases int
	}{{pcfg.StencilDeep, 100}, {pcfg.ConflictRing, 200}} {
		res, err := Analyze(context.Background(),
			Input{Source: scaleSource(t, tc.family, tc.phases)},
			Options{Procs: 8, Verify: VerifyOn})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Phases) != tc.phases {
			t.Fatalf("%s/%d built %d phases", tc.family, tc.phases, len(res.Phases))
		}
		if sel := res.Selection; res.Solver.Route != "tree-dp" || sel.Vars != 0 || sel.BBNodes != 0 || sel.LPPivots != 0 {
			t.Fatalf("%s/%d routed to %q with %d binaries, %d nodes, %d pivots; want tree-dp with none",
				tc.family, tc.phases, res.Solver.Route, sel.Vars, sel.BBNodes, sel.LPPivots)
		}
		if cerr := res.Certify(); cerr != nil {
			t.Fatal(cerr)
		}
	}
}
