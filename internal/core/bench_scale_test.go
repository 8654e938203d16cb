package core

// The scale corpus (ROADMAP item 4 down payment): BENCH_scale.json
// records how the selection stage behaves at 100-500 phases on the two
// generated families, under three arms:
//
//   - dense:  ForceILP with the dense-tableau simplex forced — the
//     pre-sparse baseline, time-capped so the recorder terminates;
//   - sparse: ForceILP with the sparse revised simplex forced;
//   - routed: the default pipeline — the exact elimination DP (both
//     families are under its width cap).
//
// Verification is off in all three arms: Certify re-derives every cost
// outside the caches, which measures the certifier, not the solver.
// The acceptance bar (a 200-phase instance >= 10x faster than the
// dense tableau) is asserted at record time.
//
// Regenerate with:
//
//	BENCH_SCALE=1 go test ./internal/core -run TestRecordScaleBench -count=1 -timeout 1h
//
// TestScaleCorpusSmoke is the always-on (CI solver-scale job) slice:
// one instance per family, asserting the routing invariants without
// recording.

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/pcfg"
	"repro/internal/stage"
)

func scaleSource(t testing.TB, family pcfg.ScaleFamily, phases int) string {
	t.Helper()
	src, err := pcfg.ScaleProgram(family, phases)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// scaleArm is one measured (family, phases, arm) cell.
type scaleArm struct {
	ElapsedUS int64   `json:"elapsed_us"`
	SelectUS  int64   `json:"select_us"`
	LPPivots  int     `json:"lp_pivots"`
	Nodes     int     `json:"nodes"`
	LPSparse  int     `json:"lp_sparse"`
	Presolved int     `json:"presolved"`
	Route     string  `json:"route"`
	TotalCost float64 `json:"total_cost_us"`
}

type scaleRow struct {
	Family string   `json:"family"`
	Phases int      `json:"phases"`
	Dense  scaleArm `json:"dense"`
	Sparse scaleArm `json:"sparse"`
	Routed scaleArm `json:"routed"`
	// SpeedupRouted and SpeedupSparse compare selection-stage time
	// against the dense arm.
	SpeedupRouted float64 `json:"speedup_routed"`
	SpeedupSparse float64 `json:"speedup_sparse"`
}

func runScaleArm(t *testing.T, src string, opt Options) scaleArm {
	t.Helper()
	t0 := time.Now()
	res, err := Analyze(context.Background(), Input{Source: src}, opt)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	return scaleArm{
		ElapsedUS: elapsed.Microseconds(),
		SelectUS:  res.StageTimes[stage.Selection].Microseconds(),
		LPPivots:  res.Solver.LPPivots,
		Nodes:     res.Solver.Nodes,
		LPSparse:  res.Solver.LPSparse,
		Presolved: res.Solver.Presolved,
		Route:     res.Solver.Route,
		TotalCost: res.TotalCost,
	}
}

// scaleOptions builds the three arms' Options.  The dense arm gets a
// wall-clock cap so a cliff stays a data point instead of a hang; a
// capped solve returns its incumbent, which keeps the row honest (the
// recorded dense time is then a LOWER bound on the true solve time).
func scaleOptions(mode lp.Mode, cap time.Duration) Options {
	opt := Options{Procs: 8, Workers: 8, Verify: VerifyOff}
	if mode != lp.Auto {
		opt.ForceILP = true
		opt.Solver = &ilp.Solver{LPMode: mode, MaxTime: cap}
	}
	return opt
}

func TestRecordScaleBench(t *testing.T) {
	if os.Getenv("BENCH_SCALE") == "" {
		t.Skip("set BENCH_SCALE=1 to record BENCH_scale.json")
	}
	const denseCap = 2 * time.Minute
	sizes := []int{100, 200, 500}
	var rows []scaleRow
	for _, family := range pcfg.ScaleFamilies {
		for _, phases := range sizes {
			src := scaleSource(t, family, phases)
			row := scaleRow{Family: string(family), Phases: phases}
			row.Dense = runScaleArm(t, src, scaleOptions(lp.ForceDense, denseCap))
			row.Sparse = runScaleArm(t, src, scaleOptions(lp.ForceSparse, denseCap))
			row.Routed = runScaleArm(t, src, scaleOptions(lp.Auto, 0))
			if row.Routed.SelectUS > 0 {
				row.SpeedupRouted = float64(row.Dense.SelectUS) / float64(row.Routed.SelectUS)
			}
			if row.Sparse.SelectUS > 0 {
				row.SpeedupSparse = float64(row.Dense.SelectUS) / float64(row.Sparse.SelectUS)
			}
			// All three arms minimize the same objective; a disagreement
			// is a solver bug, not a measurement.
			if row.Dense.TotalCost != row.Sparse.TotalCost || row.Dense.TotalCost != row.Routed.TotalCost {
				t.Errorf("%s/%d: arms disagree on cost: dense %v sparse %v routed %v",
					family, phases, row.Dense.TotalCost, row.Sparse.TotalCost, row.Routed.TotalCost)
			}
			if row.Routed.Route != "tree-dp" || (family == pcfg.StencilDeep && row.Routed.Nodes != 0) {
				t.Errorf("%s/%d: routed arm took %q with %d nodes, want tree-dp with 0",
					family, phases, row.Routed.Route, row.Routed.Nodes)
			}
			// The acceptance bar: a 200-phase instance >= 10x faster than
			// the dense tableau.  Gated on the path family, which cleared
			// it through the DP route when the bar was set (~100x); the
			// ring family is recorded, not gated.
			if family == pcfg.StencilDeep && phases == 200 && row.SpeedupRouted < 10 {
				t.Errorf("%s/200: routed selection only %.1fx faster than dense (dense %dus, routed %dus), want >= 10x",
					family, row.SpeedupRouted, row.Dense.SelectUS, row.Routed.SelectUS)
			}
			t.Logf("%s/%d: dense %dus, sparse %dus (%.1fx), routed %dus (%.1fx, route=%s)",
				family, phases, row.Dense.SelectUS, row.Sparse.SelectUS, row.SpeedupSparse,
				row.Routed.SelectUS, row.SpeedupRouted, row.Routed.Route)
			rows = append(rows, row)
		}
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_scale.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScaleCorpusSmoke is the CI slice of the recorder: one instance per
// family — stencil-deep at 100 phases, conflict-ring at the 200 phases
// the scale-ring benchmark workload runs — routing invariants only (no
// JSON, no dense baseline sweep) so regressions on the scaling path fail
// fast.  Both shapes, path and ring, must be answered by the elimination
// DP without building a 0-1 model.
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
