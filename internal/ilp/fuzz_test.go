package ilp

import (
	"math"
	"testing"
	"time"

	"repro/internal/lp"
)

// fuzzProblem decodes a small pure-binary 0-1 problem from fuzz bytes:
// up to 5 binaries with int8-derived objective coefficients and up to 4
// constraints with int8 coefficients, a relation and an int8 RHS.
func fuzzProblem(data []byte) (*lp.Problem, []int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	k := 1 + int(next())%5
	p := lp.NewProblem()
	binaries := make([]int, k)
	for i := range binaries {
		binaries[i] = p.AddBinary(float64(int8(next())))
	}
	ncons := int(next()) % 4
	for c := 0; c < ncons; c++ {
		terms := make([]lp.Term, 0, k)
		for _, v := range binaries {
			if coeff := float64(int8(next())); coeff != 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: coeff})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := []lp.Relation{lp.LE, lp.EQ, lp.GE}[int(next())%3]
		p.AddConstraint(terms, rel, float64(int8(next())))
	}
	return p, binaries
}

// FuzzSolve cross-checks branch and bound against the exhaustive oracle
// on arbitrary small 0-1 problems, and asserts the budget knobs are
// respected: maxNodes=1 visits at most one node, a 1 ns Deadline
// returns without error, and no input makes the solver panic.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 250, 5, 2, 1, 1, 3, 0, 4})
	f.Add([]byte{4, 1, 2, 3, 4, 5, 2, 200, 100, 50, 25, 12, 1, 30, 7, 7, 7, 7, 7, 2, 9})
	f.Add([]byte{0, 128, 1, 255, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, binaries := fuzzProblem(data)
		s := &Solver{}
		got, err := s.Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		want, err := SolveExhaustive(p, binaries)
		if err != nil {
			t.Fatalf("SolveExhaustive: %v", err)
		}
		if got.Status != want.Status {
			t.Fatalf("status %v, exhaustive %v", got.Status, want.Status)
		}
		if got.Status == Optimal {
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("objective %v, exhaustive %v", got.Objective, want.Objective)
			}
			if !satisfies(p, got.X) {
				t.Fatalf("incumbent violates constraints: %v", got.X)
			}
			if got.Gap() != 0 {
				t.Fatalf("optimal result has gap %v", got.Gap())
			}
		}

		// Warm vs cold: the warm-started default above must agree with
		// coldStart mode (fresh two-phase solve per node, no reduced-cost
		// fixing) on status, objective and feasibility.  Any divergence
		// found here is a warm-start soundness bug; keep the input in the
		// seed corpus.
		coldRun, err := (&Solver{coldStart: true}).Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("Solve(coldStart): %v", err)
		}
		if got.Status != coldRun.Status {
			t.Fatalf("warm status %v, cold-start %v", got.Status, coldRun.Status)
		}
		if got.Status == Optimal {
			if math.Abs(got.Objective-coldRun.Objective) > 1e-6 {
				t.Fatalf("warm objective %v, cold-start %v", got.Objective, coldRun.Objective)
			}
			if !satisfies(p, coldRun.X) {
				t.Fatalf("cold-start incumbent violates constraints: %v", coldRun.X)
			}
		}
		if got.LPWarm+got.LPCold != got.Nodes || coldRun.LPWarm != 0 {
			t.Fatalf("node accounting: warm %d+%d != %d, or cold-start warmed %d",
				got.LPWarm, got.LPCold, got.Nodes, coldRun.LPWarm)
		}

		// Presolve off is the pure branch-and-bound reference: the
		// fixings are implied constraints, so disabling them cannot move
		// the answer.
		noPre, err := (&Solver{noPresolve: true}).Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("Solve(noPresolve): %v", err)
		}
		if got.Status != noPre.Status {
			t.Fatalf("presolved status %v, no-presolve %v", got.Status, noPre.Status)
		}
		if got.Status == Optimal && math.Abs(got.Objective-noPre.Objective) > 1e-6 {
			t.Fatalf("presolved objective %v, no-presolve %v", got.Objective, noPre.Objective)
		}
		if noPre.Presolved != 0 {
			t.Fatalf("noPresolve fixed %d binaries", noPre.Presolved)
		}

		// Budget knobs: a 1-node cap visits at most one node and still
		// reports a coherent status; any incumbent remains feasible.
		limited, err := (&Solver{maxNodes: 1}).Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("Solve(maxNodes=1): %v", err)
		}
		if limited.Nodes > 1 {
			t.Fatalf("maxNodes=1 explored %d nodes", limited.Nodes)
		}
		if limited.X != nil && !satisfies(p, limited.X) {
			t.Fatalf("limited incumbent violates constraints: %v", limited.X)
		}
		if limited.Status.Limited() && limited.X != nil && limited.Gap() > 0 {
			if limited.Objective+1e-6 < want.Objective {
				t.Fatalf("incumbent %v better than exhaustive optimum %v", limited.Objective, want.Objective)
			}
		}

		// A nanosecond budget must stop quickly without error.
		timed, err := (&Solver{Deadline: time.Now().Add(time.Nanosecond)}).Solve(p, binaries, nil)
		if err != nil {
			t.Fatalf("Solve(1ns deadline): %v", err)
		}
		if timed.X != nil && !satisfies(p, timed.X) {
			t.Fatalf("timed incumbent violates constraints: %v", timed.X)
		}
	})
}
