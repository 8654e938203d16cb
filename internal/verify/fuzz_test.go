package verify_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/verify"
)

// fuzzProblem decodes a small pure-binary 0-1 problem from fuzz bytes,
// mirroring the decoder of the ilp package's FuzzSolve so the two fuzz
// targets explore the same input space from opposite directions: ilp
// checks the solver against the oracle, this target checks that the
// certificates accept every honest solve and reject a corrupted one.
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

// FuzzVerify drives arbitrary small 0-1 problems through a certifying
// solve: the certificates must accept every honest result (no false
// alarms), and must reject the same result once its objective or its
// incumbent is corrupted (no misses).
func FuzzVerify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 10, 250, 5, 2, 1, 1, 3, 0, 4})
	f.Add([]byte{4, 1, 2, 3, 4, 5, 2, 200, 100, 50, 25, 12, 1, 30, 7, 7, 7, 7, 7, 2, 9})
	f.Add([]byte{0, 128, 1, 255, 0, 0, 1})
	f.Add([]byte{2, 5, 251, 2, 1, 1, 0, 1, 3, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, binaries := fuzzProblem(data)
		res, err := (&ilp.Solver{Certify: verify.CheckILP, CertifyLP: verify.CheckLP}).Solve(p, binaries, nil)
		if err != nil {
			var ve *verify.Error
			if errors.As(err, &ve) {
				t.Fatalf("honest solve rejected by its own certificate: %v", ve)
			}
			t.Fatalf("Solve: %v", err)
		}
		if res.X == nil {
			return
		}
		// A corrupted objective must be caught: the perturbation clears
		// the relative tolerance by construction (mirrors fault.Corrupt's
		// fixed-point-free shape).
		corrupted := *res
		corrupted.Objective += 1 + 0.5*math.Abs(corrupted.Objective)
		if verify.CheckILP(p, binaries, &corrupted) == nil {
			t.Fatalf("corrupted objective %g (honest %g) passed certification",
				corrupted.Objective, res.Objective)
		}
		// A fractional incumbent must be caught.
		frac := *res
		frac.X = append([]float64(nil), res.X...)
		frac.X[binaries[0]] = 0.5
		if verify.CheckILP(p, binaries, &frac) == nil {
			t.Fatal("fractional incumbent passed certification")
		}
	})
}
