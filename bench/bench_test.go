package main

import (
	"math"
	"regexp"
	"testing"

	"repro/internal/pcfg"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// One op per workload, answers checked against the pins (set-up already
// runs and checks op 0; this runs and checks the next one).
func TestOneOpPerWorkload(t *testing.T) {
	e := testEnv(t)
	for _, spec := range workloadSpecs {
		t.Run(spec.Name, func(t *testing.T) {
			w, err := newWorkload(e, spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if err := w.setup(defaultSeed); err != nil {
				t.Fatal(err)
			}
			if err := w.beginRound(0); err != nil {
				t.Fatal(err)
			}
			ans, err := w.op(0, 1, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOp(w, ans); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The layer replay must reproduce core's selection and evaluation counts
// on every shape of input the workloads use: the golden corpus, the
// extended distribution spaces, a path and a ring (smaller than the
// benchmark's, the shapes are what matters), and an edited program.
func TestReplayEqualsCore(t *testing.T) {
	e := testEnv(t)
	reqs := goldenRequests(e.corpus)
	reqs = append(reqs, sweepRequests(e.corpus)[:2]...)
	for _, sc := range []struct {
		family pcfg.ScaleFamily
		phases int
	}{{pcfg.StencilDeep, 40}, {pcfg.ConflictRing, 24}} {
		r, err := scaleRequest(sc.family, sc.phases)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	edited, _, err := pcfg.MutateProgram(sweepsProgram(16, 6, 64), 9000, pcfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, newRequest("edit", edited, 8))
	for i := range reqs {
		tr, c := newTracer(), counts{}
		if err := replay(tr, &reqs[i], c); err != nil {
			t.Errorf("%s: %v", reqs[i].Key, err)
		}
		self := tr.selfTimes()
		for _, stem := range coreCalls {
			if _, ok := self[stem]; !ok && stem != "remap.cost" {
				t.Errorf("%s: replay recorded no %s span", reqs[i].Key, stem)
			}
		}
	}
}

// The names the harness emits are the names BENCHMARK.json lists, and
// BENCHMARK.json stays inside the driver's limits.
func TestInventory(t *testing.T) {
	e := testEnv(t)
	bf, err := loadBenchmarkFile(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadSpecs) || len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the harness has %d, %d and %d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(workloadSpecs), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q (or the why differs or is too long)", i, w.Name, workloadSpecs[i].Name)
		}
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, s)
		}
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the driver's limits", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, s)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v unexpected", bf.RunSeconds, bf.Paths)
	}

	// What a measurement really prints: collect refuses a value whose
	// name is not in the tables, so equal key sets mean equal sets.  (The
	// determinism check is left to real runs: the race detector's own
	// allocations do not repeat.)
	w, _, err := setUp(e, "cold-golden", defaultSeed, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		res, err := collect(w, oneFlags{workload: "cold-golden", seconds: 0.2, trace: trace}, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %d: result %+v", trace, res)
		}
		if len(res.Metrics) != len(specs) {
			t.Errorf("trace %d: printed %d metrics, the table has %d", trace, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			if mv, ok := res.Metrics[s.Name]; !ok || mv.Unit != s.Unit {
				t.Errorf("trace %d: %s missing or in unit %q", trace, s.Name, mv.Unit)
			}
		}
	}
}

// The verdict rules of `compare`, and quartiles equal to Python's
// statistics.quantiles(v, n=4).
func TestCompareRules(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	for _, tc := range []struct {
		a, b   []float64
		better string
		noise  float64
		want   string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10.2, 10.3, 10.1}, "lower", 0.02, "same"},
		{[]float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, "lower", 0.02, "worse"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "lower", 0.02, "better"},
		{[]float64{10, 12, 9}, []float64{11.5, 9.5, 12.5}, "lower", 0.3, "unresolved"},
		{[]float64{10, 12, 9}, []float64{8, 7, 6}, "lower", 0.3, "better"},
		{[]float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.02, "worse"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, 0.10, tc.noise, 0); got != tc.want {
			t.Errorf("verdict(%v, %v, %s, noise %v) = %s, want %s", tc.a, tc.b, tc.better, tc.noise, got, tc.want)
		}
	}
	if got, _ := verdict([]float64{0.04}, []float64{0.06}, "lower", 0.25, 0, 0.25); got != "same" {
		t.Errorf("a 20 ms worsening under a 0.25 s floor is %s, want same", got)
	}
	if w := worseBy(100, 90, "higher"); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worseBy(100, 90, higher) = %v, want 0.1", w)
	}
}
