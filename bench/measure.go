package main

// The timed loop, the answer check and the determinism check.

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
)

// stopRule ends a measurement after a fixed op count (`run`, so both
// commits of a comparison do the same work) or after a time budget (the
// driver's --seconds); whichever is set first reached wins.
type stopRule struct {
	ops     int
	seconds float64
}

func (s stopRule) done(ops int, timed time.Duration) bool {
	return (s.ops > 0 && ops >= s.ops) || (s.seconds > 0 && timed.Seconds() >= s.seconds)
}

// roundStat is what one round of back-to-back ops cost the process.
type roundStat struct {
	wall, cpu           time.Duration
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

// measurement is one timed section.
type measurement struct {
	roundOps  int
	samples   []time.Duration // wall time of every op
	rounds    []roundStat
	attempted int
	failed    int
	firstFail error
	tally     tally // run statistics carried by the answers
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's ru_maxrss (kilobytes on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// measure times rounds of spec.RoundOps ops until stop says enough.  The
// clock and the counters stop between rounds, where the per-round
// re-setup runs and the round's answers are checked against the pins.
func measure(w workload, stop stopRule, tr *tracer, firstRound int) (*measurement, error) {
	spec := w.common().spec
	k := spec.RoundOps
	m := &measurement{roundOps: k}
	durs := make([]time.Duration, k)
	answers := make([][]answer, k)
	errs := make([]error, k)
	var timed time.Duration
	var ms0, ms1 runtime.MemStats
	for round := firstRound; (round-firstRound)%spec.CycleRounds != 0 || !stop.done(m.attempted, timed); round++ {
		if err := w.beginRound(round); err != nil {
			return nil, fmt.Errorf("round %d re-setup: %w", round, err)
		}
		runtime.ReadMemStats(&ms0)
		cpu0, t0 := cpuTime(), time.Now()
		runRound(w, spec, round, tr, durs, answers, errs)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms1)
		timed += wall
		m.rounds = append(m.rounds, roundStat{
			wall: wall, cpu: cpu,
			allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, mallocs: ms1.Mallocs - ms0.Mallocs,
			gcCycles: ms1.NumGC - ms0.NumGC, gcPause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		})
		m.samples = append(m.samples, durs...)
		for i := range errs {
			err := errs[i]
			if err == nil {
				m.tally.add(answers[i])
				err = checkOp(w, answers[i])
			}
			m.attempted++
			if err != nil {
				m.failed++
				if m.firstFail == nil {
					m.firstFail = fmt.Errorf("op %d: %w", round*k+i, err)
				}
			}
			answers[i] = nil
		}
	}
	return m, nil
}

// runRound issues the round's ops: in line for one client (every timed
// loop but layoutd-warm's is a single goroutine), otherwise from
// spec.Clients goroutines that each take the next op when their previous
// one has been answered (closed loop).
func runRound(w workload, spec *workloadSpec, round int, tr *tracer, durs []time.Duration, answers [][]answer, errs []error) {
	k := spec.RoundOps
	one := func(client, i int) {
		idx := round*k + i
		s := tr.beginOp(idx)
		t0 := time.Now()
		answers[i], errs[i] = w.op(client, idx, tr, s)
		durs[i] = time.Since(t0)
		tr.end(s)
	}
	if spec.Clients == 1 {
		for i := 0; i < k; i++ {
			one(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < k; i = int(next.Add(1)) - 1 {
				one(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// checkOp compares every answer of one op with its pinned reference:
// total_cost_us (%.6f), and unless the pin is a tie the emitted
// program's hash and (when the harness saw it) the choice vector; for
// the golden corpus at Procs = 8 also the full golden rendering, byte
// for byte.
func checkOp(w workload, answers []answer) error {
	if len(answers) == 0 {
		return fmt.Errorf("op returned no answer")
	}
	exp, goldens := w.common().exp, w.common().env.goldens
	for _, a := range answers {
		want, ok := exp[a.key]
		if !ok {
			return fmt.Errorf("%s: no pinned answer", a.key)
		}
		if got := costString(a.resp.TotalCostUS); got != want.Cost {
			return fmt.Errorf("%s: total_cost_us %s, pinned %s", a.key, got, want.Cost)
		}
		if !want.Tie && hpfHash(a.resp.HPF) != want.HPF {
			return fmt.Errorf("%s: emitted HPF differs from the pinned program", a.key)
		}
		if !want.Tie && a.choice != nil && !equalInts(a.choice, want.Choice) {
			return fmt.Errorf("%s: choice vector differs from the pinned one", a.key)
		}
		if golden, ok := goldens[a.key]; ok && goldenRender(a.resp) != golden {
			return fmt.Errorf("%s: rendering differs from testdata/golden", a.key)
		}
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// responseBytes is the size of the wire response with its timings
// zeroed, so that it repeats exactly.
func responseBytes(resp *core.Response) int {
	cp := *resp
	cp.Selection.DurationUS = 0
	cp.Stats.ElapsedUS = 0
	cp.Stats.StageUS = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		return 0
	}
	return len(b)
}

// opCounts are the counts spec.go marks exact, as far as one op's
// answers show them.
func opCounts(answers []answer) map[string]float64 {
	c := map[string]float64{}
	for _, a := range answers {
		st, sel := a.resp.Stats, a.resp.Selection
		cagSolves := st.Solver.Solves
		if sel.Route != "" || sel.BBNodes > 0 {
			cagSolves--
		}
		c["cag.solves"] += float64(cagSolves)
		c["ilp.bb_nodes"] += float64(sel.BBNodes)
		c["lp.pivots"] += float64(st.Solver.LPPivots)
		c["remap.evals"] += float64(st.Cache.Remap.Misses)
		c["distrib.candidates"] += float64(a.candidates)
		c["core.response_bytes"] += float64(responseBytes(a.resp))
		c["store.records"] = float64(st.Cache.Store.Entries)
	}
	return c
}

// allocTolerance is how far allocs_per_op may differ between two
// executions of the same op: a tenth of a percent in process, two
// percent across the loopback HTTP stack, whose buffer pools and
// connection goroutines allocate a little differently every time.
func allocTolerance(spec *workloadSpec) float64 {
	if spec.Clients > 1 {
		return 0.02
	}
	return 0.001
}

// checkDeterminism executes op 0 three times and fails if a count marked
// exact differs between the last two.  The first execution only settles
// state an op leaves behind: a layoutd request finds its family's session
// as the previous request left it, so only a repeat of itself is the same
// work twice.
func checkDeterminism(w workload) error {
	var counts [3]map[string]float64
	var ms0, ms1 runtime.MemStats
	for i := range counts {
		if err := w.beginRound(0); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		ans, err := w.op(0, 0, nil, -1)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		counts[i] = opCounts(ans)
		counts[i]["allocs_per_op"] = float64(ms1.Mallocs - ms0.Mallocs)
	}
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range table {
			if !s.Exact {
				continue
			}
			a, b := counts[1][s.Name], counts[2][s.Name]
			tol := 0.0
			if s.Name == "allocs_per_op" {
				tol = allocTolerance(w.common().spec) * a
			}
			if math.Abs(a-b) > tol {
				return fmt.Errorf("determinism: %s read %v then %v on the same op", s.Name, a, b)
			}
		}
	}
	return nil
}

// Order statistics.

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile of an ascending slice, linear between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spread is (max-min)/median.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / med
}

// perRound maps every round to one value and returns them.
func (m *measurement) perRound(f func(r roundStat) float64) []float64 {
	out := make([]float64, len(m.rounds))
	for i, r := range m.rounds {
		out[i] = f(r)
	}
	return out
}

// endToEndValues derives the gated metrics.  The two timings that are
// not already a median over ops are medians over the rounds, so one round
// that shared the machine with a noisy neighbour does not move them; the
// allocation metrics are exact counts and so plain totals over the ops.
func (m *measurement) endToEndValues(setupS float64) map[string]float64 {
	k := float64(m.roundOps)
	var bytes, mallocs uint64
	for _, r := range m.rounds {
		bytes, mallocs = bytes+r.allocBytes, mallocs+r.mallocs
	}
	ops := float64(len(m.samples))
	return map[string]float64{
		"op_p50_ms":       quantile(sortedMS(m.samples), 0.5),
		"ops_per_s":       median(m.perRound(func(r roundStat) float64 { return k / r.wall.Seconds() })),
		"cpu_ms_per_op":   median(m.perRound(func(r roundStat) float64 { return r.cpu.Seconds() * 1e3 / k })),
		"alloc_mb_per_op": float64(bytes) / (1 << 20) / ops,
		"allocs_per_op":   float64(mallocs) / ops,
		"peak_rss_mb":     peakRSSMB(),
		"setup_s":         setupS,
	}
}
