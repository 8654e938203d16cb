// Command bench is the repo's one benchmark: seven workloads, the same
// end-to-end metrics on each, answers checked against pinned references,
// and a traced run that attributes the time to the repo's packages from
// outside.  See README.md in this directory.
//
//	bash bench/run.sh run   [-seed 1] [-out FILE]    all workloads, 3 interleaved repeats
//	bash bench/run.sh trace [-workload W]            per-layer metrics + bench/out/trace-W.json
//	bash bench/run.sh compare A.json B.json          apply the bounds of BENCHMARK.json
//	bash bench/run.sh pin                            regenerate bench/expected/
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one measurement (the driver's call)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runAll(args[1:])
		case "trace":
			return traceAll(args[1:])
		case "compare":
			return runCompare(args[1:])
		case "pin":
			return runPin()
		}
	}
	return runOne(args)
}

// metricValue and result are the last line of a measurement's output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// oneFlags are the flags of a single measurement.  The first four are
// the driver's contract; the rest are how `run` and `trace` drive their
// child processes.
type oneFlags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	ops      int
	samples  string // write every op's wall time here (ms, JSON array)
	spans    string // write the traced run's spans here
}

func runOne(args []string) error {
	var f oneFlags
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload name")
	fs.Int64Var(&f.seed, "seed", defaultSeed, "seed of the visiting orders")
	fs.Float64Var(&f.seconds, "seconds", 0, "measure for this long")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run, per-layer metrics")
	fs.IntVar(&f.ops, "ops", 0, "measure this many ops (instead of -seconds)")
	fs.StringVar(&f.samples, "samples-out", "", "write per-op wall times (ms) to this file")
	fs.StringVar(&f.spans, "spans-out", "", "write the traced run's spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := findWorkload(f.workload)
	if spec == nil || fs.NArg() > 0 {
		return fmt.Errorf("usage: bench run|trace|compare|pin, or bench --workload W --seed N --seconds S --trace 0|1 (workloads: %v)", workloadNames())
	}
	if f.ops <= 0 && f.seconds <= 0 {
		f.ops = spec.OpsPerRepeat
	}
	res, err := measureWorkload(f)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// setUp builds the workload and returns it with its set-up time.  When
// the time is to be reported it builds several times and returns the
// last build with the median: at least 3 builds, more (up to 15) while
// they are cheap, so a millisecond-scale set-up still reads steadily.
func setUp(e *env, name string, seed int64, timeIt bool) (workload, float64, error) {
	var times []float64
	var spent time.Duration
	for {
		w, err := newWorkload(e, name)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		err = w.setup(seed)
		d := time.Since(t0)
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s set-up: %w", name, err)
		}
		times = append(times, d.Seconds())
		spent += d
		if !timeIt || len(times) >= 15 || (len(times) >= 3 && spent > 1500*time.Millisecond) {
			return w, median(times), nil
		}
		w.close()
	}
}

// measureWorkload is one whole measurement in this process: set-up, the
// determinism check, then the untraced timed section or the traced run.
func measureWorkload(f oneFlags) (*result, error) {
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()
	w, setupS, err := setUp(e, f.workload, f.seed, f.trace == 0)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := checkDeterminism(w); err != nil {
		return nil, fmt.Errorf("%s: %w", f.workload, err)
	}
	return collect(w, f, setupS)
}

// collect runs the timed section (or the traced run) on a set-up
// workload and assembles the result line.
func collect(w workload, f oneFlags, setupS float64) (*result, error) {
	var err error
	stop := stopRule{ops: f.ops, seconds: f.seconds}
	res := &result{Metrics: map[string]metricValue{}}
	var m *measurement
	var values map[string]float64
	specs := endToEnd
	if f.trace == 0 {
		if m, err = measure(w, stop, nil, 0); err != nil {
			return nil, err
		}
		values = m.endToEndValues(setupS)
	} else {
		specs = perLayer
		if m, values, err = tracedRun(w, stop, f.spans); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Correct = m.attempted, m.failed, m.failed == 0
	if m.firstFail != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed, first: %v\n", f.workload, m.failed, m.attempted, m.firstFail)
	}
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	for name := range values {
		if _, listed := res.Metrics[name]; !listed {
			return nil, fmt.Errorf("%s: the harness measured %s, which its metric tables do not list", f.workload, name)
		}
	}
	if f.samples != "" {
		ms := make([]float64, len(m.samples)) // in the order the ops ran
		for i, d := range m.samples {
			ms[i] = float64(d) / float64(time.Millisecond)
		}
		b, err := json.Marshal(ms)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(f.samples, b, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}
