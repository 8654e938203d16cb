package main

// `bench run` and `bench trace`: each measurement runs in a fresh child
// process (this binary, called the way the driver calls it), so no
// workload inherits another's heap, caches or peak RSS.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricReport is one metric of one workload in a run report: the median
// of the repeat values, the values, and their (max-min)/median spread.
type metricReport struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Repeats []float64 `json:"repeats"`
	Spread  float64   `json:"spread"`
}

// workloadReport is one row of the table.  Samples, P90 and Max pool the
// op wall times of all repeats (the tail is a diagnostic, not gated).
type workloadReport struct {
	Name        string                  `json:"name"`
	Metrics     map[string]metricReport `json:"metrics"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailedShare float64                 `json:"failed_share"`
	Samples     int                     `json:"samples"`
	P90MS       float64                 `json:"op_p90_ms"`
	MaxMS       float64                 `json:"op_max_ms"`
}

// runReport is what `run` writes and `compare` reads.
type runReport struct {
	Seed       int64            `json:"seed"`
	Repeats    int              `json:"repeats"`
	Ops        map[string]int   `json:"ops_per_repeat"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	When       string           `json:"when"`
	Workloads  []workloadReport `json:"workloads"`
}

// runMeasurement runs one measurement in a fresh process, in dir, and
// decodes the result line (the last line of its standard output).
func runMeasurement(dir, program string, args ...string) (*result, error) {
	cmd := exec.Command(program, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", program, args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s %v: result line: %w", program, args, err)
	}
	return res, nil
}

// child runs one measurement with this binary.
func child(args ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return runMeasurement("", exe, args...)
}

// outDir is bench/out/, where reports and span files go.
func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

func runAll(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", defaultSeed, "seed of the visiting orders")
	out := fs.String("out", "", "report file (default bench/out/run.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	if *out == "" {
		*out = filepath.Join(dir, "run.json")
	}
	rep := runReport{
		Seed: *seed, Repeats: repeats, Ops: map[string]int{},
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		When: time.Now().UTC().Format(time.RFC3339),
	}
	values := map[string]map[string][]float64{} // workload → metric → repeat values
	pooled := map[string][]float64{}            // workload → op wall times (ms)
	rows := map[string]*workloadReport{}
	samplesFile := filepath.Join(dir, "samples.tmp")
	defer os.Remove(samplesFile)
	// Interleaved: w1…w7, w1…w7, w1…w7, so slow drift of the machine
	// lands on every workload alike.
	for r := 0; r < repeats; r++ {
		for _, spec := range workloadSpecs {
			fmt.Fprintf(os.Stderr, "repeat %d/%d %s\n", r+1, repeats, spec.Name)
			res, err := child("--workload", spec.Name, "--seed", strconv.FormatInt(*seed, 10),
				"--ops", strconv.Itoa(spec.OpsPerRepeat), "--trace", "0", "--samples-out", samplesFile)
			if err != nil {
				return err
			}
			row := rows[spec.Name]
			if row == nil {
				row = &workloadReport{Name: spec.Name, Metrics: map[string]metricReport{}}
				rows[spec.Name], values[spec.Name] = row, map[string][]float64{}
				rep.Ops[spec.Name] = spec.OpsPerRepeat
			}
			row.Attempted += res.Attempted
			row.Failed += res.Failed
			for name, mv := range res.Metrics {
				values[spec.Name][name] = append(values[spec.Name][name], mv.Value)
			}
			b, err := os.ReadFile(samplesFile)
			if err != nil {
				return err
			}
			var ms []float64
			if err := json.Unmarshal(b, &ms); err != nil {
				return err
			}
			pooled[spec.Name] = append(pooled[spec.Name], ms...)
		}
	}
	for _, spec := range workloadSpecs {
		row := rows[spec.Name]
		for _, m := range endToEnd {
			vs := values[spec.Name][m.Name]
			row.Metrics[m.Name] = metricReport{Value: median(vs), Unit: m.Unit, Repeats: vs, Spread: spread(vs)}
		}
		row.FailedShare = float64(row.Failed) / float64(row.Attempted)
		ms := pooled[spec.Name]
		sort.Float64s(ms)
		row.Samples, row.P90MS, row.MaxMS = len(ms), quantile(ms, 0.9), ms[len(ms)-1]
		rep.Workloads = append(rep.Workloads, *row)
	}
	printRun(&rep)
	b, err := json.MarshalIndent(&rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", *out)
	for _, row := range rep.Workloads {
		if row.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", row.Name, row.Failed, row.Attempted)
		}
	}
	return nil
}

func printRun(rep *runReport) {
	fmt.Printf("seed %d, %d interleaved repeats, %s, nproc %d, GOMAXPROCS %d\n", rep.Seed, rep.Repeats, rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS)
	fmt.Println("value = median of the repeats; ± = (max-min)/median of the repeats")
	for _, row := range rep.Workloads {
		fmt.Printf("\n%s  (%d ops/repeat, %d samples; tail, not gated: op_p90_ms %.3f, op_max_ms %.3f)\n",
			row.Name, rep.Ops[row.Name], row.Samples, row.P90MS, row.MaxMS)
		for _, m := range endToEnd {
			mr := row.Metrics[m.Name]
			fmt.Printf("  %-16s %14.4f %-5s ±%5.1f%%\n", m.Name, mr.Value, mr.Unit, mr.Spread*100)
		}
		fmt.Printf("  %-16s %14.4f %-5s (%d of %d ops)\n", "failed_share", row.FailedShare, "ratio", row.Failed, row.Attempted)
	}
}

func traceAll(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	only := fs.String("workload", "", "trace one workload (default: all)")
	seed := fs.Int64("seed", defaultSeed, "seed of the visiting orders")
	seconds := fs.Float64("seconds", 5, "time budget of each traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := outDir()
	if err != nil {
		return err
	}
	var names []string
	for _, spec := range workloadSpecs {
		if *only == "" || *only == spec.Name {
			names = append(names, spec.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q (workloads: %v)", *only, workloadNames())
	}
	results := map[string]*result{}
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "trace %s\n", name)
		res, err := child("--workload", name, "--seed", strconv.FormatInt(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "1",
			"--spans-out", filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			return err
		}
		results[name] = res
	}
	fmt.Printf("%-30s %-6s", "per-layer metric", "unit")
	for _, name := range names {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, m := range perLayer {
		fmt.Printf("%-30s %-6s", m.Name, m.Unit)
		for _, name := range names {
			fmt.Printf(" %14s", strconv.FormatFloat(results[name].Metrics[m.Name].Value, 'f', 3, 64))
		}
		fmt.Println()
	}
	fmt.Printf("\nreplay equals core on: %s\nspans written to %s\n", strings.Join(names, ", "), filepath.Join(dir, "trace-<workload>.json"))
	b, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	for name, res := range results {
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d traced ops failed", name, res.Failed, res.Attempted)
		}
	}
	return nil
}
