package main

// `bench compare`: apply the bounds of BENCHMARK.json to two run reports
// (A = parent, B = change), or with -pairs N to N alternating pairs of
// fresh measurements from two checkouts.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	bf := &benchmarkFile{}
	if err := dec.Decode(bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// worseBy is how much worse b is than a as a share of a, given the
// metric's direction; negative means better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// quartiles are Python's statistics.quantiles(v, n=4) (exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// floorOf is the absolute floor spec.go gives a metric (BENCHMARK.json
// has no key for it).
func floorOf(name string) float64 {
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Floor
		}
	}
	return 0
}

func extent(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// verdict classifies one (workload, metric) cell from the two sides'
// values.  noise is the run-to-run spread of a side as a share of its
// median.  A cell whose noise exceeds the bound is unresolved — neither
// a regression nor "unchanged" — unless every B value beats every A
// value.  A worsening smaller than floor (in the metric's unit) is never
// worse.
func verdict(a, b []float64, better string, bound, noise, floor float64) (string, float64) {
	w := worseBy(median(a), median(b), better)
	if w > 0 && w*median(a) < floor {
		return "same", w
	}
	loA, hiA := extent(a)
	loB, hiB := extent(b)
	allBetter := hiB < loA
	if better == "higher" {
		allBetter = loB > hiA
	}
	switch {
	case noise > bound && allBetter:
		return "better", w
	case noise > bound && loA <= hiB && loB <= hiA:
		return "unresolved", w
	case w > bound:
		return "worse", w
	case w < -bound:
		return "better", w
	}
	return "same", w
}

func loadRun(path string) (*runReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &runReport{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func runCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	pairs := fs.Int("pairs", 0, "A and B are checkouts: measure N alternating pairs with the driver's call")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json | bench compare -pairs N PARENT_DIR CHANGE_DIR")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if *pairs > 0 {
		return comparePairs(bf, fs.Arg(0), fs.Arg(1), *pairs)
	}
	a, err := loadRun(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRun(fs.Arg(1))
	if err != nil {
		return err
	}
	rowsB := map[string]workloadReport{}
	for _, row := range b.Workloads {
		rowsB[row.Name] = row
	}
	bad := 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := rowsB[ra.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", fs.Arg(1), ra.Name)
		}
		for _, m := range bf.EndToEnd {
			ma, mb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v, _ := verdict(ma.Repeats, mb.Repeats, m.Better, m.Bound, max(ma.Spread, mb.Spread), floorOf(m.Name))
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %9.4f %6.0f%%  %s\n", ra.Name, m.Name, ma.Value, mb.Value, mb.Value/ma.Value, m.Bound*100, v)
		}
		v := "same"
		if rb.FailedShare > ra.FailedShare {
			v = "worse"
			bad++
		}
		fmt.Printf("%-14s %-16s %14.4f %14.4f %9s %7s  %s\n", ra.Name, "failed_share", ra.FailedShare, rb.FailedShare, "", "any", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d cells worse than their bound allows", bad)
	}
	return nil
}

// measureIn runs the benchmark's own command in a checkout, the way the
// driver does.
func measureIn(dir string, bf *benchmarkFile, workload string, seed int) (*result, error) {
	args := append(append([]string(nil), bf.Command[1:]...),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	return runMeasurement(dir, bf.Command[0], args...)
}

// comparePairs measures n parent/change pairs per workload, alternating
// which side runs first, and applies the pairs rule: a gain is claimed
// only when the change wins at least nine tenths of the pairs and the
// medians differ by more than the parent's inter-quartile range.
func comparePairs(bf *benchmarkFile, parent, change string, n int) error {
	bad := 0
	fmt.Printf("%-14s %-16s %14s %14s %9s %6s %9s  %s\n", "workload", "metric", "parent median", "change median", "chg/par", "wins", "par IQR", "verdict")
	for _, w := range bf.Workloads {
		sides := [2]map[string][]float64{{}, {}}
		failed := [2]int{}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // alternate which side runs first
				res, err := measureIn([]string{parent, change}[side], bf, w.Name, 1000+i)
				if err != nil {
					return err
				}
				failed[side] += res.Failed
				for name, mv := range res.Metrics {
					sides[side][name] = append(sides[side][name], mv.Value)
				}
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			wins := 0
			for i := range a {
				if worseBy(a[i], b[i], m.Better) < 0 {
					wins++
				}
			}
			q1, q2, q3 := quartiles(a)
			v, w2 := verdict(a, b, m.Better, m.Bound, (q3-q1)/q2, floorOf(m.Name))
			if v == "better" && (float64(wins) < 0.9*float64(n) || -w2*q2 <= q3-q1) {
				v = "same"
			}
			if v == "worse" {
				bad++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %9.4f %3d/%-2d %8.2f%%  %s\n", w.Name, m.Name, q2, median(b), median(b)/q2, wins, n, (q3-q1)/q2*100, v)
		}
		if failed[1] > failed[0] {
			bad++
			fmt.Printf("%-14s failed ops rose from %d to %d: worse\n", w.Name, failed[0], failed[1])
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cells worse than their bound allows", bad)
	}
	return nil
}
