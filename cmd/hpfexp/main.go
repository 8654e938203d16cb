// Command hpfexp regenerates the paper's evaluation artifacts: every
// figure and table of §4/§6, printed as text series so the shapes —
// who wins, by what factor, where crossovers fall — can be compared
// against the paper.
//
// Usage:
//
//	hpfexp -fig 3          # one figure (2, 3, 4, 5, 6, 7 or 8)
//	hpfexp -table ilp      # 0-1 problem sizes and solve times
//	hpfexp -table summary  # the full 99-case suite statistics
//	hpfexp -table cases    # every case of the suite, then its statistics
//	hpfexp -table ablation # estimated time per design alternative
//	hpfexp -all            # everything: figures, ilp, cases, ablation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to reproduce (2-8)")
	table := flag.String("table", "", "table to reproduce: ilp, summary, cases or ablation")
	all := flag.Bool("all", false, "reproduce every figure and table")
	csv := flag.Bool("csv", false, "emit figure series as CSV (figures 4-7)")
	timeout := flag.Duration("timeout", 0, "per-case wall-clock budget for the 0-1 solves in -table summary/cases; expired cases degrade gracefully (0 = none)")
	flag.Parse()
	emitCSV = *csv
	solveTimeout = *timeout

	if *all {
		for _, f := range []int{2, 3, 4, 5, 6, 7, 8} {
			if err := figure(f); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		// cases prints the summary too, from the same suite runs.
		for i, t := range []string{"ilp", "cases", "ablation"} {
			if i > 0 {
				fmt.Println()
			}
			if err := renderTable(t); err != nil {
				fatal(err)
			}
		}
		return
	}
	if *fig != 0 {
		if err := figure(*fig); err != nil {
			fatal(err)
		}
		return
	}
	if *table != "" {
		if err := renderTable(*table); err != nil {
			fatal(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

var (
	emitCSV      bool
	solveTimeout time.Duration
)

// withTimeout applies the -timeout budget to one case run.
func withTimeout(o *core.Options) {
	o.Timeout = solveTimeout
}

func render(f *experiments.Figure) {
	if emitCSV {
		fmt.Print(f.CSV())
		return
	}
	fmt.Print(f.Render())
}

func figure(n int) error {
	switch n {
	case 2:
		fmt.Print(experiments.Figure2())
	case 3:
		_, text, err := experiments.Figure3()
		if err != nil {
			return err
		}
		fmt.Print(text)
	case 4:
		f, err := experiments.Figure4()
		if err != nil {
			return err
		}
		render(f)
	case 5:
		f, err := experiments.Figure5()
		if err != nil {
			return err
		}
		render(f)
	case 6:
		guessed, actual, err := experiments.Figure6()
		if err != nil {
			return err
		}
		render(guessed)
		render(actual)
	case 7:
		f, err := experiments.Figure7()
		if err != nil {
			return err
		}
		render(f)
	case 8:
		text, err := experiments.Figure8()
		if err != nil {
			return err
		}
		fmt.Print(text)
	default:
		return fmt.Errorf("no figure %d (have 2-8)", n)
	}
	return nil
}

func renderTable(name string) error {
	switch name {
	case "ilp":
		rows, err := experiments.ILPSizes()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderILPSizes(rows))
	case "ablation":
		rows, err := experiments.Ablations()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderAblations(rows))
	case "summary", "cases":
		cases := experiments.Suite()
		results := make([]*experiments.CaseResult, 0, len(cases))
		for i, c := range cases {
			fmt.Fprintf(os.Stderr, "\r[%3d/%d] %-40v", i+1, len(cases), c)
			cr, err := experiments.Run(c, withTimeout)
			if err != nil {
				return fmt.Errorf("%v: %w", c, err)
			}
			results = append(results, cr)
		}
		fmt.Fprintln(os.Stderr)
		if name == "cases" {
			fmt.Print(experiments.RenderCases(results))
		}
		fmt.Print(experiments.RenderSummary(results, experiments.Summarize(results)))
	default:
		return fmt.Errorf("no table %q (have ilp, summary, cases, ablation)", name)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpfexp:", err)
	os.Exit(1)
}
