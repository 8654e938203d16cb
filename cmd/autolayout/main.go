// Command autolayout is the data layout assistant tool: it reads a
// program in the restricted Fortran dialect and prints the
// automatically selected HPF data layout (alignments, distribution,
// and profitable dynamic remappings), plus optionally the candidate
// layout search spaces with their estimated execution times.
//
// Usage:
//
//	autolayout -procs 16 [-machine ipsc860|paragon] [-spaces] [file.f]
//
// With no file argument the program is read from standard input.  The
// -spaces flag dumps each phase's explicit candidate search space —
// the browsing interface §2 envisions for the assistant tool.
//
// -timeout bounds the 0-1 solver wall-clock; when the budget expires
// the tool keeps the best feasible answer and reports the degradation
// (with its optimality gap) as "! degraded:" comment lines.  -strict
// turns any such degradation into a hard failure instead.
//
// -verify independently re-certifies every solver product (LP and 0-1
// solutions, alignment legality, the final selection, and the
// re-derived costs) before printing anything; a failed certificate
// prints the claimed-vs-recomputed diff and exits non-zero.
//
// -sweep re-tunes the same program across a comma-separated list of
// processor counts (e.g. -sweep 2,4,8,16,32): the machine-independent
// front half of the pipeline — parsing, dependence analysis, the
// alignment 0-1 solves — runs once (core.Session), and only pricing
// and selection re-run per point over a shared content-addressed
// cache.  Each point prints a summary line; add -stats for the
// per-stage wall-clock breakdown.
//
// -store DIR persists each solved layout selection — the 0-1 solve,
// the one artifact that costs more to compute than to read back — to a
// crash-safe on-disk store, so a later run on identical inputs skips
// the solve (the stored answer is still re-certified under -verify).  A
// corrupted or unavailable store is never fatal — damaged records are
// quarantined under DIR/quarantine/ and the run degrades to
// memory-only caching, reported as "! degraded:" lines.
//
// -watch FILE.f is the interactive assistant loop: the tool keeps
// running, polls the file for edits, and re-analyzes each saved
// version through the incremental session (core.Session.Update) — a
// one-phase edit replays only the artifacts downstream of that phase,
// and each edit prints the new layout plus a replayed-vs-reused
// summary line.  A save that does not parse is reported as a comment
// and the previous analysis stays current; -stats adds the full
// counter line per edit.  An interrupt (Ctrl-C) ends the loop and the
// tool exits 0.
//
// -json swaps the HPF text for the versioned core.Response document —
// the exact body layoutd's POST /v1/analyze returns — and -stats emits
// the run's counters as one "! stats: {...}" JSON line carrying the
// same core.Stats struct layoutd aggregates under /metrics.
//
// -server URL runs the same request remotely against a layoutd
// daemon through the retrying wire client (exponential backoff with
// jitter, server Retry-After honored, typed terminal errors surfaced
// as-is), sharing the daemon's warm caches with every other client.
// Remote mode supports the same request vocabulary the wire carries —
// including -json, -stats, -verify, -timeout and -machine-file — and
// rejects the strictly local flags (-sweep, -spaces, -explain,
// -store).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/store"
)

func main() {
	procs := flag.Int("procs", 16, "number of processors")
	machineName := flag.String("machine", "ipsc860", "target machine: ipsc860, paragon or cluster2020")
	machineFile := flag.String("machine-file", "", "load a custom machine table (see machine.WriteTable format)")
	spaces := flag.Bool("spaces", false, "dump candidate layout search spaces")
	explain := flag.Bool("explain", false, "explain every phase's candidate costs (events, schedules)")
	cyclic := flag.Bool("cyclic", false, "add CYCLIC distribution candidates (extension)")
	multiDim := flag.Bool("multidim", false, "add multi-dimensional mesh candidates (extension)")
	useDP := flag.Bool("dp", false, "select by the elimination DP alone (no 0-1 fallback over its table cap)")
	greedy := flag.Bool("greedy-align", false, "use greedy alignment conflict resolution instead of 0-1")
	guess := flag.Bool("guess-probs", false, "ignore !prob annotations (always guess 50%)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the 0-1 solves; on expiry the tool degrades to the best feasible answer (0 = none)")
	strict := flag.Bool("strict", false, "fail instead of degrading when a 0-1 solve is cut off")
	noCache := flag.Bool("no-cache", false, "disable pricing/remapping memoization")
	storeDir := flag.String("store", "", "persist solved layout selections to this directory (crash-safe L3 store; later runs skip the 0-1 solve)")
	stats := flag.Bool("stats", false, "report the run's counters (stage times, cache hit rates, solver effort) as one machine-readable JSON line — the same struct layoutd's /metrics serves")
	doVerify := flag.Bool("verify", false, "independently certify every solver product; a failed certificate exits non-zero with a claimed-vs-recomputed diff")
	jsonOut := flag.Bool("json", false, "emit the result as a core.Response JSON document (the layoutd wire format) instead of HPF text")
	sweep := flag.String("sweep", "", "comma-separated processor counts: analyze once, re-tune the layout per count reusing the cached front half (overrides -procs)")
	server := flag.String("server", "", "analyze remotely against a layoutd at this base URL (e.g. http://localhost:8780) instead of in-process")
	watch := flag.Bool("watch", false, "watch the file argument for edits and incrementally re-analyze each saved version (requires a file; edit-local changes replay only downstream artifacts)")
	flag.Parse()

	if *watch {
		for flagName, set := range map[string]bool{
			"-server": *server != "", "-sweep": *sweep != "", "-json": *jsonOut,
		} {
			if set {
				fatal(fmt.Errorf("%s cannot combine with -watch (the watch loop is local and prints HPF text)", flagName))
			}
		}
		if flag.Arg(0) == "" {
			fatal(fmt.Errorf("-watch needs a file argument to poll (stdin cannot be re-read)"))
		}
	}

	src, err := readInput(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// The CLI speaks the same versioned wire request as layoutd: flags
	// assemble a core.Request, and BuildOptions is the one shared
	// defaulting + validation path, so server and CLI cannot drift.
	req := core.Request{
		V:               core.WireV1,
		Source:          src,
		Procs:           *procs,
		Machine:         *machineName,
		Cyclic:          *cyclic,
		MultiDim:        *multiDim,
		UseDP:           *useDP,
		GreedyAlign:     *greedy,
		IgnoreProbHints: *guess,
		TimeoutMS:       timeout.Milliseconds(),
		Strict:          *strict,
		NoCache:         *noCache,
		Verify:          *doVerify,
	}
	if *machineFile != "" {
		table, err := os.ReadFile(*machineFile)
		if err != nil {
			fatal(err)
		}
		req.MachineTable = string(table)
	}
	if *server != "" {
		for flagName, set := range map[string]bool{
			"-sweep": *sweep != "", "-spaces": *spaces, "-explain": *explain, "-store": *storeDir != "",
		} {
			if set {
				fatal(fmt.Errorf("%s is a local-mode flag and cannot combine with -server (the daemon owns its own store)", flagName))
			}
		}
		if err := runRemote(*server, &req, *jsonOut, *stats); err != nil {
			fatal(err)
		}
		return
	}

	opt, err := req.BuildOptions()
	if err != nil {
		fatal(err)
	}
	// Sub-millisecond budgets truncate to 0 on the wire; preserve the
	// exact flag value locally.
	opt.Timeout = *timeout
	// The store is the invocation's resource, not the request's: opened
	// once here and shared by every sweep point and watch edit.  A
	// directory that will not open is left to core, which degrades to
	// memory-only caching and says so with the result.
	if *storeDir != "" {
		if st, err := store.Open(store.Options{Dir: *storeDir}); err == nil {
			opt.Store = st
			defer st.Close()
		} else {
			opt.StoreDir = *storeDir
		}
	}

	if *sweep != "" {
		if err := runSweep(src, opt, *sweep, *stats); err != nil {
			fatal(err)
		}
		return
	}

	if *watch {
		if err := runWatch(flag.Arg(0), src, opt, *stats); err != nil {
			fatal(err)
		}
		return
	}

	res, err := core.Analyze(context.Background(), core.Input{Source: src}, opt)
	if err != nil {
		var cerr *core.CertificationError
		if errors.As(err, &cerr) {
			fmt.Fprintln(os.Stderr, "autolayout: CERTIFICATION FAILED — the pipeline's claim does not survive independent recomputation")
			fmt.Fprintf(os.Stderr, "  stage:      %s\n", cerr.Stage)
			fmt.Fprintf(os.Stderr, "  check:      %s\n", cerr.Check)
			fmt.Fprintf(os.Stderr, "  claimed:    %g\n", cerr.Claimed)
			fmt.Fprintf(os.Stderr, "  recomputed: %g\n", cerr.Recomputed)
			if cerr.Detail != "" {
				fmt.Fprintf(os.Stderr, "  detail:     %s\n", cerr.Detail)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	if *jsonOut {
		// The Response document embeds the Stats block, so -stats is
		// implied here.
		b, err := json.MarshalIndent(core.NewResponse(res), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", b)
		return
	}
	fmt.Print(res.EmitHPF())
	fmt.Printf("! tool time: %v (alignment 0-1 solves: %d, selection 0-1: %d vars / %d constraints in %v)\n",
		res.Elapsed.Round(1e6), len(res.AlignStats),
		res.Selection.Vars, res.Selection.Constraints, res.Selection.Duration.Round(1e5))
	if *stats {
		printStats(res)
	}
	for _, line := range strings.Split(strings.TrimRight(res.ExplainDegradations(), "\n"), "\n") {
		if line != "" {
			fmt.Println("! degraded:", line)
		}
	}
	if *spaces {
		dumpSpaces(res)
	}
	if *explain {
		fmt.Println("!\n! cost derivation per phase:")
		for _, line := range strings.Split(strings.TrimRight(res.Explain(), "\n"), "\n") {
			fmt.Println("!", line)
		}
	}
}

// runRemote sends the request to a layoutd daemon through the
// retrying wire client and renders the response.  The wire carries
// the full request vocabulary (machine table, budget, strict, verify),
// the client absorbs transient daemon trouble (overload, drain,
// watchdog kills) with backoff + Retry-After, and terminal typed
// errors — validation, strict, quarantined — surface exactly once.
func runRemote(baseURL string, req *core.Request, jsonOut, stats bool) error {
	c, err := client.New(client.Config{BaseURL: baseURL, Hedge: true})
	if err != nil {
		return err
	}
	resp, err := c.Analyze(context.Background(), req)
	if err != nil {
		var ae *client.APIError
		if errors.As(err, &ae) && ae.Detail != "" {
			return fmt.Errorf("%w\n  detail: %s", err, strings.ReplaceAll(ae.Detail, "\n", "\n  "))
		}
		return err
	}
	if jsonOut {
		b, err := json.MarshalIndent(resp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", b)
		return nil
	}
	fmt.Print(resp.HPF)
	fmt.Printf("! analyzed remotely by %s (cost %.3f us)\n", baseURL, resp.TotalCostUS)
	if stats {
		b, err := json.Marshal(resp.Stats)
		if err != nil {
			return err
		}
		fmt.Printf("! stats: %s\n", b)
	}
	for _, d := range resp.Degradations {
		fmt.Printf("! degraded: %s: %s\n", d.Subsystem, d.Detail)
	}
	return nil
}

// printStats emits the run's counters as one machine-readable JSON
// line — the same core.Stats struct layoutd aggregates under /metrics
// and every -json Response embeds, so scripts parse one vocabulary on
// all three surfaces.  The "! " prefix keeps the line a comment in the
// HPF text stream.
func printStats(res *core.Result) {
	b, err := json.Marshal(core.NewStats(res))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("! stats: %s\n", b)
}

// runSweep re-tunes the program across processor counts: one Session
// carries the machine-independent front half, one SharedCache carries
// the content-addressed pricings, and each grid point re-runs only the
// machine-dependent back half.
func runSweep(src string, opt core.Options, grid string, stats bool) error {
	var counts []int
	for _, f := range strings.Split(grid, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("-sweep: %w", err)
		}
		counts = append(counts, p)
	}
	opt.Cache = core.NewSharedCache(0)
	opt.Procs = counts[0]
	sess, err := core.NewSession(context.Background(), core.Input{Source: src}, opt)
	if err != nil {
		return err
	}
	if stats {
		fmt.Printf("! front half (once): %s\n", sess.FrontTimes())
	}
	for _, p := range counts {
		pointOpt := opt
		pointOpt.Procs = p
		res, err := sess.Analyze(context.Background(), pointOpt)
		if err != nil {
			return fmt.Errorf("procs=%d: %w", p, err)
		}
		layout := "static"
		if res.Dynamic {
			layout = fmt.Sprintf("dynamic (%d remaps)", len(res.Remaps))
		}
		fmt.Printf("! procs %3d: cost %14.3f us, %s, back half %v\n",
			p, res.TotalCost, layout, res.Elapsed.Round(1e5))
		if stats {
			printStats(res)
		}
	}
	return nil
}

// runWatch is the interactive assistant loop: analyze the file once,
// then poll it (~300ms) and push each saved edit through the session's
// incremental Update.  Unchanged phases reuse their dependence info,
// alignment solves, pricings and (when nothing relevant moved) the
// selection; the per-edit summary line reports exactly how much
// replayed.  A save that fails to parse — half-typed edits are normal
// — prints a comment and leaves the previous analysis current.  An
// interrupt stops the loop cleanly.
func runWatch(path, src string, opt core.Options, stats bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sess, err := core.NewSession(ctx, core.Input{Source: src}, opt)
	if err != nil {
		return err
	}
	res, err := sess.Update(ctx, src, opt)
	if err != nil {
		return err
	}
	printWatchResult(res, stats)
	fmt.Printf("! watching %s for edits (interrupt to stop)\n", path)
	last := src
	for {
		select {
		case <-ctx.Done():
			fmt.Println("! watch: interrupted, stopping")
			return nil
		case <-time.After(300 * time.Millisecond):
		}
		b, err := os.ReadFile(path)
		if err != nil {
			// A transient editor rename/replace; report once per change.
			fmt.Printf("! watch: %v\n", err)
			continue
		}
		cur := string(b)
		if cur == last {
			continue
		}
		last = cur
		res, err := sess.Update(ctx, cur, opt)
		if err != nil {
			fmt.Printf("! watch: edit rejected (previous analysis stays current): %v\n", err)
			continue
		}
		printWatchResult(res, stats)
	}
}

// printWatchResult prints one edit's layout and its replay/reuse line.
func printWatchResult(res *core.Result, stats bool) {
	fmt.Print(res.EmitHPF())
	inc := res.Incremental
	var replayed, reused int64
	for _, sr := range inc.Stages {
		replayed += sr.Replayed
		reused += sr.Reused
	}
	fmt.Printf("! edit %d: cost %.3f us, elapsed %v, reused %d / replayed %d artifacts (reuse ratio %.2f)\n",
		inc.Edits, res.TotalCost, res.Elapsed.Round(1e5), reused, replayed, inc.ReuseRatio)
	if stats {
		printStats(res)
	}
	fmt.Println()
}

func dumpSpaces(res *core.Result) {
	fmt.Println("!\n! candidate layout search spaces:")
	for _, pr := range res.Phases {
		fmt.Printf("! phase %d (%s, freq %.3g, arrays %v):\n",
			pr.Phase.ID, pr.Phase.Label, pr.Phase.Freq, pr.Phase.Arrays)
		type row struct {
			i    int
			cost float64
		}
		rows := make([]row, len(pr.Candidates))
		for i, c := range pr.Candidates {
			rows[i] = row{i, c.Estimate.Time}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].cost < rows[b].cost })
		for _, r := range rows {
			c := pr.Candidates[r.i]
			mark := " "
			if r.i == pr.Chosen {
				mark = "*"
			}
			fmt.Printf("!  %s %-60s %-22s %12.3f ms\n",
				mark, c.Layout.Key(), c.Estimate.Schedule, c.Estimate.Time/1e3)
		}
	}
}

func readInput(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autolayout:", err)
	os.Exit(1)
}
