package main

// `bench pin` regenerates bench/expected/.  An answer is written only
// when three selection routes — the default structure router, the forced
// 0-1 ILP and the DP — agree on it under VerifyOn, so the reference
// never comes from the single route a later change puts under test.
//
// All three must agree on total_cost_us.  Where they also agree on the
// choice vector and the emitted program, those are pinned too.  Where
// they do not, the optimum is not unique — the routes break cost ties
// their own way (ROADMAP's open "ties" gap; conflict at Procs = 4 and
// erlebacher at Procs = 2 are such inputs) — and the answer is pinned as
// a tie: cost only.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/pcfg"
)

var pinRoutes = []struct {
	name string
	set  func(*core.Options)
}{
	{"default routing", func(*core.Options) {}},
	{"Options.ForceILP", func(o *core.Options) { o.ForceILP = true }},
	{"Options.UseDP", func(o *core.Options) { o.UseDP = true }},
}

// pinRequest answers one request by every route and returns the answer
// they share.
func pinRequest(r *wireRequest) (pinned, error) {
	opt, err := r.Req.BuildOptions()
	if err != nil {
		return pinned{}, err
	}
	opt.Verify = core.VerifyOn
	opt.Workers = 0 // answers are identical for every worker count
	var first pinned
	for i, route := range pinRoutes {
		o := opt
		route.set(&o)
		res, err := core.Analyze(context.Background(), core.Input{Source: r.Req.Source}, o)
		if err != nil {
			return pinned{}, fmt.Errorf("%s by %s: %w", r.Key, route.name, err)
		}
		p := pinned{Cost: costString(res.TotalCost), Choice: res.Selection.Choice, HPF: hpfHash(res.EmitHPF())}
		if i == 0 {
			first = p
			continue
		}
		if p.Cost != first.Cost {
			return pinned{}, fmt.Errorf("%s: %s answers %s, %s answered %s", r.Key, route.name, p.Cost, pinRoutes[0].name, first.Cost)
		}
		if p.HPF != first.HPF || !equalInts(p.Choice, first.Choice) {
			first = pinned{Cost: first.Cost, Tie: true}
		}
	}
	return first, nil
}

// scaleRecorded reads the total_cost_us PR 10 recorded in
// BENCH_scale.json for the routed arm of (family, phases).
func scaleRecorded(root string, family pcfg.ScaleFamily, phases int) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCH_scale.json"))
	if err != nil {
		return "", err
	}
	var rows []struct {
		Family string `json:"family"`
		Phases int    `json:"phases"`
		Routed struct {
			TotalCost float64 `json:"total_cost_us"`
		} `json:"routed"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		return "", err
	}
	for _, r := range rows {
		if r.Family == string(family) && r.Phases == phases {
			return costString(r.Routed.TotalCost), nil
		}
	}
	return "", fmt.Errorf("BENCH_scale.json has no row %s/%d", family, phases)
}

func runPin() error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	sets := map[string][]wireRequest{
		"requests": daemonRequests(e.corpus), // contains the Procs = 8 golden requests
		"sweep":    sweepRequests(e.corpus),
	}
	for _, sc := range scaleCases {
		r, err := scaleRequest(sc.family, sc.phases)
		if err != nil {
			return err
		}
		sets["scale"] = append(sets["scale"], r)
	}
	chains, err := editChainSources(sweepsProgram(16, 6, 64))
	if err != nil {
		return err
	}
	for _, chain := range editRequests(chains) {
		sets["edits"] = append(sets["edits"], chain...)
	}
	for _, set := range expectedSets {
		out := map[string]pinned{}
		for i := range sets[set] {
			r := &sets[set][i]
			if out[r.Key], err = pinRequest(r); err != nil {
				return err
			}
		}
		if set == "scale" {
			for _, sc := range scaleCases {
				want, err := scaleRecorded(e.root, sc.family, sc.phases)
				if err != nil {
					return err
				}
				if got := out[fmt.Sprintf("%s-%d", sc.family, sc.phases)].Cost; got != want {
					return fmt.Errorf("%s-%d: total_cost_us %s, BENCH_scale.json recorded %s", sc.family, sc.phases, got, want)
				}
			}
		}
		if err := writePinned(expectedPath(e.root, set), out); err != nil {
			return err
		}
		fmt.Printf("pinned %d answers in %s\n", len(out), expectedPath(e.root, set))
	}
	return nil
}

// writePinned writes one answer per line, keys sorted, so a re-pin that
// changes one answer is a one-line diff.
func writePinned(path string, m map[string]pinned) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, " %q: %s", k, line)
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
