package core

// Wire-schema tests: the v1 Request/Response field names are a
// compatibility contract (layoutd clients and the CLI's -json mode
// both speak it), so the serialized key sets are pinned literally —
// renaming a field fails here before it breaks a client.

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/compmodel"
)

// wireTestSrc is a minimal two-phase program for response tests.
const wireTestSrc = `
program wire
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(j,i) * 2.0
    end do
  end do
end
`

// fullRequest populates every wire field with a non-zero value so the
// pinned rendering exercises the whole schema.
func fullRequest() *Request {
	return &Request{
		V:               WireV1,
		Source:          "program p\nend\n",
		Procs:           8,
		Machine:         "paragon",
		MachineTable:    "",
		Cyclic:          true,
		MultiDim:        true,
		UseDP:           true,
		GreedyAlign:     true,
		ImportScale:     500,
		IgnoreProbHints: true,
		DefaultTrip:     50,
		DefaultProb:     0.25,
		Compiler: compmodel.Options{
			NoMessageVectorization: true,
			NoMessageCoalescing:    true,
			LoopInterchange:        true,
			CoarseGrainPipelining:  true,
		},
		TimeoutMS: 1500,
		Strict:    true,
		Workers:   3,
		NoCache:   true,
		Verify:    true,
	}
}

// TestRequestSchemaPinned pins the exact v1 request serialization:
// field names are wire compatibility, so any rename shows up as a
// readable diff here.
func TestRequestSchemaPinned(t *testing.T) {
	b, err := json.Marshal(fullRequest())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"source":"program p\nend\n","procs":8,"machine":"paragon",` +
		`"cyclic":true,"multidim":true,"use_dp":true,` +
		`"greedy_align":true,"import_scale":500,"ignore_prob_hints":true,` +
		`"default_trip":50,"default_prob":0.25,` +
		`"compiler":{"no_message_vectorization":true,"no_message_coalescing":true,` +
		`"loop_interchange":true,"coarse_grain_pipelining":true},` +
		`"timeout_ms":1500,"strict":true,"workers":3,"no_cache":true,"verify":true}`
	if string(b) != want {
		t.Errorf("request schema drifted:\n got: %s\nwant: %s", b, want)
	}
}

// TestRequestRoundTrip checks marshal → DecodeRequest is the identity.
func TestRequestRoundTrip(t *testing.T) {
	orig := fullRequest()
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Errorf("round trip changed the request:\n got: %+v\nwant: %+v", got, orig)
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"v":1,"source":"x","procs":4,"bogus":true}`},
		{"malformed", `{"v":1,`},
		{"trailing data", `{"v":1,"source":"x","procs":4}{"v":1}`},
		{"wrong version", `{"v":2,"source":"x","procs":4}`},
		{"missing version", `{"source":"x","procs":4}`},
		// Phase merging is gone: its old field is now an unknown field.
		{"removed merge_phases", `{"v":1,"source":"x","procs":4,"merge_phases":true}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("want *WireError, got %v", err)
			}
		})
	}
}

// TestBuildOptionsParity proves the CLI and the server share one
// options path: a request carrying the CLI's flag values maps to
// exactly the Options the CLI used to assemble by hand.
func TestBuildOptionsParity(t *testing.T) {
	req := &Request{
		V:           WireV1,
		Source:      wireTestSrc,
		Procs:       16,
		Machine:     "cluster2020",
		Cyclic:      true,
		GreedyAlign: true,
		TimeoutMS:   250,
		Strict:      true,
		Workers:     2,
		Verify:      true,
	}
	opt, err := req.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Procs != 16 || !opt.Cyclic || opt.MultiDim || !opt.Align.Greedy ||
		opt.Timeout != 250*time.Millisecond || !opt.Strict || opt.Workers != 2 ||
		opt.Verify != VerifyOn {
		t.Errorf("options drifted from the request: %+v", opt)
	}
	if opt.Machine == nil || opt.Machine.Name() != "Cluster-2020" && opt.Machine.Name() != "cluster2020" {
		// Name formatting is the machine package's; just require the
		// cluster model, not the default.
		if len(opt.Machine.Sets()) == 0 {
			t.Errorf("machine not resolved: %v", opt.Machine)
		}
	}

	for _, bad := range []*Request{
		{V: WireV1, Source: wireTestSrc, Procs: 1},                          // Procs < 2
		{V: WireV1, Source: wireTestSrc, Procs: 4, Machine: "cm5"},          // unknown machine
		{V: WireV1, Source: "", Procs: 4},                                   // empty source
		{V: WireV1, Source: wireTestSrc, Procs: 4, TimeoutMS: -1},           // negative budget
		{V: WireV1, Source: wireTestSrc, Procs: 4, MachineTable: "garbage"}, // bad table
	} {
		if _, err := bad.BuildOptions(); err == nil {
			t.Errorf("BuildOptions(%+v) accepted invalid request", bad)
		}
	}
}

// TestWireRangeChecks: an out-of-range default_prob or import_scale is
// a *ValidationError (a typed 400 from a server), while the schema
// pin's 0.25 and 500 stay valid.
func TestWireRangeChecks(t *testing.T) {
	for _, tc := range []struct {
		field string
		valid bool
	}{
		{`"default_prob":-0.5`, false},
		{`"default_prob":1`, false},
		{`"default_prob":2`, false},
		{`"import_scale":-1`, false},
		{`"default_prob":0.25,"import_scale":500`, true},
	} {
		req, err := DecodeRequest(strings.NewReader(`{"v":1,"source":"program p\nend\n","procs":4,` + tc.field + `}`))
		if err != nil {
			t.Fatalf("%s: %v", tc.field, err)
		}
		_, err = req.BuildOptions()
		var verr *ValidationError
		if tc.valid && err != nil || !tc.valid && !errors.As(err, &verr) {
			t.Errorf("%s: BuildOptions err = %v, want valid=%v", tc.field, err, tc.valid)
		}
	}
}

// tripTestSrc wraps two phases in a time-step loop whose bound m is
// unknown at compile time, so its trip count is the default_trip.
const tripTestSrc = `
program trip
  parameter (n = 16)
  integer m
  real a(n,n), b(n,n)
  do k = 1, m
    do j = 1, n
      do i = 1, n
        a(i,j) = b(i,j) + 1.0
      end do
    end do
    do j = 1, n
      do i = 1, n
        b(i,j) = a(j,i) * 2.0
      end do
    end do
  end do
end
`

// TestBuildOptionsDefaultTrip: a request's default_trip reaches the
// PCFG, so the frequency of a loop with an unknown bound — and with it
// every phase's weight in the total cost — follows the request.
func TestBuildOptionsDefaultTrip(t *testing.T) {
	analyze := func(trip int) *Result {
		t.Helper()
		opt, err := (&Request{V: WireV1, Source: tripTestSrc, Procs: 8, DefaultTrip: trip}).BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		if opt.PCFG.DefaultTrip != trip || opt.DefaultTrip != trip {
			t.Fatalf("default_trip %d built PCFG.DefaultTrip %d, DefaultTrip %d", trip, opt.PCFG.DefaultTrip, opt.DefaultTrip)
		}
		res, err := Analyze(context.Background(), Input{Source: tripTestSrc}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r10, r1000 := analyze(10), analyze(1000)
	if len(r10.Phases) != 2 || len(r1000.Phases) != 2 {
		t.Fatalf("phases = %d and %d, want 2", len(r10.Phases), len(r1000.Phases))
	}
	for i := range r10.Phases {
		f10, f1000 := r10.Phases[i].Phase.Freq, r1000.Phases[i].Phase.Freq
		if f10 != 10 || f1000 != 1000 {
			t.Errorf("phase %d frequency = %v (trip 10) and %v (trip 1000), want 10 and 1000", i, f10, f1000)
		}
	}
	if r10.TotalCost >= r1000.TotalCost {
		t.Errorf("total cost %v (trip 10) not below %v (trip 1000)", r10.TotalCost, r1000.TotalCost)
	}
}

// TestRequestKey pins the dedup identity: equal requests hash equal —
// Workers, which selects nothing, included — any option change hashes
// different, and a named machine equals its serialized table (both
// resolve to the same artifact.MachineKey).
func TestRequestKey(t *testing.T) {
	base := &Request{V: WireV1, Source: wireTestSrc, Procs: 8}
	baseOpt, err := base.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []*Request{
		{V: WireV1, Source: wireTestSrc, Procs: 8},
		{V: WireV1, Source: wireTestSrc, Procs: 8, Workers: 2},
	} {
		sameOpt, _ := same.BuildOptions()
		if base.Key(baseOpt) != same.Key(sameOpt) {
			t.Errorf("%+v: key differs from the base request's", *same)
		}
	}
	variants := []*Request{
		{V: WireV1, Source: wireTestSrc + "\n", Procs: 8},
		{V: WireV1, Source: wireTestSrc, Procs: 16},
		{V: WireV1, Source: wireTestSrc, Procs: 8, Cyclic: true},
		{V: WireV1, Source: wireTestSrc, Procs: 8, Machine: "paragon"},
		{V: WireV1, Source: wireTestSrc, Procs: 8, TimeoutMS: 100},
		{V: WireV1, Source: wireTestSrc, Procs: 8, Verify: true},
	}
	seen := map[string]int{string(base.Key(baseOpt)): -1}
	for i, v := range variants {
		opt, err := v.BuildOptions()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		k := string(v.Key(opt))
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide", i, j)
		}
		seen[k] = i
	}
}

// TestResponseSchemaPinned pins the v1 response key set (values vary
// run to run — elapsed times, cache counters — so the pin is on the
// flattened key paths, not the bytes).
func TestResponseSchemaPinned(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: wireTestSrc},
		Options{Procs: 8, Verify: VerifyOn})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(NewResponse(res))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			paths = append(paths, prefix)
			return
		}
		for k, sub := range obj {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			// Map-valued leaves with dynamic keys (stage names, artifact
			// stages, incremental stage counters) are pinned as the
			// container only.
			if prefix == "stats" && k == "stage_us" || k == "artifacts" ||
				prefix == "stats.incremental" && k == "stages" {
				paths = append(paths, p)
				continue
			}
			walk(p, sub)
		}
	}
	walk("", m)
	sort.Strings(paths)
	cacheLeaves := func(layer string) []string {
		return []string{layer + ".hits", layer + ".misses"}
	}
	var want []string
	want = append(want, "v", "hpf", "total_cost_us", "dynamic", "procs", "machine", "artifacts",
		"selection.vars", "selection.constraints", "selection.bb_nodes",
		"selection.duration_us", "selection.degraded", "selection.gap",
		"selection.route",
		"stats.v", "stats.elapsed_us", "stats.stage_us",
		"stats.solver.solves", "stats.solver.nodes", "stats.solver.lp_pivots",
		"stats.solver.lp_warm", "stats.solver.lp_cold", "stats.solver.rc_fixed",
		"stats.solver.presolved", "stats.solver.lp_sparse", "stats.solver.route",
		"stats.incremental.edits", "stats.incremental.reuse_ratio")
	for _, layer := range []string{"pricing", "remap", "shared_pricing", "shared_remap", "shared_selection"} {
		want = append(want, cacheLeaves("stats.cache."+layer)...)
	}
	want = append(want, "stats.cache.store.hits", "stats.cache.store.misses",
		"stats.cache.store.writes", "stats.cache.store.decode_failures",
		"stats.cache.store.quarantined", "stats.cache.store.evictions",
		"stats.cache.store.entries", "stats.cache.store.bytes",
		"stats.cache.store.memory_only")
	sort.Strings(want)
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("response schema drifted:\n got: %v\nwant: %v", paths, want)
	}
}

// TestResponseMatchesResult checks the wire response carries the
// Result faithfully: same HPF bytes, cost, remaps and degradations.
func TestResponseMatchesResult(t *testing.T) {
	res, err := Analyze(context.Background(), Input{Source: wireTestSrc},
		Options{Procs: 8, Verify: VerifyOn})
	if err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(res)
	if resp.HPF != res.EmitHPF() {
		t.Error("HPF text differs from EmitHPF")
	}
	if resp.TotalCostUS != res.TotalCost || resp.Dynamic != res.Dynamic {
		t.Errorf("cost/dynamic drifted: %v/%v vs %v/%v",
			resp.TotalCostUS, resp.Dynamic, res.TotalCost, res.Dynamic)
	}
	if len(resp.Remaps) != len(res.Remaps) {
		t.Errorf("remap count %d vs %d", len(resp.Remaps), len(res.Remaps))
	}
	var rt Response
	b, _ := json.Marshal(resp)
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.HPF != resp.HPF || rt.TotalCostUS != resp.TotalCostUS {
		t.Error("response does not survive a JSON round trip")
	}
}
