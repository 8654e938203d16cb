package core

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/remap"
)

// pinnedPoint is one request of the benchmark's pinned set with the
// cache traffic the parent of the intern-table change booked for it:
// L1 pricing, L1 remap, L2 pricing, L2 remap, L2 selection, each as
// {hits, misses}.  The golden requests run cold against a SharedCache
// of their own; the six sweep-fill points share one, in this order, the
// way one sweep-fill op does.
type pinnedPoint struct {
	program string
	procs   int
	sweep   bool // Session.Analyze with Cyclic and MultiDim on
	traffic [5]CacheStats
}

var pinnedPoints = []pinnedPoint{
	{"adi", 8, false, [5]CacheStats{{0, 18}, {24, 14}, {0, 18}, {0, 14}, {0, 1}}},
	{"erlebacher", 8, false, [5]CacheStats{{0, 60}, {154, 18}, {0, 60}, {0, 18}, {0, 1}}},
	{"tomcatv", 8, false, [5]CacheStats{{0, 36}, {96, 64}, {0, 36}, {0, 64}, {0, 1}}},
	{"shallow", 8, false, [5]CacheStats{{0, 56}, {36, 76}, {0, 56}, {0, 76}, {0, 1}}},
	{"adi128", 8, false, [5]CacheStats{{0, 18}, {24, 12}, {0, 18}, {0, 12}, {0, 1}}},
	{"quickstart", 8, false, [5]CacheStats{{0, 4}, {0, 8}, {0, 4}, {0, 8}, {0, 1}}},
	{"conflict", 8, false, [5]CacheStats{{0, 8}, {0, 32}, {0, 8}, {0, 32}, {0, 1}}},
	{"adi", 4, true, [5]CacheStats{{0, 45}, {150, 75}, {0, 45}, {0, 75}, {0, 1}}},
	{"adi", 16, true, [5]CacheStats{{0, 63}, {294, 149}, {0, 63}, {0, 149}, {0, 1}}},
	{"erlebacher", 4, true, [5]CacheStats{{0, 180}, {1378, 162}, {0, 180}, {0, 162}, {0, 1}}},
	{"erlebacher", 16, true, [5]CacheStats{{0, 300}, {3826, 450}, {0, 300}, {0, 450}, {0, 1}}},
	{"tomcatv", 4, true, [5]CacheStats{{0, 81}, {477, 333}, {0, 81}, {0, 333}, {0, 1}}},
	{"tomcatv", 16, true, [5]CacheStats{{0, 117}, {1001, 689}, {0, 117}, {0, 689}, {0, 1}}},
}

// runPinned analyzes every pinned point through the request path at the
// given worker count.
func runPinned(t *testing.T, workers int) []*Result {
	t.Helper()
	ctx := context.Background()
	src := goldenSources(t)
	sweepCache := NewSharedCache(0)
	sessions := map[string]*Session{}
	out := make([]*Result, len(pinnedPoints))
	for i, pt := range pinnedPoints {
		req := Request{V: WireV1, Source: src[pt.program], Procs: pt.procs, Workers: workers, Cyclic: pt.sweep, MultiDim: pt.sweep}
		opt, err := req.BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		if !pt.sweep {
			opt.Cache = NewSharedCache(0)
			out[i], err = Analyze(ctx, Input{Source: req.Source}, opt)
		} else {
			sess := sessions[pt.program]
			if sess == nil {
				if sess, err = NewSession(ctx, Input{Source: req.Source}, opt); err != nil {
					t.Fatal(err)
				}
				sessions[pt.program] = sess
			}
			opt.Cache = sweepCache
			out[i], err = sess.Analyze(ctx, opt)
		}
		if err != nil {
			t.Fatalf("%s at Procs %d: %v", pt.program, pt.procs, err)
		}
	}
	return out
}

// replayCounts recounts, from the content strings alone, what a
// sequential run must have evaluated — the way the benchmark's layer
// replay (bench/layers.go) does: one pricing per distinct (phase
// signature, FullKey), one remap per distinct (from FullKey, to FullKey,
// joined live list) over every edge's candidate pairs plus the recorded
// remaps of the chosen pair.
func replayCounts(res *Result) (pricings, remaps int64) {
	type priceKey struct{ sig, layout string }
	type remapKey struct{ from, to, names string }
	priced, moved := map[priceKey]bool{}, map[remapKey]bool{}
	keys := make([][]string, len(res.Phases))
	for p, pr := range res.Phases {
		keys[p] = make([]string, len(pr.Candidates))
		for i, c := range pr.Candidates {
			keys[p][i] = c.Layout.FullKey()
			priced[priceKey{pr.sig.s, keys[p][i]}] = true
		}
	}
	for _, e := range res.PCFG.Edges {
		live := liveNames(res.LiveIn[e.To])
		for _, fk := range keys[e.From] {
			for _, tk := range keys[e.To] {
				moved[remapKey{fk, tk, joinNames(live)}] = true
			}
		}
		from, to := res.Phases[e.From], res.Phases[e.To]
		if names := remap.Moved(from.ChosenLayout(), to.ChosenLayout(), live); len(names) > 0 {
			moved[remapKey{keys[e.From][from.Chosen], keys[e.To][to.Chosen], joinNames(names)}] = true
		}
	}
	return int64(len(priced)), int64(len(moved))
}

// TestPinnedCacheTraffic is the harness's replay check inside tier-1: on
// the 7 golden requests and the 6 sweep-fill points the per-run miss
// counters equal the distinct pricings and remaps recounted from the
// content strings (ids stand for exactly those strings), and the whole
// CacheSummary is what the string-keyed tiers booked before ids existed.
func TestPinnedCacheTraffic(t *testing.T) {
	for i, res := range runPinned(t, 1) {
		pt := pinnedPoints[i]
		pricings, remaps := replayCounts(res)
		if got := res.Cache.Pricing.Misses; got != pricings {
			t.Errorf("%s/p%d: %d pricing misses, %d distinct (sig, FullKey)", pt.program, pt.procs, got, pricings)
		}
		if got := res.Cache.Remap.Misses; got != remaps {
			t.Errorf("%s/p%d: %d remap misses, %d distinct (from, to, live)", pt.program, pt.procs, got, remaps)
		}
		cs := res.Cache
		got := [5]CacheStats{cs.Pricing, cs.Remap, cs.SharedPricing, cs.SharedRemap, cs.SharedSelection}
		if got != pt.traffic || cs.Store != (StoreSummary{}) {
			t.Errorf("%s/p%d: cache summary %+v, pinned traffic %+v and no store", pt.program, pt.procs, cs, pt.traffic)
		}
	}
}

// TestWorkersSelectNothing: the pipeline runs on the calling goroutine
// whatever Workers says, so every worker count hands out the same ids,
// chooses the same layouts, books exactly the same cache traffic and
// answers with the same Response apart from timings.
func TestWorkersSelectNothing(t *testing.T) {
	response := func(r *Result) Response {
		w := *NewResponse(r)
		w.Selection.DurationUS, w.Stats.ElapsedUS, w.Stats.StageUS = 0, 0, nil
		return w
	}
	ref := runPinned(t, 1)
	for _, workers := range []int{0, 4, 8} {
		for i, b := range runPinned(t, workers) {
			a, pt := ref[i], pinnedPoints[i]
			if !slices.Equal(a.Selection.Choice, b.Selection.Choice) || a.TotalCost != b.TotalCost {
				t.Errorf("%s/p%d: Workers %d chose %v at %v, Workers 1 %v at %v", pt.program, pt.procs, workers,
					b.Selection.Choice, b.TotalCost, a.Selection.Choice, a.TotalCost)
			}
			if a.Cache != b.Cache {
				t.Errorf("%s/p%d: cache summary %+v at Workers %d, %+v at Workers 1", pt.program, pt.procs, b.Cache, workers, a.Cache)
			}
			if ra, rb := response(a), response(b); !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s/p%d: Workers %d answered %+v, Workers 1 %+v", pt.program, pt.procs, workers, rb, ra)
			}
			for p, pr := range a.Phases {
				if pr.sig != b.Phases[p].sig {
					t.Errorf("%s/p%d phase %d: signature ident differs at Workers %d", pt.program, pt.procs, p, workers)
				}
				for c, cand := range pr.Candidates {
					if cand.key != b.Phases[p].Candidates[c].key {
						t.Errorf("%s/p%d phase %d candidate %d: ident %+v at Workers 1, %+v at Workers %d",
							pt.program, pt.procs, p, c, cand.key, b.Phases[p].Candidates[c].key, workers)
					}
				}
			}
		}
	}
}

// TestInternIdentity: equal strings are one ident, and an ident is a
// function of the whole string — live lists that differ only in where a
// name ends stay apart, in the id and in the content hash.
func TestInternIdentity(t *testing.T) {
	ids := newInterner(4)
	sig := ids.intern("do i\n  a(i) = b(i)\nend do\n")
	if again := ids.intern("do i\n  a(i) = " + "b(i)\nend do\n"); again != sig {
		t.Errorf("equal signatures interned to %+v and %+v", sig, again)
	}
	left, right := ids.intern(joinNames([]string{"ab", "c"})), ids.intern(joinNames([]string{"a", "bc"}))
	if left.id == right.id || left.h == right.h || left.id == sig.id {
		t.Errorf("live lists {ab,c} and {a,bc} interned to %+v and %+v", left, right)
	}
	if left.h != hashString(left.s) || part(left.s).h != left.h {
		t.Error("an ident's hash is not the plain content hash of its string")
	}

	res, err := Analyze(context.Background(), Input{Source: adiSmall}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	bySig, byKey := map[string]uint32{}, map[string]uint32{}
	for p, pr := range res.Phases {
		if id, ok := bySig[pr.sig.s]; ok && id != pr.sig.id {
			t.Errorf("phase %d: signature seen before under id %d, now %d", p, id, pr.sig.id)
		}
		bySig[pr.sig.s] = pr.sig.id
		for c, cand := range pr.Candidates {
			if cand.key.s != cand.Layout.FullKey() {
				t.Errorf("phase %d candidate %d: ident of %q, FullKey %q", p, c, cand.key.s, cand.Layout.FullKey())
			}
			if id, ok := byKey[cand.key.s]; ok && id != cand.key.id {
				t.Errorf("phase %d candidate %d: FullKey seen before under id %d, now %d", p, c, id, cand.key.id)
			}
			byKey[cand.key.s] = cand.key.id
		}
	}
	if len(byKey) >= len(res.Phases)*len(res.Phases[0].Candidates) {
		t.Error("adi's sweeps share no candidate layout: the sharing this test watches never happened")
	}
}

// TestBuiltInModelIsSharedAndKeyedOnce is the leak trap: a request for a
// built-in machine gets the one shared model, whose content key is kept
// in the model itself — so ten thousand requests neither build models
// nor grow a table of keys.
func TestBuiltInModelIsSharedAndKeyedOnce(t *testing.T) {
	req := Request{V: WireV1, Source: adiSmall, Procs: 4, Machine: "ipsc860"}
	first, err := req.BuildOptions()
	if err != nil {
		t.Fatal(err)
	}
	key := req.Key(first)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heap()
	for i := 0; i < 10000; i++ {
		opt, err := req.BuildOptions()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Machine != first.Machine {
			t.Fatalf("request %d got its own ipsc860 model", i)
		}
		if req.Key(opt) != key {
			t.Fatalf("request %d: key changed", i)
		}
	}
	if after := heap(); after > before+1<<20 {
		t.Errorf("10000 requests grew the heap in use from %d to %d bytes", before, after)
	}
}
