package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fortran"
)

func TestTableSizeExceeds100(t *testing.T) {
	// The paper's prototype uses over 100 training sets.
	for _, m := range []*Model{IPSC860(), Paragon()} {
		if m.numSets <= 100 {
			t.Errorf("%s: %d training sets, want > 100", m.Name(), m.numSets)
		}
	}
}

func TestOpTimes(t *testing.T) {
	m := IPSC860()
	if m.OpTime(OpAddSub, fortran.Double) <= 0 {
		t.Error("double addsub not positive")
	}
	if m.OpTime(OpDiv, fortran.Double) <= m.OpTime(OpMul, fortran.Double) {
		t.Error("divide should cost more than multiply")
	}
	// Single precision cheaper than double.
	if m.OpTime(OpAddSub, fortran.Real) >= m.OpTime(OpAddSub, fortran.Double) {
		t.Error("real should be cheaper than double")
	}
	// Integers priced as single precision.
	if m.OpTime(OpAddSub, fortran.Integer) != m.OpTime(OpAddSub, fortran.Real) {
		t.Error("integer pricing mismatch")
	}
}

func TestMsgTimeMonotoneInBytes(t *testing.T) {
	m := IPSC860()
	small := m.MsgTime(Shift, 16, 100, UnitStride, HighLatency)
	big := m.MsgTime(Shift, 16, 10000, UnitStride, HighLatency)
	if big <= small {
		t.Errorf("bigger message not slower: %v vs %v", big, small)
	}
}

func TestNonUnitStrideCostsMore(t *testing.T) {
	m := IPSC860()
	unit := m.MsgTime(Shift, 16, 4096, UnitStride, HighLatency)
	packed := m.MsgTime(Shift, 16, 4096, NonUnitStride, HighLatency)
	if packed <= unit {
		t.Errorf("non-unit stride not more expensive: %v vs %v", packed, unit)
	}
}

func TestLowLatencyCheaper(t *testing.T) {
	m := IPSC860()
	high := m.MsgTime(Shift, 16, 1024, UnitStride, HighLatency)
	low := m.MsgTime(Shift, 16, 1024, UnitStride, LowLatency)
	if low >= high {
		t.Errorf("low latency not cheaper: %v vs %v", low, high)
	}
}

func TestBroadcastScalesWithLogP(t *testing.T) {
	m := IPSC860()
	b4 := m.MsgTime(Broadcast, 4, 1024, UnitStride, HighLatency)
	b16 := m.MsgTime(Broadcast, 16, 1024, UnitStride, HighLatency)
	if b16 <= b4 {
		t.Errorf("broadcast on more processors not slower: %v vs %v", b16, b4)
	}
	// Ratio should be about log2(16)/log2(4) = 2.
	if r := b16 / b4; r < 1.8 || r > 2.2 {
		t.Errorf("broadcast scaling ratio = %v, want ≈2", r)
	}
}

func TestShiftIndependentOfProcs(t *testing.T) {
	// A nearest-neighbor shift happens on all processors in parallel;
	// its cost per event does not grow with P.
	m := IPSC860()
	s4 := m.MsgTime(Shift, 4, 1024, UnitStride, HighLatency)
	s64 := m.MsgTime(Shift, 64, 1024, UnitStride, HighLatency)
	if s4 != s64 {
		t.Errorf("shift cost varies with procs: %v vs %v", s4, s64)
	}
}

func TestReductionCostsMoreThanShift(t *testing.T) {
	m := IPSC860()
	r := m.MsgTime(Reduction, 16, 8, UnitStride, HighLatency)
	s := m.MsgTime(Shift, 16, 8, UnitStride, HighLatency)
	if r <= s {
		t.Errorf("reduction %v not more than shift %v", r, s)
	}
}

func TestInterpolationBetweenGridPoints(t *testing.T) {
	m := IPSC860()
	lo := m.MsgTime(Broadcast, 8, 1000, UnitStride, HighLatency)
	mid := m.MsgTime(Broadcast, 12, 1000, UnitStride, HighLatency)
	hi := m.MsgTime(Broadcast, 16, 1000, UnitStride, HighLatency)
	if !(lo < mid && mid < hi) {
		t.Errorf("interpolation not monotone: %v %v %v", lo, mid, hi)
	}
}

func TestClampOutsideGrid(t *testing.T) {
	m := IPSC860()
	if got, want := m.MsgTime(Shift, 256, 100, UnitStride, HighLatency),
		m.MsgTime(Shift, 128, 100, UnitStride, HighLatency); got != want {
		t.Errorf("clamp high: %v vs %v", got, want)
	}
	if m.MsgTime(Shift, 1, 100, UnitStride, HighLatency) != 0 {
		t.Error("single processor should communicate for free")
	}
}

func TestParagonFasterNetwork(t *testing.T) {
	i := IPSC860()
	p := Paragon()
	big := 1 << 20
	if p.MsgTime(SendRecv, 16, big, UnitStride, HighLatency) >=
		i.MsgTime(SendRecv, 16, big, UnitStride, HighLatency) {
		t.Error("Paragon should move large messages faster than iPSC/860")
	}
}

// TestQuickMsgTimeProperties: cost is nonnegative, monotone in bytes,
// and non-unit stride never cheaper, across random lookups.
func TestQuickMsgTimeProperties(t *testing.T) {
	m := IPSC860()
	pats := []Pattern{Shift, SendRecv, Broadcast, Reduction, Transpose}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pat := pats[rng.Intn(len(pats))]
		procs := 2 + rng.Intn(120)
		bytes := rng.Intn(1 << 16)
		lat := Latency(rng.Intn(2))
		a := m.MsgTime(pat, procs, bytes, UnitStride, lat)
		b := m.MsgTime(pat, procs, bytes+512, UnitStride, lat)
		c := m.MsgTime(pat, procs, bytes, NonUnitStride, lat)
		return a >= 0 && b >= a && c >= a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetsAreSortedAndComplete(t *testing.T) {
	m := IPSC860()
	sets := m.Sets()
	if len(sets) != m.numSets {
		t.Fatalf("Sets() = %d entries, want %d", len(sets), m.numSets)
	}
	// Every (pattern, stride, latency) combination appears for every
	// grid processor count.
	type key struct {
		p Pattern
		s Stride
		l Latency
		n int
	}
	seen := map[key]bool{}
	for _, ts := range sets {
		seen[key{ts.Pattern, ts.Stride, ts.Latency, ts.Procs}] = true
	}
	want := 5 * 2 * 2 * len(procGrid)
	if len(seen) != want {
		t.Errorf("distinct entries = %d, want %d", len(seen), want)
	}
}

func TestStringers(t *testing.T) {
	if Shift.String() != "shift" || Transpose.String() != "transpose" {
		t.Error("pattern strings")
	}
	if UnitStride.String() != "unit" || NonUnitStride.String() != "non-unit" {
		t.Error("stride strings")
	}
	if HighLatency.String() != "high" || LowLatency.String() != "low" {
		t.Error("latency strings")
	}
}

func TestCluster2020Relations(t *testing.T) {
	c := Cluster2020()
	i := IPSC860()
	if c.numSets <= 100 {
		t.Error("cluster table too small")
	}
	// Messages and flops both got faster, but the *ratio* of start-up
	// to flop grew: modern machines favor coarse communication even
	// more strongly.
	ratioOld := i.MsgTime(Shift, 16, 0, UnitStride, HighLatency) / i.OpTime(OpAddSub, fortran.Double)
	ratioNew := c.MsgTime(Shift, 16, 0, UnitStride, HighLatency) / c.OpTime(OpAddSub, fortran.Double)
	if ratioNew <= ratioOld {
		t.Errorf("startup/flop ratio should grow: %v vs %v", ratioNew, ratioOld)
	}
}

// TestBuiltInsSharedAndKeyedOnce: the built-in models are singletons
// (a Model has no mutator, and Sets hands out copies), and ContentKey
// runs its derivation once per model and keeps the result in it.
func TestBuiltInsSharedAndKeyedOnce(t *testing.T) {
	if IPSC860() != IPSC860() || Paragon() != Paragon() || Cluster2020() != Cluster2020() {
		t.Fatal("a built-in model was rebuilt")
	}
	sets := IPSC860().Sets()
	sets[0].Startup = -1
	if IPSC860().Sets()[0].Startup < 0 {
		t.Fatal("Sets exposes the shared model's table")
	}
	m, calls := &Model{name: "private"}, 0 // not a shared model: the count below is this test's alone
	derive := func(m *Model) string { calls++; return "key of " + m.Name() }
	if a, b := m.ContentKey(derive), m.ContentKey(derive); a != "key of private" || b != a || calls != 1 {
		t.Errorf("ContentKey = %q then %q after %d derivations, want one", a, b, calls)
	}
}
