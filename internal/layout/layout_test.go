package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func canonical2D(arrays ...string) *Alignment {
	a := NewAlignment()
	for _, n := range arrays {
		a.Set(n, []int{0, 1})
	}
	return a
}

func rowLayout(n, p int, arrays ...string) *Layout {
	return MustLayout(Template{Extents: []int{n, n}}, canonical2D(arrays...),
		[]DimDist{{Kind: Block, Procs: p}, {Kind: Star, Procs: 1}})
}

func colLayout(n, p int, arrays ...string) *Layout {
	return MustLayout(Template{Extents: []int{n, n}}, canonical2D(arrays...),
		[]DimDist{{Kind: Star, Procs: 1}, {Kind: Block, Procs: p}})
}

func TestBasicAccessors(t *testing.T) {
	l := rowLayout(64, 8, "x", "a")
	if l.Procs() != 8 {
		t.Errorf("procs = %d, want 8", l.Procs())
	}
	if !l.IsDistributed("x", 0) || l.IsDistributed("x", 1) {
		t.Error("row layout should distribute dim 0 only")
	}
	if got := l.DistributedDims("x"); len(got) != 1 || got[0] != 0 {
		t.Errorf("distributed dims = %v, want [0]", got)
	}
	if got := l.DistributedTemplateDims(); len(got) != 1 || got[0] != 0 {
		t.Errorf("distributed template dims = %v, want [0]", got)
	}
	if l.BlockSize(0) != 8 || l.BlockSize(1) != 64 {
		t.Errorf("block sizes = %d/%d, want 8/64", l.BlockSize(0), l.BlockSize(1))
	}
}

// owner is the HPF ownership rule the tests hold the layout's block
// sizes to: the 0-based processor coordinate along template dimension
// t that owns 0-based index idx.
func owner(l *Layout, t, idx int) int {
	d := l.Dist[t]
	switch d.Kind {
	case Block:
		return idx / ceilDiv(l.Template.Extents[t], d.Procs)
	case Cyclic:
		return idx % d.Procs
	case BlockCyclic:
		return (idx / d.Size) % d.Procs
	}
	return 0
}

func TestOwnerBlock(t *testing.T) {
	l := rowLayout(64, 8, "x")
	if owner(l, 0, 0) != 0 || owner(l, 0, 7) != 0 || owner(l, 0, 8) != 1 || owner(l, 0, 63) != 7 {
		t.Error("block owners wrong")
	}
	if owner(l, 1, 63) != 0 {
		t.Error("star dimension must be owned by coordinate 0")
	}
}

func TestOwnerBlockRemainder(t *testing.T) {
	// N=10 on 4 procs: block size ceil(10/4)=3 -> owners 0,0,0,1,1,1,2,2,2,3.
	l := MustLayout(Template{Extents: []int{10}}, func() *Alignment {
		a := NewAlignment()
		a.Set("v", []int{0})
		return a
	}(), []DimDist{{Kind: Block, Procs: 4}})
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range want {
		if got := owner(l, 0, i); got != w {
			t.Errorf("owner(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestOwnerCyclic(t *testing.T) {
	a := NewAlignment()
	a.Set("v", []int{0})
	l := MustLayout(Template{Extents: []int{8}}, a, []DimDist{{Kind: Cyclic, Procs: 3}})
	want := []int{0, 1, 2, 0, 1, 2, 0, 1}
	for i, w := range want {
		if got := owner(l, 0, i); got != w {
			t.Errorf("cyclic owner(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestOwnerBlockCyclic(t *testing.T) {
	a := NewAlignment()
	a.Set("v", []int{0})
	l := MustLayout(Template{Extents: []int{12}}, a,
		[]DimDist{{Kind: BlockCyclic, Procs: 2, Size: 2}})
	want := []int{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i, w := range want {
		if got := owner(l, 0, i); got != w {
			t.Errorf("block-cyclic owner(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestQuickOwnerPartition: every index has exactly one owner in range,
// and no processor owns more than the layout's BlockSize.
func TestQuickOwnerPartition(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(200)
		p := 2 + rng.Intn(16)
		kind := []Kind{Block, Cyclic, BlockCyclic}[rng.Intn(3)]
		d := DimDist{Kind: kind, Procs: p, Size: 1 + rng.Intn(4)}
		a := NewAlignment()
		a.Set("v", []int{0})
		l := MustLayout(Template{Extents: []int{n}}, a, []DimDist{d})
		counts := make([]int, p)
		for i := 0; i < n; i++ {
			o := owner(l, 0, i)
			if o < 0 || o >= p {
				return false
			}
			counts[o]++
		}
		for _, c := range counts {
			if c > l.BlockSize(0) {
				return false
			}
		}
		// Block distribution must assign contiguous runs.
		if kind == Block {
			prev := -1
			for i := 0; i < n; i++ {
				o := owner(l, 0, i)
				if o < prev {
					return false
				}
				prev = o
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOrientationSymmetryKey(t *testing.T) {
	// Canonical orientation + column distribution ≡ transposed
	// orientation + row distribution (§3.2): same Key.
	n := 16
	canonCol := colLayout(n, 4, "x")
	transposed := NewAlignment()
	transposed.Set("x", []int{1, 0})
	transRow := MustLayout(Template{Extents: []int{n, n}}, transposed,
		[]DimDist{{Kind: Block, Procs: 4}, {Kind: Star, Procs: 1}})
	if canonCol.Key() != transRow.Key() {
		t.Errorf("keys differ:\n%s\n%s", canonCol.Key(), transRow.Key())
	}
	if rowLayout(n, 4, "x").Key() == canonCol.Key() {
		t.Error("row and column layouts must have distinct keys")
	}
}

func TestSameArrayPlacement(t *testing.T) {
	row := rowLayout(32, 4, "x", "a")
	row2 := rowLayout(32, 4, "x", "a")
	col := colLayout(32, 4, "x", "a")
	if !SameArrayPlacement(row, row2, "x") {
		t.Error("identical layouts should place x identically")
	}
	if SameArrayPlacement(row, col, "x") {
		t.Error("row vs column should differ for x")
	}
}

func TestArrayKeyDistinguishesGridAxes(t *testing.T) {
	// 2-D distribution: x aligned canonically vs transposed occupies
	// different grid axes even though formats per dim match.
	tpl := Template{Extents: []int{16, 16}}
	dist := []DimDist{{Kind: Block, Procs: 2}, {Kind: Block, Procs: 2}}
	canon := NewAlignment()
	canon.Set("x", []int{0, 1})
	trans := NewAlignment()
	trans.Set("x", []int{1, 0})
	l1 := MustLayout(tpl, canon, dist)
	l2 := MustLayout(tpl, trans, dist)
	if l1.ArrayKey("x") == l2.ArrayKey("x") {
		t.Error("transposed 2-D placement should differ")
	}
}

func TestProcsMultiDim(t *testing.T) {
	a := NewAlignment()
	a.Set("x", []int{0, 1})
	l := MustLayout(Template{Extents: []int{32, 32}}, a,
		[]DimDist{{Kind: Block, Procs: 4}, {Kind: Block, Procs: 2}})
	if l.Procs() != 8 {
		t.Errorf("procs = %d, want 8", l.Procs())
	}
}

func TestCloneIndependent(t *testing.T) {
	l := rowLayout(8, 2, "x")
	c := l.Clone()
	c.Align.Set("x", []int{1, 0})
	if l.Align.Of("x", 0) != 0 {
		t.Error("clone shares alignment storage")
	}
}

func TestEmbeddingLowerRank(t *testing.T) {
	a := NewAlignment()
	a.Set("m", []int{0, 1})
	a.Set("v", []int{1}) // v aligned with template dim 2
	l := MustLayout(Template{Extents: []int{16, 16}}, a,
		[]DimDist{{Kind: Star, Procs: 1}, {Kind: Block, Procs: 4}})
	if !l.IsDistributed("v", 0) {
		t.Error("v should be distributed via its embedding")
	}
	if l.Align.Of("v", 1) != -1 {
		t.Error("out-of-rank dim should report -1")
	}
	if l.Align.Of("w", 0) != -1 {
		t.Error("unknown array should report -1")
	}
}

// TestQuickKeyMatchesPlacement: two layouts have equal keys iff every
// array is placed identically under both.
func TestQuickKeyMatchesPlacement(t *testing.T) {
	arrays := []string{"x", "y"}
	mk := func(rng *rand.Rand) *Layout {
		a := NewAlignment()
		for _, n := range arrays {
			if rng.Intn(2) == 0 {
				a.Set(n, []int{0, 1})
			} else {
				a.Set(n, []int{1, 0})
			}
		}
		dd := []DimDist{{Kind: Star, Procs: 1}, {Kind: Star, Procs: 1}}
		dd[rng.Intn(2)] = DimDist{Kind: Block, Procs: 4}
		return MustLayout(Template{Extents: []int{32, 32}}, a, dd)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l1, l2 := mk(rng), mk(rng)
		same := true
		for _, n := range arrays {
			if !SameArrayPlacement(l1, l2, n) {
				same = false
			}
		}
		return same == (l1.Key() == l2.Key())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The renderers the keys had before they were built with append and
// strconv, kept as the differential oracle: the keys are parts of the
// pricing and remap cache keys and what distrib.BuildSpace dedups on, so
// the new renderers must produce the same bytes.

func dimDistStringBaseline(d DimDist) string {
	switch d.Kind {
	case Star:
		return "*"
	case Block:
		return fmt.Sprintf("BLOCK/%d", d.Procs)
	case Cyclic:
		return fmt.Sprintf("CYCLIC/%d", d.Procs)
	case BlockCyclic:
		return fmt.Sprintf("CYCLIC(%d)/%d", d.Size, d.Procs)
	}
	return "?"
}

func keyBaseline(l *Layout) string {
	var b strings.Builder
	for _, a := range l.Align.Arrays() {
		fmt.Fprintf(&b, "%s(", a)
		for k := range l.Align.Map[a] {
			if k > 0 {
				b.WriteString(",")
			}
			t := l.Align.Of(a, k)
			b.WriteString(dimDistStringBaseline(l.Dist[t]))
		}
		b.WriteString(")")
	}
	return b.String()
}

func fullKeyBaseline(l *Layout) string {
	var b strings.Builder
	for t, d := range l.Dist {
		if t > 0 {
			b.WriteByte(',')
		}
		b.WriteString(dimDistStringBaseline(d))
	}
	for _, a := range l.Align.Arrays() {
		fmt.Fprintf(&b, "|%s:%v", a, l.Align.Map[a])
	}
	return b.String()
}

func gridAxisBaseline(l *Layout, t int) int {
	axis := 0
	for i := 0; i < t; i++ {
		if l.Dist[i].Kind != Star && l.Dist[i].Procs > 1 {
			axis++
		}
	}
	return axis
}

func arrayKeyBaseline(l *Layout, array string) string {
	m := l.Align.Map[array]
	parts := make([]string, len(m))
	for k, t := range m {
		d := l.Dist[t]
		if d.Kind == Star || d.Procs <= 1 {
			parts[k] = "*"
		} else {
			parts[k] = fmt.Sprintf("%s@%d", dimDistStringBaseline(d), gridAxisBaseline(l, t))
		}
	}
	return array + "(" + strings.Join(parts, ",") + ")"
}

func distributedDimsBaseline(l *Layout, array string) []int {
	var out []int
	for dim, t := range l.Align.Map[array] {
		if d := l.Dist[t]; d.Kind != Star && d.Procs > 1 {
			out = append(out, dim)
		}
	}
	return out
}

// checkAgainstBaseline compares every key and placement query of l with
// its baseline; "ghost" stands for an array the alignment does not know.
func checkAgainstBaseline(t testing.TB, l *Layout) {
	t.Helper()
	for _, d := range l.Dist {
		if got, want := d.String(), dimDistStringBaseline(d); got != want {
			t.Errorf("DimDist%+v.String() = %q, baseline %q", d, got, want)
		}
	}
	if got, want := l.Key(), keyBaseline(l); got != want {
		t.Errorf("Key() = %q, baseline %q", got, want)
	}
	if got, want := l.FullKey(), fullKeyBaseline(l); got != want {
		t.Errorf("FullKey() = %q, baseline %q", got, want)
	}
	for _, a := range append(l.Align.Arrays(), "ghost") {
		if got, want := l.ArrayKey(a), arrayKeyBaseline(l, a); got != want {
			t.Errorf("ArrayKey(%s) = %q, baseline %q", a, got, want)
		}
		want := distributedDimsBaseline(l, a)
		if got := l.DistributedDims(a); !slices.Equal(got, want) {
			t.Errorf("DistributedDims(%s) = %v, baseline %v", a, got, want)
		}
		for dim := 0; dim <= len(l.Align.Map[a]); dim++ {
			if got, want := l.IsDistributed(a, dim), slices.Contains(want, dim); got != want {
				t.Errorf("IsDistributed(%s, %d) = %v, baseline %v", a, dim, got, want)
			}
		}
	}
}

// fuzzLayout decodes bytes into a valid layout: template rank 1-4, up to
// five arrays each embedded injectively, any distribution format.
func fuzzLayout(data []byte) *Layout {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rank := 1 + next()%4
	tpl := Template{Extents: make([]int, rank)}
	dist := make([]DimDist, rank)
	for t := range dist {
		tpl.Extents[t] = 8 + next()
		switch Kind(next() % 4) {
		case Star:
			dist[t] = DimDist{Kind: Star, Procs: 1}
		case Block:
			dist[t] = DimDist{Kind: Block, Procs: 1 + next()%64}
		case Cyclic:
			dist[t] = DimDist{Kind: Cyclic, Procs: 1 + next()%64}
		case BlockCyclic:
			dist[t] = DimDist{Kind: BlockCyclic, Procs: 1 + next()%64, Size: 1 + next()%16}
		}
	}
	a := NewAlignment()
	for i, n := 0, next()%6; i < n; i++ {
		perm := rand.New(rand.NewSource(int64(next()))).Perm(rank)
		a.Set(fmt.Sprintf("a%d", next()%8), perm[:1+next()%rank])
	}
	return MustLayout(tpl, a, dist)
}

func FuzzKeysMatchBaseline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 24, 1, 3, 24, 2, 7, 3, 0, 0, 1, 1, 1, 1, 2, 2, 1})
	f.Add([]byte{3, 9, 3, 5, 2, 9, 0, 9, 1, 63, 9, 2, 1, 5, 4, 3, 3, 2, 2, 7, 1, 1, 0, 6, 6, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := fuzzLayout(data)
		checkAgainstBaseline(t, l)
		m := fuzzLayout(append([]byte{byte(l.Template.Rank() - 1)}, data...))
		for _, a := range append(l.Align.Arrays(), "ghost") {
			if got, want := SameArrayPlacement(l, m, a), arrayKeyBaseline(l, a) == arrayKeyBaseline(m, a); got != want {
				t.Errorf("SameArrayPlacement(%s) = %v between %s and %s, ArrayKey baseline says %v", a, got, l, m, want)
			}
		}
	})
}

// TestKeyAllocs pins what rendering a key costs: the string, and at
// most one growth of the buffer for a key longer than keyBuf.
func TestKeyAllocs(t *testing.T) {
	l := rowLayout(64, 8, "a", "b", "c", "x", "y")
	l.IsDistributed("x", 0) // derives the placement
	for name, fn := range map[string]func() string{"Key": l.Key, "FullKey": l.FullKey} {
		if n := testing.AllocsPerRun(100, func() { fn() }); n > 2 {
			t.Errorf("%s allocates %v times, want <= 2", name, n)
		}
	}
	m := colLayout(64, 8, "a", "b", "c", "x", "y")
	if n := testing.AllocsPerRun(100, func() {
		SameArrayPlacement(l, m, "x")
		l.IsDistributed("x", 0)
		_ = l.DistributedDims("y")
	}); n != 0 {
		t.Errorf("placement queries allocate %v times, want 0", n)
	}
}

// TestAlignmentSetDropsSortedView: the name-ordered view an alignment
// keeps for its layouts follows every Set.
func TestAlignmentSetDropsSortedView(t *testing.T) {
	a := canonical2D("x", "b")
	if got := a.Arrays(); !slices.Equal(got, []string{"b", "x"}) {
		t.Fatalf("Arrays() = %v", got)
	}
	a.Set("a", []int{1, 0})
	a.Set("x", []int{1})
	if got := a.Arrays(); !slices.Equal(got, []string{"a", "b", "x"}) {
		t.Fatalf("Arrays() after Set = %v", got)
	}
	l := MustLayout(Template{Extents: []int{8, 8}}, a, []DimDist{{Kind: Star, Procs: 1}, {Kind: Block, Procs: 4}})
	checkAgainstBaseline(t, l)
	if c := a.Clone(); !slices.Equal(c.Arrays(), a.Arrays()) || c.Of("x", 0) != 1 {
		t.Errorf("clone holds %v", c)
	}
}

// TestLayoutFrozenAfterFirstUse states the contract the derived
// placement rests on: a layout's placement queries read a view derived
// once, on first use, so a layout is edited by cloning it — the clone
// derives its own view from what it holds at its first use.
func TestLayoutFrozenAfterFirstUse(t *testing.T) {
	l := rowLayout(64, 8, "x")
	c := l.Clone() // cloned before either is used
	c.Align.Set("y", []int{1, 0})
	c.Dist[0], c.Dist[1] = c.Dist[1], c.Dist[0]
	checkAgainstBaseline(t, l)
	checkAgainstBaseline(t, c)
	if l.Key() == c.Key() || len(c.DistributedDims("y")) != 1 {
		t.Errorf("clone %s did not pick up its edits (original %s)", c, l)
	}
	// A clone of a used layout starts over too.
	d := c.Clone()
	d.Align.Set("z", []int{0})
	checkAgainstBaseline(t, d)
	// Concurrent first use is safe (meaningful under -race).
	e := l.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e.FullKey() != l.FullKey() || !e.IsDistributed("x", 0) {
				t.Error("concurrent first use saw a half-built placement")
			}
		}()
	}
	wg.Wait()
}
