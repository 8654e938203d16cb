package cag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddPreferenceDirectionRule(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 2)
	g.AddArray("b", 2)
	a1, b1 := Node{"a", 0}, Node{"b", 0}

	// Fresh edge.
	g.AddPreference(a1, b1, 10)
	e := g.Edges()[0]
	if e.Weight != 10 || e.From != a1 {
		t.Fatalf("edge = %+v, want a->b weight 10", e)
	}
	// Same direction: unchanged (§3.1).
	g.AddPreference(a1, b1, 5)
	e = g.Edges()[0]
	if e.Weight != 10 {
		t.Errorf("same-direction weight = %v, want 10 (unchanged)", e.Weight)
	}
	// Opposite direction: weight increases, direction reverses.
	g.AddPreference(b1, a1, 7)
	e = g.Edges()[0]
	if e.Weight != 17 || e.From != b1 {
		t.Errorf("flipped edge = %+v, want b->a weight 17", e)
	}
}

func TestSelfEdgesIgnored(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 2)
	g.AddPreference(Node{"a", 0}, Node{"a", 1}, 5)
	if len(g.Edges()) != 0 {
		t.Error("intra-array preference should be dropped")
	}
}

func TestConflictDetection(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 2)
	g.AddArray("b", 1)
	if g.HasConflict() {
		t.Fatal("empty CAG conflicts")
	}
	g.AddWeight(Node{"a", 0}, Node{"b", 0}, 1)
	if g.HasConflict() {
		t.Fatal("single edge conflicts")
	}
	// Path a[1] - b[1] - a[2] connects two dims of a.
	g.AddWeight(Node{"a", 1}, Node{"b", 0}, 1)
	if !g.HasConflict() {
		t.Fatal("conflict not detected")
	}
}

func TestPartitioningFromComponents(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 2)
	g.AddArray("b", 2)
	g.AddWeight(Node{"a", 0}, Node{"b", 0}, 1)
	p := g.Partitioning()
	if p.NumParts() != 3 {
		t.Fatalf("parts = %v, want 3", p)
	}
	if p.HasConflict() {
		t.Error("unexpected conflict")
	}
}

func TestMergeAddsWeights(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 1)
	g.AddArray("b", 1)
	g.AddWeight(Node{"a", 0}, Node{"b", 0}, 3)
	h := NewGraph()
	h.AddArray("a", 1)
	h.AddArray("b", 1)
	h.AddWeight(Node{"a", 0}, Node{"b", 0}, 4)
	m := g.Merge(h)
	if w := totalWeight(m); w != 7 {
		t.Errorf("merged weight = %v, want 7", w)
	}
	// Originals untouched.
	if totalWeight(g) != 3 || totalWeight(h) != 4 {
		t.Error("merge mutated an operand")
	}
}

func TestScaleWeights(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 1)
	g.AddArray("b", 1)
	g.AddWeight(Node{"a", 0}, Node{"b", 0}, 3)
	g.ScaleWeights(100)
	if totalWeight(g) != 300 {
		t.Errorf("scaled weight = %v", totalWeight(g))
	}
}

// totalWeight sums all edge weights.
func totalWeight(g *Graph) float64 {
	w := 0.0
	for _, e := range g.edges {
		w += e.Weight
	}
	return w
}

// enumerateConflictFree counts conflict-free partitionings of the nodes
// of two rank-2 arrays by brute force (Figure 2's lattice).
func enumerateConflictFree() []Partitioning {
	nodes := []Node{{"a", 0}, {"a", 1}, {"b", 0}, {"b", 1}}
	var out []Partitioning
	// Enumerate set partitions of 4 elements via restricted growth.
	var rec func(i int, parts [][]Node)
	rec = func(i int, parts [][]Node) {
		if i == len(nodes) {
			p := NewPartitioning(parts)
			if !p.HasConflict() {
				out = append(out, p)
			}
			return
		}
		for j := range parts {
			parts[j] = append(parts[j], nodes[i])
			rec(i+1, parts)
			parts[j] = parts[j][:len(parts[j])-1]
		}
		rec(i+1, append(parts, []Node{nodes[i]}))
	}
	rec(0, nil)
	return out
}

func TestFigure2LatticeSize(t *testing.T) {
	all := enumerateConflictFree()
	// Bottom + 4 single pairings + 2 full pairings = 7 elements.
	if len(all) != 7 {
		t.Fatalf("lattice size = %d, want 7", len(all))
	}
	bottom := discrete([]Node{{"a", 0}, {"a", 1}, {"b", 0}, {"b", 1}})
	for _, p := range all {
		if !bottom.Refines(p) {
			t.Errorf("bottom does not refine %v", p)
		}
	}
	// Exactly two maximal elements (the two full pairings).
	maximal := 0
	for _, p := range all {
		isMax := true
		for _, q := range all {
			if !p.Equal(q) && p.Refines(q) {
				isMax = false
			}
		}
		if isMax {
			maximal++
		}
	}
	if maximal != 2 {
		t.Errorf("maximal elements = %d, want 2", maximal)
	}
}

func TestRefinesBasics(t *testing.T) {
	n := []Node{{"a", 0}, {"a", 1}, {"b", 0}, {"b", 1}}
	bottom := discrete(n)
	paired := NewPartitioning([][]Node{{n[0], n[2]}, {n[1], n[3]}})
	if !bottom.Refines(paired) {
		t.Error("bottom must refine everything")
	}
	if paired.Refines(bottom) {
		t.Error("paired must not refine bottom")
	}
	if !paired.Refines(paired) {
		t.Error("refines must be reflexive")
	}
}

// discrete returns the bottom element over nodes: every node alone
// (the CAG without edges).
func discrete(nodes []Node) Partitioning {
	parts := make([][]Node, len(nodes))
	for i, n := range nodes {
		parts[i] = []Node{n}
	}
	return NewPartitioning(parts)
}

// randomPartitioning builds a random partitioning of a fixed node set.
func randomPartitioning(rng *rand.Rand, nodes []Node, maxParts int) Partitioning {
	k := 1 + rng.Intn(maxParts)
	parts := make([][]Node, k)
	for _, n := range nodes {
		i := rng.Intn(k)
		parts[i] = append(parts[i], n)
	}
	return NewPartitioning(parts)
}

func latticeNodes() []Node {
	return []Node{{"a", 0}, {"a", 1}, {"b", 0}, {"b", 1}, {"c", 0}, {"c", 1}, {"d", 0}}
}

func TestQuickRefinesPartialOrder(t *testing.T) {
	nodes := latticeNodes()
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPartitioning(rng, nodes, 4)
		q := randomPartitioning(rng, nodes, 4)
		r := randomPartitioning(rng, nodes, 4)
		// Antisymmetry.
		if p.Refines(q) && q.Refines(p) && !p.Equal(q) {
			return false
		}
		// Transitivity.
		if p.Refines(q) && q.Refines(r) && !p.Refines(r) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRestrict(t *testing.T) {
	n := []Node{{"a", 0}, {"b", 0}, {"c", 0}}
	p := NewPartitioning([][]Node{{n[0], n[1], n[2]}})
	r := p.Restrict(map[string]bool{"a": true, "b": true})
	want := NewPartitioning([][]Node{{n[0], n[1]}})
	if !r.Equal(want) {
		t.Errorf("restrict = %v, want %v", r, want)
	}
}

func TestResolveFigure8(t *testing.T) {
	// Figure 8's CAG: x1->y1 and x2->y1 — a conflict.  With weights 5
	// and 3, the optimal 2-partitioning cuts the weight-3 edge.
	g := NewGraph()
	g.AddArray("x", 2)
	g.AddArray("y", 2)
	g.AddPreference(Node{"x", 0}, Node{"y", 0}, 5)
	g.AddPreference(Node{"x", 1}, Node{"y", 0}, 3)
	if !g.HasConflict() {
		t.Fatal("expected conflict")
	}
	res, err := Resolve(g, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 3 {
		t.Errorf("cut = %v, want 3", res.CutWeight)
	}
	if res.Assignment[Node{"x", 0}] != res.Assignment[Node{"y", 0}] {
		t.Error("x1 and y1 should share a partition")
	}
	if res.Assignment[Node{"x", 1}] == res.Assignment[Node{"y", 0}] {
		t.Error("x2 and y1 must be separated")
	}
	if res.Stats.Vars == 0 || res.Stats.Constraints == 0 {
		t.Error("stats not recorded")
	}
}

func TestResolveConflictFreeSkipsILP(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 2)
	g.AddArray("b", 2)
	g.AddWeight(Node{"a", 0}, Node{"b", 0}, 2)
	g.AddWeight(Node{"a", 1}, Node{"b", 1}, 2)
	res, err := Resolve(g, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Vars != 0 {
		t.Error("conflict-free input should bypass the ILP")
	}
	if res.CutWeight != 0 {
		t.Errorf("cut = %v, want 0", res.CutWeight)
	}
	// Assignment must separate dims of each array.
	if res.Assignment[Node{"a", 0}] == res.Assignment[Node{"a", 1}] {
		t.Error("dims of a share a partition")
	}
}

func TestResolveRankAboveTemplate(t *testing.T) {
	g := NewGraph()
	g.AddArray("a", 3)
	if _, err := Resolve(g, 2, nil, nil); err == nil {
		t.Fatal("expected rank error")
	}
}

// bruteForceCut finds the minimal cut weight over all d-partitionings.
func bruteForceCut(g *Graph, d int) float64 {
	nodes := g.Nodes()
	best := math.Inf(1)
	asg := make([]int, len(nodes))
	idx := map[Node]int{}
	for i, n := range nodes {
		idx[n] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			// Validate: no two dims of an array together.
			byArray := map[string]map[int]bool{}
			for j, n := range nodes {
				if byArray[n.Array] == nil {
					byArray[n.Array] = map[int]bool{}
				}
				if byArray[n.Array][asg[j]] {
					return
				}
				byArray[n.Array][asg[j]] = true
			}
			cut := 0.0
			for _, e := range g.Edges() {
				if asg[idx[e.From]] != asg[idx[e.To]] {
					cut += e.Weight
				}
			}
			if cut < best {
				best = cut
			}
			return
		}
		for k := 0; k < d; k++ {
			asg[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func randomCAG(rng *rand.Rand, d int) *Graph {
	g := NewGraph()
	arrays := []string{"a", "b", "c"}
	for _, a := range arrays {
		g.AddArray(a, 1+rng.Intn(d))
	}
	nodes := g.Nodes()
	ne := 2 + rng.Intn(5)
	for i := 0; i < ne; i++ {
		x := nodes[rng.Intn(len(nodes))]
		y := nodes[rng.Intn(len(nodes))]
		if x.Array == y.Array {
			continue
		}
		g.AddWeight(x, y, float64(1+rng.Intn(9)))
	}
	return g
}

// TestQuickResolveOptimal cross-checks the ILP resolution against
// brute force on random CAGs.
func TestQuickResolveOptimal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(2)
		g := randomCAG(rng, d)
		res, err := Resolve(g, d, nil, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := bruteForceCut(g, d)
		if math.Abs(res.CutWeight-want) > 1e-6 {
			t.Logf("seed %d: ilp cut %v, brute %v, cag %v", seed, res.CutWeight, want, g)
			return false
		}
		// The assignment must be a valid d-partitioning.
		for _, a := range g.Arrays() {
			seen := map[int]bool{}
			for dim := 0; dim < g.Rank(a); dim++ {
				k := res.Assignment[Node{a, dim}]
				if k < 0 || k >= d || seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGreedyNeverBeatsILP: the greedy baseline's cut weight is
// never below the ILP optimum.
func TestQuickGreedyNeverBeatsILP(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(2)
		g := randomCAG(rng, d)
		ilpRes, err := Resolve(g, d, nil, nil)
		if err != nil {
			return false
		}
		gr, err := ResolveGreedy(g, d)
		if err != nil {
			// Greedy may fail to orient; acceptable for the baseline.
			return true
		}
		return gr.CutWeight >= ilpRes.CutWeight-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGreedyPicksHeavyEdge(t *testing.T) {
	g := NewGraph()
	g.AddArray("x", 2)
	g.AddArray("y", 2)
	g.AddWeight(Node{"x", 0}, Node{"y", 0}, 5)
	g.AddWeight(Node{"x", 1}, Node{"y", 0}, 3)
	res, err := ResolveGreedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CutWeight != 3 {
		t.Errorf("greedy cut = %v, want 3", res.CutWeight)
	}
}

func TestNodeString(t *testing.T) {
	if s := (Node{"x", 0}).String(); s != "x[1]" {
		t.Errorf("node string = %q", s)
	}
}
