package cag

import (
	"math/rand"
	"reflect"
	"testing"
)

// componentsBaseline, hasConflictBaseline and partitioningBaseline are
// the conflict test and partitioning as they stood before the
// slice-indexed union-find: a map-keyed union-find over the sorted
// nodes, and a map of maps per array.  They are the differential
// oracles for HasConflict, Partitioning and Resolve's conflict-free
// path.
func componentsBaseline(g *Graph) map[Node]Node {
	parent := map[Node]Node{}
	var find func(Node) Node
	find = func(x Node) Node {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, n := range g.Nodes() {
		find(n)
	}
	for _, e := range g.edges {
		a, b := find(e.From), find(e.To)
		if a != b {
			parent[a] = b
		}
	}
	// Path-compress fully.
	for _, n := range g.Nodes() {
		find(n)
	}
	return parent
}

func hasConflictBaseline(g *Graph) bool {
	parent := componentsBaseline(g)
	root := func(x Node) Node {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	seen := map[string]map[Node]bool{}
	for _, n := range g.Nodes() {
		r := root(n)
		if seen[n.Array] == nil {
			seen[n.Array] = map[Node]bool{}
		}
		if seen[n.Array][r] {
			return true
		}
		seen[n.Array][r] = true
	}
	return false
}

func partitioningBaseline(g *Graph) Partitioning {
	if hasConflictBaseline(g) {
		panic("cag: Partitioning on conflicting CAG")
	}
	parent := componentsBaseline(g)
	root := func(x Node) Node {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	groups := map[Node][]Node{}
	for _, n := range g.Nodes() {
		r := root(n)
		groups[r] = append(groups[r], n)
	}
	parts := make([][]Node, 0, len(groups))
	for _, p := range groups {
		parts = append(parts, p)
	}
	return NewPartitioning(parts)
}

// conflictOutcome classifies one graph the oracle checked.
type conflictOutcome struct {
	conflict   bool
	orientable bool // conflict-free and its parts orient into d dimensions
}

// checkAgainstBaseline compares HasConflict, Partitioning (its panic
// on a conflict included) and Resolve's conflict-free path with the
// baselines on g for a d-dimensional template.  With solve set it also
// resolves a graph the conflict-free path does not settle, and compares
// the resolution's aligned partitioning with the baseline partitioning
// of the edges it preserves.
func checkAgainstBaseline(t *testing.T, g *Graph, d int, solve bool) conflictOutcome {
	t.Helper()
	var out conflictOutcome
	out.conflict = hasConflictBaseline(g)
	if got := g.HasConflict(); got != out.conflict {
		t.Fatalf("HasConflict = %v, baseline %v on %v", got, out.conflict, g)
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		got := g.Partitioning()
		want := partitioningBaseline(g)
		if !reflect.DeepEqual(got.Parts(), want.Parts()) {
			t.Fatalf("Partitioning = %v, baseline %v on %v", got, want, g)
		}
		return false
	}()
	if panicked != out.conflict {
		t.Fatalf("Partitioning panicked = %v, baseline conflict %v on %v", panicked, out.conflict, g)
	}
	var asg map[Node]int
	if !out.conflict {
		var err error
		asg, err = colorComponents(g, partitioningBaseline(g), d)
		out.orientable = err == nil
	}
	if !out.orientable && !solve {
		return out
	}
	res, err := Resolve(g, d, nil, nil)
	if err != nil {
		t.Fatalf("Resolve: %v on %v", err, g)
	}
	if out.orientable {
		want := partitioningBaseline(g)
		if !res.Aligned.Equal(want) || !reflect.DeepEqual(res.Assignment, asg) || res.CutWeight != 0 || res.Stats != (Stats{}) {
			t.Fatalf("Resolve = %v %v cut %v, baseline %v %v on %v", res.Aligned, res.Assignment, res.CutWeight, want, asg, g)
		}
		return out
	}
	kept := NewGraph()
	for a, r := range g.ranks {
		kept.AddArray(a, r)
	}
	for _, e := range g.Edges() {
		if res.Assignment[e.From] == res.Assignment[e.To] {
			kept.AddWeight(e.From, e.To, e.Weight)
		}
	}
	if want := partitioningBaseline(kept); !res.Aligned.Equal(want) {
		t.Fatalf("Resolve aligned %v, baseline partitioning of the kept edges %v on %v", res.Aligned, want, g)
	}
	return out
}

// byteCAG builds a weighted CAG from a byte stream: up to 8 arrays and
// up to 12 weighted edges between dimensions of distinct arrays, with a
// template dimensionality of the largest rank or one more.  Half the
// streams make every array of rank 2 on a 2-dimensional template, where
// an odd cycle of parts is conflict-free yet does not orient; the
// others draw ranks 1 to 3.  An exhausted stream reads zeros.
func byteCAG(data []byte) (*Graph, int) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	g := NewGraph()
	planar := next()%2 == 1
	n := 1 + next()%8
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}[:n]
	maxRank := 0
	for _, a := range names {
		r := 2
		if !planar {
			r = 1 + next()%3
		}
		g.AddArray(a, r)
		maxRank = max(maxRank, r)
	}
	for e, m := 0, next()%13; e < m; e++ {
		x, y := names[next()%n], names[next()%n]
		if x == y {
			continue
		}
		g.AddPreference(Node{x, next() % g.Rank(x)}, Node{y, next() % g.Rank(y)}, float64(1+next()%9))
	}
	if !planar && next()%4 == 0 {
		maxRank++
	}
	return g, maxRank
}

// nonOrientable is a conflict-free CAG whose three parts pairwise share
// an array, so they need three template dimensions where there are two.
func nonOrientable() *Graph {
	g := NewGraph()
	for _, a := range []string{"a", "b", "c"} {
		g.AddArray(a, 2)
	}
	g.AddPreference(Node{"a", 1}, Node{"b", 0}, 3)
	g.AddPreference(Node{"b", 1}, Node{"c", 0}, 2)
	g.AddPreference(Node{"c", 1}, Node{"a", 0}, 1)
	return g
}

// TestQuickConflictMatchesBaseline runs the oracle on random CAGs and
// requires every kind of outcome to occur: a conflict, an orientable
// conflict-free graph, and a conflict-free graph that does not orient.
func TestQuickConflictMatchesBaseline(t *testing.T) {
	if out := checkAgainstBaseline(t, nonOrientable(), 2, true); out.conflict || out.orientable {
		t.Fatalf("the triangle of parts: %+v, want conflict-free and non-orientable", out)
	}
	rng := rand.New(rand.NewSource(1))
	kinds := map[string]int{}
	buf := make([]byte, 64)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(buf)
		g, d := byteCAG(buf)
		out := checkAgainstBaseline(t, g, d, false)
		switch {
		case out.conflict:
			kinds["conflict"]++
		case out.orientable:
			kinds["orientable"]++
		default:
			kinds["non-orientable"]++
		}
	}
	for _, k := range []string{"conflict", "orientable", "non-orientable"} {
		if kinds[k] == 0 {
			t.Errorf("no %s CAG among the random trials: %v", k, kinds)
		}
	}
	t.Logf("outcomes: %v", kinds)
}

func FuzzConflictMatchesBaseline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 2, 0, 1, 0, 1, 1, 0, 0, 1, 5})
	f.Add([]byte{7, 2, 1, 0, 2, 1, 0, 2, 2, 12, 0, 1, 0, 0, 3, 1, 2, 1, 1, 4, 2, 3, 1, 0, 7, 4, 5, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d := byteCAG(data)
		checkAgainstBaseline(t, g, d, false)
	})
}
