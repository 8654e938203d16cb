// Package cag implements the weighted component affinity graph (CAG)
// of Li and Chen as used by the paper (§2.2.1), together with the
// semi-lattice of conflict-free CAGs (Figure 2) and the 0-1 integer
// programming resolution of inter-dimensional alignment conflicts
// (appendix).
//
// A d-dimensional array is represented by d nodes, one per dimension.
// Alignment preferences between dimensions of distinct arrays are
// weighted edges; the weight is the expected performance penalty when
// the preference is not satisfied.  During construction the graph is
// directed: edge directions track the flow of values under the
// owner-computes rule (§3.1); they are dropped once weights are final.
package cag

import (
	"fmt"
	"sort"
	"strings"
)

// Node identifies one array dimension: Dim is 0-based.
type Node struct {
	Array string
	Dim   int
}

func (n Node) String() string { return fmt.Sprintf("%s[%d]", n.Array, n.Dim+1) }

// Less orders nodes by array name then dimension.
func (n Node) Less(m Node) bool {
	if n.Array != m.Array {
		return n.Array < m.Array
	}
	return n.Dim < m.Dim
}

// Edge is an alignment preference between two dimensions of distinct
// arrays.  While the graph is directed, From→To follows the value flow
// (the communicated array is at the source).
type Edge struct {
	From, To Node
	Weight   float64
}

type edgeKey struct{ a, b Node } // canonical: a.Less(b)

func keyOf(x, y Node) edgeKey {
	if y.Less(x) {
		x, y = y, x
	}
	return edgeKey{x, y}
}

// Graph is a component affinity graph.
type Graph struct {
	ranks map[string]int
	edges map[edgeKey]*Edge
}

// NewGraph returns an empty CAG.
func NewGraph() *Graph {
	return &Graph{ranks: map[string]int{}, edges: map[edgeKey]*Edge{}}
}

// AddArray registers an array with the given rank, creating its nodes.
func (g *Graph) AddArray(name string, rank int) {
	if rank < 1 {
		panic(fmt.Sprintf("cag: array %s with rank %d", name, rank))
	}
	if r, ok := g.ranks[name]; ok && r != rank {
		panic(fmt.Sprintf("cag: array %s re-registered with rank %d (was %d)", name, rank, r))
	}
	g.ranks[name] = rank
}

// Rank returns the rank of a registered array (0 if unknown).
func (g *Graph) Rank(name string) int { return g.ranks[name] }

// Arrays returns the registered array names, sorted.
func (g *Graph) Arrays() []string {
	out := make([]string, 0, len(g.ranks))
	for a := range g.ranks {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Nodes returns all dimension nodes, sorted.
func (g *Graph) Nodes() []Node {
	var out []Node
	for a, r := range g.ranks {
		for d := 0; d < r; d++ {
			out = append(out, Node{a, d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Edges returns the edges, sorted canonically.
func (g *Graph) Edges() []*Edge {
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := keyOf(out[i].From, out[i].To), keyOf(out[j].From, out[j].To)
		if ki.a != kj.a {
			return ki.a.Less(kj.a)
		}
		return ki.b.Less(kj.b)
	})
	return out
}

// validate panics on malformed endpoints.
func (g *Graph) validate(x Node) {
	r, ok := g.ranks[x.Array]
	if !ok {
		panic(fmt.Sprintf("cag: unknown array %s", x.Array))
	}
	if x.Dim < 0 || x.Dim >= r {
		panic(fmt.Sprintf("cag: node %v out of rank %d", x, r))
	}
}

// AddPreference records a directed alignment preference from src to
// dst with the given estimated communication cost (§3.1): a fresh pair
// gets a directed edge of weight cost; re-encountering the preference
// with the same direction leaves the CAG unchanged; the opposite
// direction adds cost to the weight and reverses the edge.
func (g *Graph) AddPreference(src, dst Node, cost float64) {
	g.validate(src)
	g.validate(dst)
	if src.Array == dst.Array {
		// Self-affinity carries no alignment information.
		return
	}
	k := keyOf(src, dst)
	e, ok := g.edges[k]
	if !ok {
		g.edges[k] = &Edge{From: src, To: dst, Weight: cost}
		return
	}
	if e.From == src {
		return // same direction: unchanged
	}
	e.Weight += cost
	e.From, e.To = src, dst
}

// AddWeight adds an undirected weighted preference (used when merging
// finalized CAGs, where directions are gone).
func (g *Graph) AddWeight(x, y Node, w float64) {
	g.validate(x)
	g.validate(y)
	if x.Array == y.Array {
		return
	}
	k := keyOf(x, y)
	if e, ok := g.edges[k]; ok {
		e.Weight += w
		return
	}
	g.edges[k] = &Edge{From: k.a, To: k.b, Weight: w}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for a, r := range g.ranks {
		out.ranks[a] = r
	}
	for k, e := range g.edges {
		cp := *e
		out.edges[k] = &cp
	}
	return out
}

// Merge returns a new CAG with the union of arrays and edges of g and
// h; weights of common edges add.
func (g *Graph) Merge(h *Graph) *Graph {
	out := g.Clone()
	for a, r := range h.ranks {
		if cur, ok := out.ranks[a]; ok && cur != r {
			panic(fmt.Sprintf("cag: merge rank mismatch for %s (%d vs %d)", a, cur, r))
		}
		out.ranks[a] = r
	}
	for _, e := range h.edges {
		out.AddWeight(e.From, e.To, e.Weight)
	}
	return out
}

// ScaleWeights multiplies every edge weight by f.  The import heuristic
// (§3.2) scales the source CAG so its preferences dominate.
func (g *Graph) ScaleWeights(f float64) {
	for _, e := range g.edges {
		e.Weight *= f
	}
}

// components is a union-find over the nodes of one graph, indexed by
// array offset plus dimension: the dimensions of an array occupy
// consecutive slots starting at off[array].
type components struct {
	off    map[string]int
	parent []int
}

// components joins the endpoints of every edge.
func (g *Graph) components() *components {
	c := &components{off: make(map[string]int, len(g.ranks))}
	n := 0
	for a, r := range g.ranks {
		c.off[a] = n
		n += r
	}
	c.parent = make([]int, n)
	for i := range c.parent {
		c.parent[i] = i
	}
	for _, e := range g.edges {
		a, b := c.find(c.off[e.From.Array]+e.From.Dim), c.find(c.off[e.To.Array]+e.To.Dim)
		if a != b {
			c.parent[a] = b
		}
	}
	return c
}

// find returns the root of slot x, halving the path on the way.
func (c *components) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

// conflict reports whether two dimensions of one array share a root.
func (c *components) conflict(ranks map[string]int) bool {
	for a, r := range ranks {
		o := c.off[a]
		for i := 0; i < r; i++ {
			ri := c.find(o + i)
			for j := i + 1; j < r; j++ {
				if c.find(o+j) == ri {
					return true
				}
			}
		}
	}
	return false
}

// partitioning returns one part per component, already canonical:
// nodes are visited in Node.Less order, so every part comes out sorted
// and the parts come out ordered by their first node.
func (c *components) partitioning(g *Graph) Partitioning {
	part := make([]int, len(c.parent)) // a root's part index plus one
	parts := [][]Node{}
	for _, a := range g.Arrays() {
		o := c.off[a]
		for d := 0; d < g.ranks[a]; d++ {
			root := c.find(o + d)
			if part[root] == 0 {
				parts = append(parts, nil)
				part[root] = len(parts)
			}
			parts[part[root]-1] = append(parts[part[root]-1], Node{a, d})
		}
	}
	return Partitioning{parts: parts}
}

// HasConflict reports whether two dimensions of the same array are
// connected (§2.2.1): every solution must then cut some preference.
func (g *Graph) HasConflict() bool {
	return g.components().conflict(g.ranks)
}

// Partitioning returns the node partitioning of a conflict-free CAG:
// each connected component is one partition.  It panics if the CAG has
// a conflict; resolve first.
func (g *Graph) Partitioning() Partitioning {
	p, ok := g.conflictFree()
	if !ok {
		panic("cag: Partitioning on conflicting CAG")
	}
	return p
}

// conflictFree returns the partitioning and true when the CAG has no
// conflict, from one union-find.
func (g *Graph) conflictFree() (Partitioning, bool) {
	c := g.components()
	if c.conflict(g.ranks) {
		return Partitioning{}, false
	}
	return c.partitioning(g), true
}

func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CAG{arrays: %v; edges:", g.Arrays())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " %v--%v(%.3g)", e.From, e.To, e.Weight)
	}
	b.WriteString("}")
	return b.String()
}
