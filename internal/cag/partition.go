package cag

import (
	"sort"
	"strings"
)

// Partitioning is a partition of CAG nodes — the canonical
// representation of the inter-dimensional alignment information of a
// conflict-free CAG.  The set of all conflict-free alignments of a set
// of arrays forms a semi-lattice under partition refinement (§2.2.1,
// Figure 2); Refines is its order.
//
// Partitionings are canonicalized on construction (parts and their
// members sorted) so Equal is a simple comparison.
type Partitioning struct {
	parts [][]Node
}

// NewPartitioning canonicalizes parts into a Partitioning.  Empty
// parts are dropped.
func NewPartitioning(parts [][]Node) Partitioning {
	cp := make([][]Node, 0, len(parts))
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		q := append([]Node(nil), p...)
		sort.Slice(q, func(i, j int) bool { return q[i].Less(q[j]) })
		cp = append(cp, q)
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i][0].Less(cp[j][0]) })
	return Partitioning{parts: cp}
}

// Parts returns the canonical partition list (do not mutate).
func (p Partitioning) Parts() [][]Node { return p.parts }

// index maps each node to its part number.
func (p Partitioning) index() map[Node]int {
	idx := map[Node]int{}
	for i, part := range p.parts {
		for _, n := range part {
			idx[n] = i
		}
	}
	return idx
}

// Equal reports whether two partitionings are identical.
func (p Partitioning) Equal(q Partitioning) bool {
	if len(p.parts) != len(q.parts) {
		return false
	}
	for i := range p.parts {
		if len(p.parts[i]) != len(q.parts[i]) {
			return false
		}
		for j := range p.parts[i] {
			if p.parts[i][j] != q.parts[i][j] {
				return false
			}
		}
	}
	return true
}

// Refines reports p ⊑ q: every part of p is contained in some part of
// q.  Nodes of p absent from q make the test fail.  The test is linear
// in the number of nodes of p (§2.2.1).
func (p Partitioning) Refines(q Partitioning) bool {
	qi := q.index()
	for _, part := range p.parts {
		want := -1
		for _, n := range part {
			pi, ok := qi[n]
			if !ok {
				return false
			}
			if want == -1 {
				want = pi
			} else if pi != want {
				return false
			}
		}
	}
	return true
}

// HasConflict reports whether some part contains two dimensions of the
// same array.
func (p Partitioning) HasConflict() bool {
	for _, part := range p.parts {
		seen := map[string]bool{}
		for _, n := range part {
			if seen[n.Array] {
				return true
			}
			seen[n.Array] = true
		}
	}
	return false
}

// Restrict keeps only the nodes of the named arrays, dropping empty
// parts — the projection used when an imported alignment candidate is
// restricted to the arrays of the sink class (§3.2).
func (p Partitioning) Restrict(arrays map[string]bool) Partitioning {
	parts := make([][]Node, 0, len(p.parts))
	for _, part := range p.parts {
		var kept []Node
		for _, n := range part {
			if arrays[n.Array] {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			parts = append(parts, kept)
		}
	}
	return NewPartitioning(parts)
}

// NumParts returns the number of parts.
func (p Partitioning) NumParts() int { return len(p.parts) }

func (p Partitioning) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, part := range p.parts {
		if i > 0 {
			b.WriteString(" | ")
		}
		for j, n := range part {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(n.String())
		}
	}
	b.WriteString("}")
	return b.String()
}
