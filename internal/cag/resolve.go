package cag

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// Stats records the size and effort of one 0-1 solve, mirroring the
// numbers the paper reports per program (variables, constraints, CPLEX
// milliseconds).
type Stats struct {
	Vars        int
	Constraints int
	BBNodes     int
	LPPivots    int
	// LPWarm / LPCold split BBNodes by how the node relaxation was
	// solved: dual-simplex reoptimization from the parent basis vs a
	// from-scratch two-phase solve.  RCFixed counts binaries fixed by
	// root reduced-cost presolve; Presolved counts binaries fixed by
	// constraint propagation before branch and bound.  LPSparse is
	// always 0: it counted node relaxations on the removed sparse simplex
	// and stays only because the benchmark harness compiles against it.
	LPWarm    int
	LPCold    int
	RCFixed   int
	Presolved int
	LPSparse  int
	Duration  time.Duration
}

// Resolution is the result of resolving the inter-dimensional
// alignment problem on a CAG.
type Resolution struct {
	// Assignment maps every node to a template partition in [0,d).
	Assignment map[Node]int
	// Aligned is the conflict-free alignment information: the
	// partitioning induced by the preserved (intra-partition) edges.
	Aligned Partitioning
	// CutWeight is the total weight of unsatisfied preferences.
	CutWeight float64
	// Stats describes the ILP solve (zero for conflict-free inputs,
	// which need no solve).
	Stats Stats
	// Degraded reports that the 0-1 solve was cut off by a node or
	// wall-clock limit and the resolution is the best feasible
	// incumbent found — or the greedy heuristic when no incumbent
	// existed.  The assignment is always valid; only optimality of the
	// cut weight is forfeited.
	Degraded bool
	// DegradeReason describes the cutoff and fallback ("" when not
	// degraded).
	DegradeReason string
	// Gap is the relative optimality gap of the degraded solution
	// (incumbent vs the LP bound); negative when unknown (e.g. greedy
	// fallback).  Zero when not degraded.
	Gap float64
}

// Resolve solves the inter-dimensional alignment problem for g with a
// d-dimensional program template: find a d-partitioning of the nodes,
// no two dimensions of one array together, minimizing the weight of
// edges across partitions.  Conflict-free graphs bypass the ILP.  The
// formulation is the appendix's: node switches a_ik, edge switches,
// type-1/type-2 node constraints, IN/OUT edge constraints after
// direction normalization, maximizing intra-partition weight.  ws is
// the 0-1 solve's lp.Workspace, letting a sequence of resolutions on
// one goroutine reuse simplex buffers and warm starts; nil gives the
// solve a private one.
func Resolve(g *Graph, d int, solver *ilp.Solver, ws *lp.Workspace) (*Resolution, error) {
	for _, a := range g.Arrays() {
		if g.Rank(a) > d {
			return nil, fmt.Errorf("cag: array %s has rank %d > template dimensionality %d", a, g.Rank(a), d)
		}
	}
	if !g.HasConflict() {
		aligned := g.Partitioning()
		if asg, cerr := colorComponents(g, aligned, d); cerr == nil {
			return &Resolution{Assignment: asg, Aligned: aligned, CutWeight: 0}, nil
		}
		// A conflict-free CAG can still be non-orientable: its parts
		// may need more than d template dimensions (the part-conflict
		// graph is not always d-colorable).  Fall through to the ILP,
		// which cuts the cheapest edges to restore orientability.
	}
	if solver == nil {
		solver = &ilp.Solver{}
	}
	nodes := g.Nodes()
	prob := lp.NewProblem()

	// Node switches a_ik.
	nodeVar := map[Node][]int{}
	for _, n := range nodes {
		vs := make([]int, d)
		for k := 0; k < d; k++ {
			vs[k] = prob.AddBinary(0)
			prob.SetName(vs[k], fmt.Sprintf("%v@%d", n, k))
		}
		nodeVar[n] = vs
	}

	// Direction normalization: all edges between a pair of arrays point
	// from the lexicographically smaller array.
	type dirEdge struct {
		from, to Node
		weight   float64
	}
	var edges []dirEdge
	for _, e := range g.Edges() {
		if e.Weight == 0 {
			continue
		}
		f, t := e.From, e.To
		if t.Array < f.Array {
			f, t = t, f
		}
		edges = append(edges, dirEdge{f, t, e.Weight})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from.Less(edges[j].from)
		}
		return edges[i].to.Less(edges[j].to)
	})

	// Edge switches, maximizing Σ w·e_k ⇒ minimize Σ -w·e_k.  The edge
	// switches need no explicit integrality: each appears in exactly one
	// IN- and one OUT-constraint, so their constraint matrix is the
	// incidence matrix of a bipartite graph (totally unimodular) and the
	// LP optimum is integral once the node switches are fixed.
	edgeVar := make([][]int, len(edges))
	for i, e := range edges {
		vs := make([]int, d)
		for k := 0; k < d; k++ {
			vs[k] = prob.AddVariable(-e.weight, 0, 1)
			prob.SetName(vs[k], fmt.Sprintf("%v->%v@%d", e.from, e.to, k))
		}
		edgeVar[i] = vs
	}

	constraints := 0
	// Type-1: each node in exactly one partition.
	for _, n := range nodes {
		terms := make([]lp.Term, d)
		for k := 0; k < d; k++ {
			terms[k] = lp.Term{Var: nodeVar[n][k], Coeff: 1}
		}
		prob.AddConstraint(terms, lp.EQ, 1)
		constraints++
	}
	// Type-2: two dimensions of one array never share a partition.
	for _, a := range g.Arrays() {
		r := g.Rank(a)
		if r < 2 {
			continue
		}
		for k := 0; k < d; k++ {
			terms := make([]lp.Term, r)
			for dim := 0; dim < r; dim++ {
				terms[dim] = lp.Term{Var: nodeVar[Node{a, dim}][k], Coeff: 1}
			}
			prob.AddConstraint(terms, lp.LE, 1)
			constraints++
		}
	}
	// IN-constraints: per sink node, per source array, per partition.
	// OUT-constraints: per source node, per sink array, per partition.
	type groupKey struct {
		node  Node
		other string
	}
	inGroups := map[groupKey][]int{}  // edge indices with e.to == node, grouped by e.from.Array
	outGroups := map[groupKey][]int{} // edge indices with e.from == node, grouped by e.to.Array
	for i, e := range edges {
		inGroups[groupKey{e.to, e.from.Array}] = append(inGroups[groupKey{e.to, e.from.Array}], i)
		outGroups[groupKey{e.from, e.to.Array}] = append(outGroups[groupKey{e.from, e.to.Array}], i)
	}
	addGroup := func(gk groupKey, idxs []int) {
		for k := 0; k < d; k++ {
			terms := make([]lp.Term, 0, len(idxs)+1)
			for _, i := range idxs {
				terms = append(terms, lp.Term{Var: edgeVar[i][k], Coeff: 1})
			}
			terms = append(terms, lp.Term{Var: nodeVar[gk.node][k], Coeff: -1})
			prob.AddConstraint(terms, lp.LE, 0)
			constraints++
		}
	}
	// Deterministic iteration order.
	var inKeys, outKeys []groupKey
	for gk := range inGroups {
		inKeys = append(inKeys, gk)
	}
	for gk := range outGroups {
		outKeys = append(outKeys, gk)
	}
	less := func(a, b groupKey) bool {
		if a.node != b.node {
			return a.node.Less(b.node)
		}
		return a.other < b.other
	}
	sort.Slice(inKeys, func(i, j int) bool { return less(inKeys[i], inKeys[j]) })
	sort.Slice(outKeys, func(i, j int) bool { return less(outKeys[i], outKeys[j]) })
	for _, gk := range inKeys {
		addGroup(gk, inGroups[gk])
	}
	for _, gk := range outKeys {
		addGroup(gk, outGroups[gk])
	}

	// Symmetry breaking: partitions are interchangeable, so pin a
	// maximal-rank array's dimensions to the identity when one spans
	// the template; otherwise pin the first node to partition 0.
	anchored := false
	for _, a := range g.Arrays() {
		if g.Rank(a) == d {
			for dim := 0; dim < d; dim++ {
				prob.SetBounds(nodeVar[Node{a, dim}][dim], 1, 1)
			}
			anchored = true
			break
		}
	}
	if !anchored && len(nodes) > 0 {
		prob.SetBounds(nodeVar[nodes[0]][0], 1, 1)
	}

	var binaries []int
	for _, n := range nodes {
		binaries = append(binaries, nodeVar[n]...)
	}
	start := time.Now()
	res, err := solver.Solve(prob, binaries, ws)
	if err != nil {
		return nil, err
	}
	stats := Stats{
		Vars:        prob.NumVariables(),
		Constraints: constraints,
		BBNodes:     res.Nodes,
		LPPivots:    res.LPPivots,
		LPWarm:      res.LPWarm,
		LPCold:      res.LPCold,
		RCFixed:     res.RCFixed,
		Presolved:   res.Presolved,
		Duration:    time.Since(start),
	}
	out := &Resolution{Assignment: map[Node]int{}, Stats: stats}
	switch {
	case res.Status == ilp.Optimal:
	case res.Status.Limited() && res.X != nil:
		// Cut off with a feasible incumbent: a valid (if possibly
		// suboptimal) assignment — the paper explicitly accepts bounded
		// suboptimality when exact search is too expensive.
		out.Degraded = true
		out.DegradeReason = fmt.Sprintf("alignment ILP stopped at %v; using feasible incumbent", res.Status)
		out.Gap = res.Gap()
	case res.Status.Limited():
		// Cut off before any incumbent: fall back to the greedy
		// heuristic, which always yields a valid assignment.
		fallback, gerr := ResolveGreedy(g, d)
		if gerr != nil {
			return nil, gerr
		}
		fallback.Stats = stats
		fallback.Degraded = true
		fallback.DegradeReason = fmt.Sprintf("alignment ILP stopped at %v with no incumbent; greedy fallback", res.Status)
		fallback.Gap = -1
		return fallback, nil
	default:
		return nil, fmt.Errorf("cag: alignment ILP %v", res.Status)
	}
	for _, n := range nodes {
		for k := 0; k < d; k++ {
			if res.X[nodeVar[n][k]] > 0.5 {
				out.Assignment[n] = k
			}
		}
	}
	// Preserved edges induce the conflict-free alignment information;
	// cut edges are the unsatisfied preferences.
	kept := NewGraph()
	for a, r := range g.ranks {
		kept.ranks[a] = r
	}
	for _, e := range g.Edges() {
		if out.Assignment[e.From] == out.Assignment[e.To] {
			kept.AddWeight(e.From, e.To, e.Weight)
		} else {
			out.CutWeight += e.Weight
		}
	}
	out.Aligned = kept.Partitioning()
	return out, nil
}

// colorComponents assigns the parts of a conflict-free partitioning to
// template dimensions such that parts sharing an array get distinct
// dimensions (greedy coloring; parts ordered large-first).
func colorComponents(g *Graph, p Partitioning, d int) (map[Node]int, error) {
	parts := p.Parts()
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(parts[order[a]]) > len(parts[order[b]]) })
	color := make([]int, len(parts))
	for i := range color {
		color[i] = -1
	}
	conflicts := func(i, j int) bool {
		seen := map[string]bool{}
		for _, n := range parts[i] {
			seen[n.Array] = true
		}
		for _, n := range parts[j] {
			if seen[n.Array] {
				return true
			}
		}
		return false
	}
	for _, i := range order {
		used := make([]bool, d)
		for j := range parts {
			if color[j] >= 0 && conflicts(i, j) {
				used[color[j]] = true
			}
		}
		c := -1
		for k := 0; k < d; k++ {
			if !used[k] {
				c = k
				break
			}
		}
		if c < 0 {
			return nil, fmt.Errorf("cag: cannot orient %d components into %d template dimensions", len(parts), d)
		}
		color[i] = c
	}
	asg := map[Node]int{}
	for i, part := range parts {
		for _, n := range part {
			asg[n] = color[i]
		}
	}
	return asg, nil
}

// ResolveGreedy is the heuristic baseline the paper declines in favor
// of ILP: consider edges by decreasing weight, accepting an edge when
// merging its endpoint components keeps every array's dimensions
// separated.  Returns the alignment information and the cut weight.
func ResolveGreedy(g *Graph, d int) (*Resolution, error) {
	type comp struct {
		nodes  []Node
		arrays map[string]bool
	}
	comps := map[Node]*comp{}
	for _, n := range g.Nodes() {
		comps[n] = &comp{nodes: []Node{n}, arrays: map[string]bool{n.Array: true}}
	}
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Weight != edges[j].Weight {
			return edges[i].Weight > edges[j].Weight
		}
		if edges[i].From != edges[j].From {
			return edges[i].From.Less(edges[j].From)
		}
		return edges[i].To.Less(edges[j].To)
	})
	cut := 0.0
	for _, e := range edges {
		ca, cb := comps[e.From], comps[e.To]
		if ca == cb {
			continue
		}
		conflict := false
		for a := range ca.arrays {
			if cb.arrays[a] {
				conflict = true
				break
			}
		}
		if conflict {
			cut += e.Weight
			continue
		}
		// Merge cb into ca.
		ca.nodes = append(ca.nodes, cb.nodes...)
		for a := range cb.arrays {
			ca.arrays[a] = true
		}
		for _, n := range cb.nodes {
			comps[n] = ca
		}
	}
	seen := map[*comp]bool{}
	var parts [][]Node
	for _, c := range comps {
		if !seen[c] {
			seen[c] = true
			parts = append(parts, c.nodes)
		}
	}
	p := NewPartitioning(parts)
	asg, err := colorComponents(g, p, d)
	if err != nil {
		// The merged parts may not orient into d template dimensions.
		// Retreat to singleton parts, which always orient when every
		// array's rank is at most d, and recompute the cut from the
		// resulting assignment.
		parts = parts[:0]
		for _, n := range g.Nodes() {
			parts = append(parts, []Node{n})
		}
		p = NewPartitioning(parts)
		asg, err = colorComponents(g, p, d)
		if err != nil {
			return nil, err
		}
		cut = 0
		for _, e := range g.Edges() {
			if asg[e.From] != asg[e.To] {
				cut += e.Weight
			}
		}
	}
	return &Resolution{Assignment: asg, Aligned: p, CutWeight: cut}, nil
}
