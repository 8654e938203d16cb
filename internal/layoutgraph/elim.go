package layoutgraph

// The structural selection route: one bucket-elimination dynamic program.
//
// [Kre93] proves general layout selection NP-complete, but it is
// polynomial on layout graphs of bounded treewidth (Ganian & Szeider),
// and the graphs programs produce — paths, forests, one ring per PCFG
// loop — have width at most 2.  SolveElim eliminates one variable at a
// time, each step building one table over the variable's current
// neighbours, so its cost is Σ over steps of Π dom(neighbours) × dom(v);
// a step whose table would exceed elimCellCap is refused and SolveAutoWS
// hands the graph to the 0-1 ILP.
//
// The DP minimizes the SAME perturbed objective branch and bound does
// (node binary k, phase-major and candidate-minor as SolveILP builds
// them, raised by ilp.PerturbEps*(k+1); edge variables unperturbed), so
// wherever that optimum is unique both return the identical choice.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// elimCellCap bounds Π dom(neighbours) × dom(v) of one elimination step.
const elimCellCap = 1 << 22

// OverCapError reports that eliminating Phase needs a table over
// elimCellCap cells: the graph is too wide for the DP.
type OverCapError struct {
	Phase, Width int
}

func (e *OverCapError) Error() string {
	return fmt.Sprintf("layoutgraph: eliminating phase %d over %d neighbours exceeds %d table cells; use SolveILP",
		e.Phase, e.Width, elimCellCap)
}

// SelfCheckError reports that the back-substituted choice, costed from
// the original graph, does not reproduce the optimum the elimination
// tables computed — the recurrence and the reconstruction disagree.
type SelfCheckError struct {
	Reconstructed, Optimum float64
}

func (e *SelfCheckError) Error() string {
	return fmt.Sprintf("layoutgraph: elimination DP self-check failed: reconstructed cost %g, DP optimum %g",
		e.Reconstructed, e.Optimum)
}

// factor is one cost table over scope, row-major with the last scope
// variable fastest; table is nil once an elimination has consumed it.
type factor struct {
	scope []int32
	table []float64
}

// SolveElim selects optimally by variable elimination.  Tied phases
// are contracted into one variable, parallel and reverse edges merged
// into one pair table and self-loops folded into node costs, so every
// shape is accepted; only width is refused (*OverCapError).  The order
// is greedy min-degree, degree ties eliminated from the highest phase
// down, and each step keeps the smallest candidate index among equal
// minima.  solver supplies Context only (nil means no cancellation);
// time limits are ignored — the cap bounds the work.
func (g *Graph) SolveElim(solver *ilp.Solver) (*Selection, error) {
	g.validate()
	start := time.Now()
	n := len(g.NodeCost)
	if solver == nil {
		solver = &ilp.Solver{}
	}

	rep := g.tieGroups()

	// Node costs, slices of one arena: a group's summed candidate costs,
	// the diagonals of self-loops and intra-group edges, and the
	// perturbation of every member's binaries.
	cells, ends := 0, 0
	for _, costs := range g.NodeCost {
		cells += len(costs)
	}
	for _, e := range g.Edges {
		ends += 2
		cells += len(e.Cost) * len(g.NodeCost[e.ToPhase])
	}
	floats := make([]float64, cells)
	node := make([][]float64, n)
	for p, costs := range g.NodeCost {
		node[p], floats = floats[:len(costs):len(costs)], floats[len(costs):]
	}
	for p, costs := range g.NodeCost {
		for i, c := range costs {
			node[rep[p]][i] += c
		}
	}

	// Pair tables and adjacency.  adj[v] and facs[v] start as slices of
	// one arena with room for v's edge ends; only fill-in grows them.
	ints := make([]int32, 3*ends) // adj + facs + pair scopes
	adj, facs := make([][]int32, n), make([][]int32, n)
	room := make([]int32, n)
	for _, e := range g.Edges {
		room[rep[e.FromPhase]]++
		room[rep[e.ToPhase]]++
	}
	for v, r := range room {
		adj[v], facs[v], ints = ints[:0:r], ints[r:r:2*r], ints[2*r:]
	}
	factors := make([]factor, 0, len(g.Edges)+n)
	for _, e := range g.Edges {
		from, to := rep[e.FromPhase], rep[e.ToPhase]
		if from == to {
			for i := range node[from] {
				node[from][i] += e.Cost[i][i]
			}
			continue
		}
		lo, hi := min(from, to), max(from, to)
		var f *factor
		for _, id := range facs[lo] {
			if s := factors[id].scope; s[0] == lo && s[1] == hi {
				f = &factors[id]
			}
		}
		dhi := len(node[hi])
		if f == nil {
			size := len(node[lo]) * dhi
			factors = append(factors, factor{scope: ints[:2:2], table: floats[:size:size]})
			f, ints, floats = &factors[len(factors)-1], ints[2:], floats[size:]
			f.scope[0], f.scope[1] = lo, hi
			id := int32(len(factors) - 1)
			adj[lo], adj[hi] = append(adj[lo], hi), append(adj[hi], lo)
			facs[lo], facs[hi] = append(facs[lo], id), append(facs[hi], id)
		}
		for i, row := range e.Cost {
			for j, c := range row {
				if from == lo {
					f.table[i*dhi+j] += c
				} else {
					f.table[j*dhi+i] += c
				}
			}
		}
	}
	k := 0
	for p, costs := range g.NodeCost {
		for i := range costs {
			k++
			node[rep[p]][i] += ilp.PerturbEps * float64(k)
		}
	}

	// Eliminate.  args[v] is v's argmin table over adj[v], which is
	// frozen from v's own elimination on (only live variables' lists
	// change), so it doubles as the table's scope.
	//
	// Picking the next variable — the highest phase among those of least
	// degree — without rescanning every phase: withDeg counts the live
	// variables of each degree and top is the highest live one, so a
	// path or a ring (whose top variable always has least degree) costs
	// one probe per step.
	args := make([][]int32, n)
	order := make([]int32, 0, n)
	done := make([]bool, n) // eliminated, or not a variable (a tied non-representative)
	withDeg := make([]int, n+1)
	for p := range done {
		if done[p] = int(rep[p]) != p; !done[p] {
			withDeg[len(adj[p])]++
		}
	}
	pos := make([]int, n)
	var strides, base, asg []int
	optimum := 0.0
	for top := n - 1; ; {
		if solver.Context != nil {
			if err := solver.Context.Err(); err != nil {
				return nil, fmt.Errorf("layoutgraph: elimination DP canceled: %w", err)
			}
		}
		for top >= 0 && done[top] {
			top--
		}
		if top < 0 {
			break
		}
		least := 0
		for withDeg[least] == 0 {
			least++
		}
		v := top
		for done[v] || len(adj[v]) != least {
			v--
		}
		done[v] = true
		withDeg[least]--
		order = append(order, int32(v))
		nbrs, dv := adj[v], len(node[v])
		k := len(nbrs)
		size := 1
		for j, u := range nbrs {
			pos[u] = j
			if size *= len(node[u]); size*dv > elimCellCap {
				return nil, &OverCapError{Phase: v, Width: k}
			}
		}
		pos[v] = k

		// strides[f*(k+1)+j] is how far coordinate j of the joint
		// assignment (neighbours, then v) moves inside live factor f.
		live := facs[v][:0]
		for _, id := range facs[v] {
			if factors[id].table != nil {
				live = append(live, id)
			}
		}
		strides = zeros(strides, len(live)*(k+1))
		for f, id := range live {
			scope, stride := factors[id].scope, 1
			for s := len(scope) - 1; s >= 0; s-- {
				strides[f*(k+1)+pos[scope[s]]] = stride
				stride *= len(node[scope[s]])
			}
		}
		base = zeros(base, len(live))
		asg = zeros(asg, k)
		table, arg := make([]float64, size), make([]int32, size)
		for cell := range table {
			best, bestI := math.Inf(1), int32(-1)
			for i, c := range node[v] {
				for f, id := range live {
					c += factors[id].table[base[f]+i*strides[f*(k+1)+k]]
				}
				if c < best {
					best, bestI = c, int32(i)
				}
			}
			table[cell], arg[cell] = best, bestI
			// Odometer step to the next neighbour assignment.
			for j := k - 1; j >= 0; j-- {
				asg[j]++
				step, carry := 1, asg[j] == len(node[nbrs[j]])
				if carry {
					step, asg[j] = 1-asg[j], 0
				}
				for f := range live {
					base[f] += step * strides[f*(k+1)+j]
				}
				if !carry {
					break
				}
			}
		}
		args[v] = arg
		for _, id := range live {
			factors[id].table = nil
		}
		switch k {
		case 0:
			optimum += table[0]
		case 1:
			for i, c := range table {
				node[nbrs[0]][i] += c
			}
		default:
			factors = append(factors, factor{scope: nbrs, table: table})
		}
		for _, u := range nbrs {
			withDeg[len(adj[u])]--
			a := adj[u][:0]
			for _, w := range adj[u] {
				if int(w) != v {
					a = append(a, w)
				}
			}
			for _, w := range nbrs {
				if w != u && !slices.Contains(a, w) {
					a = append(a, w)
				}
			}
			adj[u] = a
			withDeg[len(a)]++
			if k > 1 {
				facs[u] = append(facs[u], int32(len(factors)-1))
			}
		}
	}

	// Back-substitute in reverse elimination order.
	choice := make([]int, n)
	for o := len(order) - 1; o >= 0; o-- {
		v, cell := order[o], 0
		for _, u := range adj[v] {
			cell = cell*len(node[u]) + choice[u]
		}
		choice[v] = int(args[v][cell])
	}
	for p := range choice {
		choice[p] = choice[rep[p]]
	}

	sel := &Selection{
		Choice:   choice,
		Cost:     g.evaluate(choice),
		Solver:   "tree-dp",
		Duration: time.Since(start),
	}
	// Self-certification: never return a choice whose cost, recomputed
	// from the original graph plus its perturbation terms, is not the
	// optimum the tables found.
	check, k := sel.Cost, 0
	for p, costs := range g.NodeCost {
		check += ilp.PerturbEps * float64(k+choice[p]+1)
		k += len(costs)
	}
	if math.Abs(check-optimum) > 1e-6*math.Max(1, math.Abs(optimum)) {
		return nil, &SelfCheckError{Reconstructed: check, Optimum: optimum}
	}
	return sel, nil
}

// zeros returns s resized to n zeroed ints, reusing its storage.
func zeros(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// SolveAutoWS answers by the elimination DP and, only when the graph is
// over the DP's width cap, by the 0-1 ILP with the caller's
// lp.Workspace (see SolveILP).  Selection.Solver records the route.
func (g *Graph) SolveAutoWS(solver *ilp.Solver, ws *lp.Workspace) (*Selection, error) {
	sel, err := g.SolveElim(solver)
	var over *OverCapError
	if errors.As(err, &over) {
		return g.SolveILP(solver, ws)
	}
	return sel, err
}
