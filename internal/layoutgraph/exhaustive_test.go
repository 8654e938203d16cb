package layoutgraph

import (
	"fmt"
	"math"
)

// SolveExhaustive enumerates every selection (the tests' oracle); the
// candidate product must not exceed 1<<20.
func (g *Graph) SolveExhaustive() (*Selection, error) {
	g.validate()
	product := 1
	for _, costs := range g.NodeCost {
		product *= len(costs)
		if product > 1<<20 {
			return nil, fmt.Errorf("layoutgraph: %d combinations exceed exhaustive limit", product)
		}
	}
	choice := make([]int, len(g.NodeCost))
	best := math.Inf(1)
	var bestChoice []int
	var rec func(p int)
	rec = func(p int) {
		if p == len(g.NodeCost) {
			if c := g.evaluate(choice); c < best {
				best = c
				bestChoice = append([]int(nil), choice...)
			}
			return
		}
		for i := range g.NodeCost[p] {
			choice[p] = i
			rec(p + 1)
		}
	}
	rec(0)
	return &Selection{Choice: bestChoice, Cost: best}, nil
}
