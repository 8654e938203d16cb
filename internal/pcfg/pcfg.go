// Package pcfg partitions a program into phases and builds the phase
// control flow graph (PCFG) of §2.1.
//
// A phase is the outermost loop in a loop nest such that the loop
// defines an induction variable that occurs in a subscript expression
// of an array reference in the loop body.  Loops that fail the test
// (for example the time-step loop around a solver) contribute loop
// structure to the PCFG instead; IF statements contribute branches.
// Maximal runs of straight-line assignments between phases form
// degenerate straight-line phases so every array reference belongs to
// some phase.
//
// The PCFG is annotated with branch probabilities (user !prob
// annotations or the prototype's 50% guess) and loop trip counts
// (constant bounds, !trip annotations, or a configurable default), from
// which each phase's execution frequency and each phase-to-phase
// transition frequency are computed.  Data remapping is allowed only on
// PCFG edges (§2.1).
package pcfg

import (
	"fmt"
	"sort"

	"repro/internal/fortran"
)

// Phase is one node of the PCFG.
type Phase struct {
	ID    int
	Label string
	// Loop is the phase's outermost loop; nil for a straight-line phase.
	Loop *fortran.Do
	// Block is the statement run of a straight-line phase; nil otherwise.
	Block []fortran.Stmt
	// Freq is the expected number of times the phase executes.
	Freq float64
	// Line is the source line of the first statement.
	Line int
	// Arrays lists the arrays referenced in the phase, sorted.
	Arrays []string
}

// Stmts returns the phase's statements (the loop, or the block).
func (p *Phase) Stmts() []fortran.Stmt {
	if p.Loop != nil {
		return []fortran.Stmt{p.Loop}
	}
	return p.Block
}

func (p *Phase) String() string {
	return fmt.Sprintf("phase %d (%s, line %d)", p.ID, p.Label, p.Line)
}

// Edge is a possible phase-to-phase transition with its expected
// traversal count.  Remapping may be inserted on edges.
type Edge struct {
	From, To int // phase IDs
	Freq     float64
}

// Graph is the phase control flow graph.
type Graph struct {
	Phases []*Phase
	Edges  []*Edge
	// Entries and Exits list phase IDs reachable first/last.
	Entries []int
	Exits   []int
}

// Options configures PCFG construction.
type Options struct {
	// DefaultTrip is assumed for loops with unknown bounds (0 ⇒ 100).
	DefaultTrip int
	// DefaultProb is the guessed taken-probability for IF statements
	// without a !prob annotation (0 ⇒ 0.5, the prototype's guess).
	DefaultProb float64
	// IgnoreProbHints ignores !prob annotations and always guesses,
	// reproducing the "guessed 50%" curves of Figure 6.
	IgnoreProbHints bool
}

// Defaults returns the options Build runs with: every zero field
// replaced by its default.
func (o Options) Defaults() Options {
	if o.DefaultTrip == 0 {
		o.DefaultTrip = 100
	}
	if o.DefaultProb == 0 {
		o.DefaultProb = 0.5
	}
	return o
}

// Build partitions the program into phases and assembles the PCFG.
func Build(u *fortran.Unit, opt Options) (*Graph, error) {
	opt = opt.Defaults()
	b := &builder{u: u, opt: opt, g: &Graph{}, edges: map[[2]int]float64{}}
	exits := b.buildSeq(u.Prog.Body, []dangle{{from: startID, rate: 1}}, 1)
	for _, d := range exits {
		if d.from != startID {
			b.g.Exits = append(b.g.Exits, d.from)
		}
	}
	sort.Ints(b.g.Exits)
	for k, f := range b.edges {
		if k[0] == startID {
			b.g.Entries = append(b.g.Entries, k[1])
			continue
		}
		b.g.Edges = append(b.g.Edges, &Edge{From: k[0], To: k[1], Freq: f})
	}
	sort.Ints(b.g.Entries)
	sort.Slice(b.g.Edges, func(i, j int) bool {
		if b.g.Edges[i].From != b.g.Edges[j].From {
			return b.g.Edges[i].From < b.g.Edges[j].From
		}
		return b.g.Edges[i].To < b.g.Edges[j].To
	})
	if len(b.g.Phases) == 0 {
		return nil, fmt.Errorf("pcfg: program %s has no phases", u.Prog.Name)
	}
	return b.g, nil
}

const startID = -1

// dangle is a pending control edge source with its traversal rate.
type dangle struct {
	from int
	rate float64
}

type builder struct {
	u     *fortran.Unit
	opt   Options
	g     *Graph
	edges map[[2]int]float64
}

// buildSeq threads control through a statement list.  preds are the
// dangling edges reaching the list; rate is its execution frequency.
// It returns the dangling edges leaving the list.
func (b *builder) buildSeq(stmts []fortran.Stmt, preds []dangle, rate float64) []dangle {
	i := 0
	for i < len(stmts) {
		switch s := stmts[i].(type) {
		case *fortran.Assign:
			// Collect a maximal straight-line run.
			j := i
			for j < len(stmts) {
				if _, ok := stmts[j].(*fortran.Assign); !ok {
					break
				}
				j++
			}
			ph := b.newPhase(nil, stmts[i:j], s.Line, rate)
			preds = b.connect(preds, ph, rate)
			i = j
		case *fortran.Do:
			if definesSubscriptVar(s) {
				ph := b.newPhase(s, nil, s.Line, rate)
				preds = b.connect(preds, ph, rate)
				i++
				continue
			}
			// Control loop: body repeats trip times.
			trip := b.trip(s)
			if trip <= 0 {
				i++
				continue
			}
			inner := rate * float64(trip)
			mark := len(b.g.Phases)
			exits := b.buildSeq(s.Body, preds, inner)
			if len(b.g.Phases) == mark {
				// No phases inside: the loop is transparent.
				i++
				continue
			}
			if trip > 1 {
				// Back edges: body exits feed body entries.
				backRate := rate * float64(trip-1)
				b.buildBackEdges(s.Body, exits, backRate)
			}
			// Control leaves the loop once per entry: dangles from body
			// phases scale down from per-iteration to per-entry rate.
			scaled := make([]dangle, 0, len(exits))
			for _, d := range exits {
				if d.from >= mark {
					d.rate /= float64(trip)
				}
				scaled = append(scaled, d)
			}
			preds = scaled
			i++
		case *fortran.If:
			p := b.prob(s)
			thenPreds := scale(preds, p)
			elsePreds := scale(preds, 1-p)
			tExits := b.buildSeq(s.Then, thenPreds, rate*p)
			eExits := b.buildSeq(s.Else, elsePreds, rate*(1-p))
			preds = append(tExits, eExits...)
			i++
		default:
			i++
		}
	}
	return preds
}

// buildBackEdges adds loop back edges from exits to the first phases of
// the body, weighted by backRate.
func (b *builder) buildBackEdges(body []fortran.Stmt, exits []dangle, backRate float64) {
	entries := b.firstPhases(body, 1)
	total := 0.0
	for _, d := range exits {
		total += d.rate
	}
	if total == 0 {
		return
	}
	for _, d := range exits {
		for _, e := range entries {
			b.addEdge(d.from, e.from, backRate*(d.rate/total)*e.rate)
		}
	}
}

// firstPhases finds the phases reachable first in a statement list with
// their entry probabilities.  prob is the probability of reaching the
// list.  Phases must already exist (the list was built).
func (b *builder) firstPhases(stmts []fortran.Stmt, prob float64) []dangle {
	var out []dangle
	for _, s := range stmts {
		switch s := s.(type) {
		case *fortran.Assign:
			if ph := b.phaseAtLine(s.Line); ph != nil {
				return append(out, dangle{ph.ID, prob})
			}
		case *fortran.Do:
			if ph := b.phaseAtLine(s.Line); ph != nil {
				return append(out, dangle{ph.ID, prob})
			}
			inner := b.firstPhases(s.Body, prob)
			if len(inner) > 0 {
				return append(out, inner...)
			}
		case *fortran.If:
			p := b.prob(s)
			tEntries := b.firstPhases(s.Then, prob*p)
			eEntries := b.firstPhases(s.Else, prob*(1-p))
			out = append(out, tEntries...)
			out = append(out, eEntries...)
			// The branch may pass through without a phase; continue
			// scanning with the remaining probability mass.
			used := 0.0
			for _, d := range tEntries {
				used += d.rate
			}
			for _, d := range eEntries {
				used += d.rate
			}
			prob -= used
			if prob <= 1e-12 {
				return out
			}
		}
	}
	return out
}

func (b *builder) phaseAtLine(line int) *Phase {
	for _, ph := range b.g.Phases {
		if ph.Line == line {
			return ph
		}
	}
	return nil
}

func (b *builder) newPhase(loop *fortran.Do, block []fortran.Stmt, line int, rate float64) *Phase {
	ph := &Phase{
		ID:    len(b.g.Phases),
		Loop:  loop,
		Block: block,
		Line:  line,
		Freq:  rate,
	}
	kind := "loop"
	if loop == nil {
		kind = "straight"
	}
	ph.Label = fmt.Sprintf("%s@%d", kind, line)
	ph.Arrays = b.arraysIn(ph.Stmts())
	b.g.Phases = append(b.g.Phases, ph)
	return ph
}

// connect wires all dangling edges into phase ph and returns the new
// dangling edge set.
func (b *builder) connect(preds []dangle, ph *Phase, rate float64) []dangle {
	for _, d := range preds {
		b.addEdge(d.from, ph.ID, d.rate)
	}
	return []dangle{{from: ph.ID, rate: rate}}
}

func (b *builder) addEdge(from, to int, freq float64) {
	if freq <= 0 || from == to {
		return
	}
	b.edges[[2]int{from, to}] += freq
}

func (b *builder) arraysIn(stmts []fortran.Stmt) []string {
	seen := map[string]bool{}
	fortran.WalkStmts(stmts, func(s fortran.Stmt) {
		var exprs []fortran.Expr
		switch s := s.(type) {
		case *fortran.Assign:
			exprs = []fortran.Expr{s.LHS, s.RHS}
		case *fortran.Do:
			exprs = []fortran.Expr{s.Lo, s.Hi, s.Step}
		case *fortran.If:
			exprs = []fortran.Expr{s.Cond}
		}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			for _, r := range fortran.Refs(e) {
				if b.u.Arrays[r.Name] != nil {
					seen[r.Name] = true
				}
			}
		}
	})
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// trip computes the trip count of a loop: constant bounds, a !trip
// hint, or the default.
func (b *builder) trip(d *fortran.Do) int {
	return TripCount(b.u, d, d.TripHint, b.opt.DefaultTrip)
}

// TripCount evaluates a loop's trip count when its bounds and step fold
// to constants, falling back to hint then def.
func TripCount(u *fortran.Unit, d *fortran.Do, hint, def int) int {
	lo, okL := constOf(u, d.Lo)
	hi, okH := constOf(u, d.Hi)
	step := 1
	okS := true
	if d.Step != nil {
		step, okS = constOf(u, d.Step)
	}
	if okL && okH && okS && step != 0 {
		n := (hi-lo)/step + 1
		if n < 0 {
			n = 0
		}
		return n
	}
	if hint > 0 {
		return hint
	}
	return def
}

func constOf(u *fortran.Unit, e fortran.Expr) (int, bool) {
	if e == nil {
		return 0, false
	}
	a, ok := u.AffineOf(e)
	if !ok || !a.IsConst() {
		return 0, false
	}
	return a.Const, true
}

// prob returns the taken-probability for an IF.
func (b *builder) prob(s *fortran.If) float64 {
	if !b.opt.IgnoreProbHints && s.ProbHint > 0 {
		return s.ProbHint
	}
	return b.opt.DefaultProb
}

// definesSubscriptVar reports whether the loop's induction variable
// occurs in a subscript expression of an array reference in its body —
// the paper's operational phase test.
func definesSubscriptVar(d *fortran.Do) bool {
	found := false
	fortran.WalkStmts(d.Body, func(s fortran.Stmt) {
		if found {
			return
		}
		a, ok := s.(*fortran.Assign)
		if !ok {
			return
		}
		for _, ref := range append(fortran.Refs(a.RHS), fortran.Refs(a.LHS)...) {
			for _, sub := range ref.Subs {
				fortran.WalkExpr(sub, func(e fortran.Expr) {
					if r, ok := e.(*fortran.Ref); ok && r.Name == d.Var && len(r.Subs) == 0 {
						found = true
					}
				})
			}
		}
	})
	return found
}

func scale(ds []dangle, f float64) []dangle {
	out := make([]dangle, 0, len(ds))
	for _, d := range ds {
		if d.rate*f > 0 {
			out = append(out, dangle{d.from, d.rate * f})
		}
	}
	return out
}

// ReversePostorder returns phase IDs in reverse postorder of the PCFG,
// the visit order of the alignment heuristic (§3.2).  For the
// structured programs the dialect accepts this coincides with source
// order, but it is computed from the edges for robustness.
func (g *Graph) ReversePostorder() []int {
	adj := make(map[int][]int)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	visited := make(map[int]bool)
	var post []int
	var dfs func(int)
	dfs = func(n int) {
		visited[n] = true
		for _, m := range adj[n] {
			if !visited[m] {
				dfs(m)
			}
		}
		post = append(post, n)
	}
	for _, e := range g.Entries {
		if !visited[e] {
			dfs(e)
		}
	}
	// Any phase unreachable from an entry (should not happen) appended
	// in ID order.
	for _, ph := range g.Phases {
		if !visited[ph.ID] {
			dfs(ph.ID)
		}
	}
	rpo := make([]int, len(post))
	for i, n := range post {
		rpo[len(post)-1-i] = n
	}
	return rpo
}

// Successors returns the outgoing edges of phase id.
func (g *Graph) Successors(id int) []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}
