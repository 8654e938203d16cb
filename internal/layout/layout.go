// Package layout defines the data layout vocabulary shared by the
// whole framework: the program template, alignments of arrays to the
// template, distributions of template dimensions onto processors, and
// complete candidate layouts.
//
// Following §2.2, a data layout is defined in two stages: arrays are
// aligned to a single program template (dimensionality and extents
// derived from the maximal array ranks/extents in the program), and the
// template is distributed onto the processors.  A candidate layout for
// a phase fixes both stages for every array.
package layout

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Template is the single program template of §2.2.
type Template struct {
	Extents []int
}

// Rank returns the template dimensionality.
func (t Template) Rank() int { return len(t.Extents) }

func (t Template) String() string {
	parts := make([]string, len(t.Extents))
	for i, e := range t.Extents {
		parts[i] = fmt.Sprint(e)
	}
	return "T(" + strings.Join(parts, ",") + ")"
}

// Kind is a distribution format for one template dimension.
type Kind int8

const (
	// Star leaves the dimension on-processor (undistributed).
	Star Kind = iota
	// Block distributes contiguous blocks of ceil(N/P).
	Block
	// Cyclic deals elements round-robin.
	Cyclic
	// BlockCyclic deals blocks of Size round-robin.
	BlockCyclic
)

func (k Kind) String() string {
	switch k {
	case Star:
		return "*"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	case BlockCyclic:
		return "CYCLIC(k)"
	}
	return fmt.Sprintf("Kind(%d)", int8(k))
}

// DimDist is the distribution of one template dimension.
type DimDist struct {
	Kind Kind
	// Procs is the number of processors assigned to this dimension
	// (1 for Star).
	Procs int
	// Size is the block size for BlockCyclic.
	Size int
}

func (d DimDist) String() string {
	var buf [32]byte
	return string(d.appendTo(buf[:0]))
}

// appendTo appends the String rendering to b.  The layout keys are built
// from it: they are cache-key parts, so their bytes are pinned.
func (d DimDist) appendTo(b []byte) []byte {
	switch d.Kind {
	case Star:
		return append(b, '*')
	case Block:
		b = append(b, "BLOCK/"...)
	case Cyclic:
		b = append(b, "CYCLIC/"...)
	case BlockCyclic:
		b = append(b, "CYCLIC("...)
		b = strconv.AppendInt(b, int64(d.Size), 10)
		b = append(b, ")/"...)
	default:
		return append(b, '?')
	}
	return strconv.AppendInt(b, int64(d.Procs), 10)
}

// distributed reports whether the dimension is spread over more than
// one processor.
func (d DimDist) distributed() bool { return d.Kind != Star && d.Procs > 1 }

// Alignment maps array dimensions to template dimensions: Map[a][k] is
// the 0-based template dimension holding dimension k of array a.  For
// arrays of lower rank than the template this is an embedding; template
// dimensions not covered by an array replicate it along those
// dimensions.
//
// Read Map freely, but write it through Set: the alignment keeps its
// arrays in name order for the layouts built on it (a search space
// crosses one alignment with every distribution), and Set is what drops
// that view.  Do not copy an Alignment by value.
type Alignment struct {
	Map map[string][]int

	rows atomic.Pointer[[]alignRow] // see sorted; nil until asked, and after Set
}

// alignRow is one aligned array: Map's entry under its key.
type alignRow struct {
	name string
	dims []int
}

// NewAlignment creates an empty alignment.
func NewAlignment() *Alignment { return &Alignment{Map: map[string][]int{}} }

// Set records the embedding for one array.
func (a *Alignment) Set(array string, dims []int) {
	a.Map[array] = append([]int(nil), dims...)
	a.rows.Store(nil)
}

// sorted returns Map's entries in name order, built once per alignment
// and shared by every layout on it.  The slice is read-only.
func (a *Alignment) sorted() []alignRow {
	if p := a.rows.Load(); p != nil {
		return *p
	}
	rows := make([]alignRow, 0, len(a.Map))
	for name, dims := range a.Map {
		rows = append(rows, alignRow{name, dims})
	}
	slices.SortFunc(rows, func(x, y alignRow) int { return strings.Compare(x.name, y.name) })
	a.rows.Store(&rows)
	return rows
}

// Of returns the template dimension of (array, dim), or -1 if the
// array is unknown to the alignment.
func (a *Alignment) Of(array string, dim int) int {
	m, ok := a.Map[array]
	if !ok || dim >= len(m) {
		return -1
	}
	return m[dim]
}

// Arrays returns the aligned array names, sorted.
func (a *Alignment) Arrays() []string {
	rows := a.sorted()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.name
	}
	return out
}

// Clone returns a deep copy.
func (a *Alignment) Clone() *Alignment {
	out := NewAlignment()
	for n, m := range a.Map {
		out.Set(n, m)
	}
	return out
}

func (a *Alignment) String() string {
	var b strings.Builder
	for i, n := range a.Arrays() {
		if i > 0 {
			b.WriteString("; ")
		}
		dims := a.Map[n]
		parts := make([]string, len(dims))
		for k, t := range dims {
			parts[k] = fmt.Sprintf("%d", t+1)
		}
		fmt.Fprintf(&b, "%s->(%s)", n, strings.Join(parts, ","))
	}
	return b.String()
}

// Layout is a complete candidate data layout: an alignment plus a
// distribution of every template dimension.
//
// A layout is a value: its first placement query derives its placement
// (see place) once, so Align and Dist must not be changed after the
// layout is first used — edit a Clone instead.  Do not copy a Layout by
// value.
type Layout struct {
	Template Template
	Align    *Alignment
	Dist     []DimDist

	once sync.Once
	placement
}

// placement is what a layout's placement queries read, derived once per
// layout: candidate pricing asks them per array reference and transition
// pricing per array and layout pair, so they must not walk Align.Map or
// allocate.
type placement struct {
	rows []alignRow // Align.sorted() at first use
	rank int        // len(Dist)
	// ints packs, in one allocation: per template dimension its
	// processor-grid axis (the distributed dimensions numbered 0,1,...;
	// -1 for an undistributed one — the axis an array dimension occupies
	// is part of its placement signature); then per row where its
	// distributed dimensions end; then every row's distributed array
	// dimensions, ascending.
	ints []int
}

// place returns the layout's placement, deriving it on first use.
func (l *Layout) place() *placement {
	l.once.Do(l.derive)
	return &l.placement
}

func (l *Layout) derive() {
	p := &l.placement
	p.rows = l.Align.sorted()
	p.rank = len(l.Dist)
	total := 0
	for _, r := range p.rows {
		total += len(r.dims)
	}
	p.ints = make([]int, p.rank+len(p.rows), p.rank+len(p.rows)+total)
	next := 0
	for t, d := range l.Dist {
		p.ints[t] = -1
		if d.distributed() {
			p.ints[t] = next
			next++
		}
	}
	for i, r := range p.rows {
		for dim, t := range r.dims {
			if p.axis(t) >= 0 {
				p.ints = append(p.ints, dim)
			}
		}
		p.ints[p.rank+i] = len(p.ints)
	}
}

// axis returns the processor-grid axis of template dimension t, or -1
// when t is not distributed (or, in an invalid layout, not a template
// dimension at all).
func (p *placement) axis(t int) int {
	if t < 0 || t >= p.rank {
		return -1
	}
	return p.ints[t]
}

// find returns the index of the array's row, or -1 for an array the
// alignment does not know.
func (p *placement) find(array string) int {
	i, ok := slices.BinarySearchFunc(p.rows, array, func(r alignRow, name string) int { return strings.Compare(r.name, name) })
	if !ok {
		return -1
	}
	return i
}

// dims returns the array's template dimension per array dimension (nil
// for an unknown array).
func (p *placement) dims(array string) []int {
	if i := p.find(array); i >= 0 {
		return p.rows[i].dims
	}
	return nil
}

// dist returns row i's distributed array dimensions.
func (p *placement) dist(i int) []int {
	// The rows' dimensions follow the axis table and the end offsets.
	start := p.rank + len(p.rows)
	if i > 0 {
		start = p.ints[p.rank+i-1]
	}
	end := p.ints[p.rank+i]
	return p.ints[start:end:end]
}

// Error reports an invalid layout construction.
type Error struct{ Msg string }

func (e *Error) Error() string { return "layout: " + e.Msg }

// NewLayout builds a layout; dist must have one entry per template
// dimension.  It returns a *Error when the pieces are structurally
// inconsistent (see Validate).
func NewLayout(t Template, a *Alignment, dist []DimDist) (*Layout, error) {
	l := &Layout{Template: t, Align: a, Dist: append([]DimDist(nil), dist...)}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustLayout is NewLayout for construction sites that guarantee the
// invariants by construction; it panics on an invalid layout (callers
// behind the core recovery boundary surface such panics as internal
// errors rather than crashes).
func MustLayout(t Template, a *Alignment, dist []DimDist) *Layout {
	l, err := NewLayout(t, a, dist)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// Validate checks structural consistency: one distribution entry per
// template dimension, every alignment entry a valid injective embedding
// into the template, and well-formed distribution formats.  It returns
// a *Error describing the first violation.
func (l *Layout) Validate() error {
	if l.Align == nil || l.Align.Map == nil {
		return &Error{"nil alignment"}
	}
	rank := l.Template.Rank()
	if len(l.Dist) != rank {
		return &Error{fmt.Sprintf("%d dist entries for template rank %d", len(l.Dist), rank)}
	}
	// Almost every layout is valid, so look for a bad embedding in map
	// order first and name the first one in array order only if there is
	// one.
	valid := true
	for a, dims := range l.Align.Map {
		if checkEmbedding(a, dims, rank) != nil {
			valid = false
			break
		}
	}
	if !valid {
		for _, a := range l.Align.Arrays() {
			if err := checkEmbedding(a, l.Align.Map[a], rank); err != nil {
				return err
			}
		}
	}
	for t, d := range l.Dist {
		switch d.Kind {
		case Star:
		case Block, Cyclic:
			if d.Procs < 1 {
				return &Error{fmt.Sprintf("template dim %d: %v over %d processors", t, d.Kind, d.Procs)}
			}
		case BlockCyclic:
			if d.Procs < 1 || d.Size < 1 {
				return &Error{fmt.Sprintf("template dim %d: CYCLIC(%d) over %d processors", t, d.Size, d.Procs)}
			}
		default:
			return &Error{fmt.Sprintf("template dim %d: unknown distribution kind %d", t, int8(d.Kind))}
		}
	}
	return nil
}

// checkEmbedding checks that dims embeds one array injectively into a
// template of the given rank.
func checkEmbedding(a string, dims []int, rank int) error {
	if len(dims) > rank {
		return &Error{fmt.Sprintf("array %s has rank %d > template rank %d", a, len(dims), rank)}
	}
	for k, t := range dims {
		if t < 0 || t >= rank {
			return &Error{fmt.Sprintf("array %s dim %d aligned to template dim %d outside [0,%d)", a, k+1, t, rank)}
		}
		if slices.Contains(dims[:k], t) {
			return &Error{fmt.Sprintf("array %s aligns two dimensions to template dim %d", a, t)}
		}
	}
	return nil
}

// Procs returns the total processor count (product over dimensions).
func (l *Layout) Procs() int {
	p := 1
	for _, d := range l.Dist {
		if d.Procs > 1 {
			p *= d.Procs
		}
	}
	return p
}

// ArrayDist returns the effective per-dimension distribution of an
// array under this layout.
func (l *Layout) ArrayDist(array string) []DimDist {
	m := l.Align.Map[array]
	out := make([]DimDist, len(m))
	for k, t := range m {
		out[k] = l.Dist[t]
	}
	return out
}

// IsDistributed reports whether dimension dim of array is spread over
// more than one processor.
func (l *Layout) IsDistributed(array string, dim int) bool {
	p := l.place()
	dims := p.dims(array)
	return dim < len(dims) && p.axis(dims[dim]) >= 0
}

// DistributedDims returns the distributed dimensions of an array, in
// ascending order.  The slice belongs to the layout: read it, do not
// change it.
func (l *Layout) DistributedDims(array string) []int {
	p := l.place()
	if i := p.find(array); i >= 0 {
		return p.dist(i)
	}
	return nil
}

// DistributedTemplateDims returns the distributed template dimensions.
func (l *Layout) DistributedTemplateDims() []int {
	var out []int
	for t, d := range l.Dist {
		if d.distributed() {
			out = append(out, t)
		}
	}
	return out
}

// BlockSize returns the per-processor block length of template
// dimension t (the whole extent for Star).
func (l *Layout) BlockSize(t int) int {
	d := l.Dist[t]
	n := l.Template.Extents[t]
	switch d.Kind {
	case Star:
		return n
	case Block:
		return ceilDiv(n, d.Procs)
	case Cyclic:
		return ceilDiv(n, d.Procs)
	case BlockCyclic:
		return d.Size * ceilDiv(n, d.Size*d.Procs)
	}
	return n
}

// Key is a canonical signature of the layout's *effective* per-array
// distribution.  Two layouts with the same key place every array
// identically, which makes remapping between them free and makes them
// duplicates in a search space.  The key deliberately ignores how
// arrays are routed through template dimensions: a transposed
// orientation with a row distribution equals a canonical orientation
// with a column distribution (§3.2).
func (l *Layout) Key() string {
	var buf [keyBuf]byte
	b := buf[:0]
	for _, a := range l.Align.sorted() {
		b = append(b, a.name...)
		b = append(b, '(')
		for k, t := range a.dims {
			if k > 0 {
				b = append(b, ',')
			}
			b = l.Dist[t].appendTo(b)
		}
		b = append(b, ')')
	}
	return string(b)
}

// keyBuf is the stack buffer a key is rendered into: the corpus's keys
// fit, so building one costs the allocation of its string and no more.
const keyBuf = 256

// FullKey is a canonical signature of the layout's exact structure:
// the distribution of every template dimension plus every array's
// embedding into the template.  Unlike Key, it distinguishes transposed
// orientations, so two layouts share a FullKey exactly when the
// compiler and execution models are guaranteed to price them
// identically — it is the layout component of the pricing memoization
// key (see core's cache).
func (l *Layout) FullKey() string {
	var buf [keyBuf]byte
	b := buf[:0]
	for t, d := range l.Dist {
		if t > 0 {
			b = append(b, ',')
		}
		b = d.appendTo(b)
	}
	for _, a := range l.Align.sorted() {
		b = append(b, '|')
		b = append(b, a.name...)
		b = append(b, ':', '[')
		for k, t := range a.dims {
			if k > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(t), 10)
		}
		b = append(b, ']')
	}
	return string(b)
}

// ArrayKey is the canonical signature of one array's placement,
// including which distributed template dimension each array dimension
// occupies (two arrays whose dimensions land on different processor
// grid axes are laid out differently even if the formats match).
func (l *Layout) ArrayKey(array string) string {
	var buf [keyBuf]byte
	b := append(buf[:0], array...)
	b = append(b, '(')
	p := l.place()
	for k, t := range p.dims(array) {
		if k > 0 {
			b = append(b, ',')
		}
		axis := p.axis(t)
		if axis < 0 {
			b = append(b, '*')
			continue
		}
		b = l.Dist[t].appendTo(b)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(axis), 10)
	}
	b = append(b, ')')
	return string(b)
}

// SameArrayPlacement reports whether array is placed identically by l
// and m (no remapping needed for it on a transition).
func SameArrayPlacement(l, m *Layout, array string) bool {
	// Structural comparison equivalent to l.ArrayKey(array) ==
	// m.ArrayKey(array), without building the strings: this runs once
	// per (array, layout pair) inside every transition pricing, the
	// hottest loop of the whole tool.
	pl, pm := l.place(), m.place()
	a, b := pl.dims(array), pm.dims(array)
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		// Undistributed on both sides, or on the same grid axis in the
		// same format.
		la, ma := pl.axis(a[k]), pm.axis(b[k])
		if la != ma {
			return false
		}
		if la < 0 {
			continue
		}
		dl, dm := l.Dist[a[k]], m.Dist[b[k]]
		if dl.Kind != dm.Kind || dl.Procs != dm.Procs {
			return false
		}
		if dl.Kind == BlockCyclic && dl.Size != dm.Size {
			return false
		}
	}
	return true
}

func (l *Layout) String() string {
	dist := make([]string, len(l.Dist))
	for i, d := range l.Dist {
		dist[i] = d.String()
	}
	return fmt.Sprintf("align[%s] dist(%s)", l.Align, strings.Join(dist, ","))
}

// Clone returns a deep copy of the layout.
func (l *Layout) Clone() *Layout {
	return &Layout{
		Template: l.Template,
		Align:    l.Align.Clone(),
		Dist:     append([]DimDist(nil), l.Dist...),
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
