// Package fault is a seedable, deterministic fault-injection registry
// for the analysis pipeline.
//
// Every pipeline stage carries a named injection site (the names come
// from package stage); a test arms a Plan with rules mapping sites to
// actions — fail (return an injected error), panic, delay, or corrupt
// (deterministically perturb a result value) — and hands the plan to
// the pipeline through its options.  The chaos suite sweeps every
// site × action and asserts the pipeline's invariant: a typed error or
// a certificate-passing result, never a silent wrong answer and never
// a hang past the deadline plus slack.
//
// The on-disk artifact store (internal/store) carries three sites of
// its own — store-open, store-read, store-write — with IO-shaped
// semantics: store-read fires once per read *attempt* (so After rules
// model transient errors the bounded retry recovers from), and
// store-write fires mid-record, after part of the payload reached the
// temp file, so Fail and Panic simulate crashes that leave torn temp
// files for the next open to quarantine.  A store fault must never
// fail an analysis: the pipeline degrades to memory-only caching and
// records the fallback in Result.Degradations.
//
// A nil *Plan is the unarmed registry: every hook short-circuits on a
// nil receiver check, so production runs pay a single predictable
// branch per site and allocate nothing.  Armed plans are deterministic:
// the same seed, rules and hit order inject the same faults, so any
// chaos failure replays exactly.
package fault

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Action is what an armed rule does when its site is hit.
type Action uint8

const (
	// None leaves the site untouched (an unarmed rule).
	None Action = iota
	// Fail makes the site return an injected *Error.
	Fail
	// Panic makes the site panic with an *Error value, exercising the
	// pipeline's recovery boundaries.
	Panic
	// Delay makes the site sleep for the rule's Delay before
	// continuing, exercising deadline and degradation paths.
	Delay
	// Corrupt deterministically perturbs the numeric result produced at
	// the site, exercising the certificate checkers.  Sites without a
	// numeric product ignore it.
	Corrupt
)

func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// Actions lists every injectable action, for chaos sweeps.
var Actions = []Action{Fail, Panic, Delay, Corrupt}

// Rule arms one site.
type Rule struct {
	Action Action
	// Delay is the sleep duration of a Delay action.
	Delay time.Duration
	// After selects which hit of the site fires the rule: 0 fires on
	// every hit, n > 0 fires only on the nth hit (1-based).  Counting
	// is per site and deterministic under sequential execution.
	After int
}

// Error is an injected failure.  It is the typed error the pipeline's
// "typed error or certified result" invariant accepts: observing one
// outside a chaos run means a fault plan leaked into production.
type Error struct {
	Site string
}

func (e *Error) Error() string { return fmt.Sprintf("fault: injected failure at %s", e.Site) }

// Plan is an armed fault-injection plan.  The zero value of *Plan
// (nil) is the unarmed registry; NewPlan returns an armed, empty one.
// A Plan is safe for concurrent use by analyses that share it.
type Plan struct {
	seed  int64
	mu    sync.Mutex
	rules map[string]Rule
	hits  map[string]int
	fired map[string]int
}

// NewPlan returns an empty plan.  The seed parameterizes the Corrupt
// perturbation so distinct seeds inject distinct (but deterministic)
// corruptions.
func NewPlan(seed int64) *Plan {
	return &Plan{
		seed:  seed,
		rules: map[string]Rule{},
		hits:  map[string]int{},
		fired: map[string]int{},
	}
}

// Arm installs a rule at a site, replacing any previous rule there.
func (p *Plan) Arm(site string, r Rule) *Plan {
	p.mu.Lock()
	p.rules[site] = r
	p.mu.Unlock()
	return p
}

// Arms reports whether the plan holds an armed rule at any of the given
// sites.  A nil plan arms nothing.
func (p *Plan) Arms(sites ...string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, site := range sites {
		if p.rules[site].Action != None {
			return true
		}
	}
	return false
}

// fire records one hit of a site and reports the armed rule if it
// fires on this hit.  Each site hook calls it exactly once per logical
// visit, so After counts visits, not internal checks.
func (p *Plan) fire(site string) (Rule, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[site]++
	r, ok := p.rules[site]
	if !ok || r.Action == None {
		return Rule{}, false
	}
	if r.After != 0 && p.hits[site] != r.After {
		return Rule{}, false
	}
	p.fired[site]++
	return r, true
}

// Err is the entry hook of a site: it counts one hit and, when the
// site's armed rule fires, returns an injected *Error (Fail), panics
// with one (Panic), or sleeps (Delay).  Corrupt rules do not act here —
// the site applies them to its result via Corrupt or ShouldCorrupt —
// and a nil plan always returns nil.
func (p *Plan) Err(site string) error {
	if p == nil {
		return nil
	}
	r, ok := p.fire(site)
	if !ok {
		return nil
	}
	switch r.Action {
	case Fail:
		return &Error{Site: site}
	case Panic:
		panic(&Error{Site: site})
	case Delay:
		time.Sleep(r.Delay)
	}
	return nil
}

// armedCorrupt reports whether a Corrupt rule applies to the site's
// current visit (the one Err just counted).  It does not count a hit
// itself: Err defines the visit, Corrupt/ShouldCorrupt act on its
// result.
func (p *Plan) armedCorrupt(site string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.rules[site]
	if !ok || r.Action != Corrupt {
		return false
	}
	if r.After != 0 && p.hits[site] != r.After {
		return false
	}
	p.fired[site]++
	return true
}

// Corrupt perturbs v when the site is armed with a Corrupt rule firing
// on the current visit, and returns v unchanged otherwise.  The
// perturbation adds a strictly positive, seed-dependent delta that
// scales with |v|, so it is deterministic in the plan's seed, has no
// fixed point (even v == 0 moves by at least 1), and always clears a
// relative checker tolerance — an applied corruption is always
// observable.  (A multiplicative form like v*1.5+c was rejected: it
// leaves v = -2c unchanged, which a fuzzer duly found.)
func (p *Plan) Corrupt(site string, v float64) float64 {
	if p == nil || !p.armedCorrupt(site) {
		return v
	}
	off := p.seed % 251
	if off < 0 {
		off = -off
	}
	return v + (1+float64(off))*(1+0.5*math.Abs(v))
}

// ShouldCorrupt reports whether a Corrupt rule fires on the site's
// current visit, for sites whose corruption is structural (e.g.
// flipping a solution bit) rather than a numeric perturbation.
func (p *Plan) ShouldCorrupt(site string) bool {
	return p != nil && p.armedCorrupt(site)
}

// Hits returns a snapshot of the per-site hit counts (every call to a
// hook, whether or not a rule fired).
func (p *Plan) Hits() map[string]int {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.hits))
	for s, n := range p.hits {
		out[s] = n
	}
	return out
}

// Fired returns a snapshot of the per-site counts of rules that
// actually fired, so chaos sweeps can assert an armed fault was
// reached rather than silently skipped.
func (p *Plan) Fired(site string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired[site]
}
