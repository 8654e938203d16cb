package core

import (
	"context"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/fault"
	"repro/internal/pcfg"
	"repro/internal/stage"
)

// invalidationDAG is the dependency DAG over artifact keys that
// specifies which artifacts an edit may replay.  Nodes are named
//
//	decls, phase/i, dep/i, dep, align, space/i, pricing/i, selection
//
// with edges decls→phase/i, phase/i→dep/i, dep/i→{dep, pricing/i},
// dep→align, align→space/i, space/i→pricing/i, pricing/i→selection.
// Everything reachable from a changed node is invalid and must replay;
// everything else may be reused.  It is the tests' oracle: they build
// it from a session's previous and current dep artifacts and assert the
// replay counters match the DAG's reach set exactly.
type invalidationDAG struct {
	keys    map[string]artifact.Key // node → content key (current run)
	down    map[string][]string     // node → downstream dependents
	changed []string                // nodes whose key differs from the previous run
}

// buildInvalidationDAG constructs the DAG for the current dep artifact
// and marks changed every node whose key is absent from (or differs in)
// the previous one.
func buildInvalidationDAG(prev, cur *depArtifact) *invalidationDAG {
	d := &invalidationDAG{keys: map[string]artifact.Key{}, down: map[string][]string{}}
	edge := func(from, to string) { d.down[from] = append(d.down[from], to) }
	node := func(name string, k artifact.Key) { d.keys[name] = k }

	node("decls", cur.declsKey)
	node("dep", cur.key)
	edge("dep", "align")
	for i := range cur.phaseKeys {
		ph, dp := phaseNode(i), depNode(i)
		node(ph, cur.phaseKeys[i])
		node(dp, cur.depKeys[i])
		edge("decls", ph)
		edge(ph, dp)
		edge(dp, "dep")
		edge(dp, pricingNode(i))
		edge("align", spaceNode(i))
		edge(spaceNode(i), pricingNode(i))
		edge(pricingNode(i), "selection")
	}

	prevKeys := map[artifact.Key]bool{}
	if prev != nil {
		prevKeys[prev.declsKey] = true
		prevKeys[prev.key] = true
		for i := range prev.phaseKeys {
			prevKeys[prev.phaseKeys[i]] = true
			prevKeys[prev.depKeys[i]] = true
		}
	}
	for name, k := range d.keys {
		if !prevKeys[k] {
			d.changed = append(d.changed, name)
		}
	}
	return d
}

func phaseNode(i int) string   { return "phase/" + strconv.Itoa(i) }
func depNode(i int) string     { return "dep-info/" + strconv.Itoa(i) }
func spaceNode(i int) string   { return "space/" + strconv.Itoa(i) }
func pricingNode(i int) string { return "pricing/" + strconv.Itoa(i) }

// reach returns every node reachable from the given starts (inclusive).
func (d *invalidationDAG) reach(starts []string) map[string]bool {
	out := map[string]bool{}
	var walk func(n string)
	walk = func(n string) {
		if out[n] {
			return
		}
		out[n] = true
		for _, m := range d.down[n] {
			walk(m)
		}
	}
	for _, s := range starts {
		walk(s)
	}
	return out
}

// invalid is the replay specification: everything reachable from a
// changed node.
func (d *invalidationDAG) invalid() map[string]bool {
	return d.reach(d.changed)
}

// threePhases is a program whose three loop nests are distinct, so a
// one-phase edit has an unambiguous blast radius.
const threePhases = `
program three
  parameter (n = 16)
  real a(n,n), b(n,n), c(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = c(i,j) * 2.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      c(i,j) = a(i,j) - 3.0
    end do
  end do
end
`

// editPhase1 rewrites the middle phase's constant, leaving the other
// two phases' statement renderings untouched.
func editPhase1(src string) string {
	out := strings.Replace(src, "c(i,j) * 2.0", "c(i,j) * 4.0", 1)
	if out == src {
		panic("edit did not apply")
	}
	return out
}

// TestUpdateMatchesColdAnalyze: the central byte-identity contract —
// an Update result renders identically to a cold Analyze of the edited
// source.
func TestUpdateMatchesColdAnalyze(t *testing.T) {
	ctx := context.Background()
	opt := Options{Procs: 8}
	sess, err := NewSession(ctx, Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatal(err)
	}
	src := adiSmall
	for i := 0; i < 4; i++ {
		next, m, merr := pcfg.MutateProgram(src, int64(40+i), pcfg.Options{})
		if merr != nil {
			t.Fatalf("edit %d: %v", i, merr)
		}
		src = next
		warm, werr := sess.Update(ctx, src, Options{})
		if werr != nil {
			t.Fatalf("edit %d (%v): Update: %v", i, m, werr)
		}
		cold, cerr := Analyze(ctx, Input{Source: src}, opt)
		if cerr != nil {
			t.Fatalf("edit %d: cold Analyze: %v", i, cerr)
		}
		if render(warm) != render(cold) {
			t.Fatalf("edit %d (%v): Update diverged from cold Analyze", i, m)
		}
		if warm.Incremental.Edits != int64(i+1) {
			t.Errorf("edit %d: Edits = %d", i, warm.Incremental.Edits)
		}
		if got := warm.Incremental.Stages[stage.Parse]; got.Replayed != 1 {
			t.Errorf("edit %d: parse counter = %+v", i, got)
		}
	}
}

// TestUpdateReplaysOnlyEditedPhase: a one-phase edit replays exactly
// that phase's dependence info, and the replay set equals the
// invalidation DAG's reach from the changed phase.
func TestUpdateReplaysOnlyEditedPhase(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.snapshot().dep
	res, err := sess.Update(ctx, editPhase1(threePhases), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep := res.Incremental.Stages[stage.Dep]
	if dep.Replayed != 1 || dep.Reused != 2 {
		t.Errorf("dep replay/reuse = %+v, want 1 replayed / 2 reused", dep)
	}
	if res.Incremental.ReuseRatio <= 0 {
		t.Errorf("reuse ratio = %v, want > 0", res.Incremental.ReuseRatio)
	}
	// The DAG agrees: exactly one phase/i (and its dep-info) invalid.
	invalid := buildInvalidationDAG(before, sess.snapshot().dep).invalid()
	var depInvalid int
	for i := 0; i < 3; i++ {
		if invalid[depNode(i)] {
			depInvalid++
		}
		if !invalid[spaceNode(i)] || !invalid[pricingNode(i)] {
			t.Errorf("phase %d space/pricing not invalidated (align is global)", i)
		}
	}
	if int64(depInvalid) != dep.Replayed {
		t.Errorf("DAG says %d dep infos invalid, counters replayed %d", depInvalid, dep.Replayed)
	}
	if invalid["decls"] {
		t.Error("decls marked invalid for a statement-only edit")
	}
	if !invalid["selection"] || !invalid["align"] {
		t.Error("selection/align must be downstream of any phase edit")
	}
}

// TestUpdateUnchangedSourceReusesEverything: an Update with identical
// source reuses the whole front half and, on the second identical
// call, serves pricing and the selection from the carried cache.
func TestUpdateUnchangedSourceReusesEverything(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(ctx, threePhases, Options{}); err != nil {
		t.Fatal(err)
	}
	before := sess.snapshot().dep
	res, err := sess.Update(ctx, threePhases, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep := res.Incremental.Stages[stage.Dep]
	if dep.Replayed != 0 || dep.Reused != 3 {
		t.Errorf("dep replay/reuse = %+v, want 0 replayed / 3 reused", dep)
	}
	pr := res.Incremental.Stages[stage.Pricing]
	if pr.Replayed != 0 || pr.Reused == 0 {
		t.Errorf("pricing replay/reuse = %+v, want all reused on identical re-run", pr)
	}
	sel := res.Incremental.Stages[stage.Selection]
	if sel.Reused != 1 {
		t.Errorf("selection reuse = %+v, want 1 reused", sel)
	}
	if dag := buildInvalidationDAG(before, sess.snapshot().dep); len(dag.changed) != 0 {
		t.Errorf("no-op edit should leave the DAG unchanged, got changed=%v", dag.changed)
	}
}

// TestUpdateWarmPricingOnEdit: after an edit, the unchanged phases'
// pricings hit the session-carried shared cache.
func TestUpdateWarmPricingOnEdit(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(ctx, threePhases, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Update(ctx, editPhase1(threePhases), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := res.Incremental.Stages[stage.Pricing]
	if pr.Reused == 0 {
		t.Errorf("pricing = %+v, want shared hits for the two unchanged phases", pr)
	}
	al := res.Incremental.Stages[stage.AlignSolve]
	if al.Reused == 0 {
		t.Errorf("align-solve = %+v, want memo hits for unchanged phases", al)
	}
}

// TestInvalidationDAGReach pins the DAG's structure: reach from a
// phase node covers its dep info, the global align artifact and
// everything downstream, but no sibling phase's dep info.
func TestInvalidationDAGReach(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	da := sess.snapshot().dep
	dag := buildInvalidationDAG(da, da)
	if len(dag.changed) != 0 {
		t.Fatalf("identical artifacts marked changed: %v", dag.changed)
	}
	got := dag.reach([]string{phaseNode(1)})
	for node, want := range map[string]bool{
		phaseNode(1):   true,
		depNode(1):     true,
		"dep":          true,
		"align":        true,
		spaceNode(0):   true, // align is global: every space re-derives
		pricingNode(0): true,
		"selection":    true,
		depNode(0):     false, // sibling dep infos stay valid
		depNode(2):     false,
		phaseNode(0):   false,
		"decls":        false,
	} {
		if got[node] != want {
			t.Errorf("reach(phase/1)[%s] = %v, want %v", node, got[node], want)
		}
	}
}

// TestChaosIncrementalInvalidate sweeps the incremental-invalidate
// fault site: dropping or corrupting a reuse candidate forces a replay
// whose output still matches the cold reference — a reused artifact is
// re-verified, never silently trusted.
func TestChaosIncrementalInvalidate(t *testing.T) {
	ctx := context.Background()
	edited := editPhase1(threePhases)
	cold, err := Analyze(ctx, Input{Source: edited}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, action := range []fault.Action{fault.Fail, fault.Corrupt} {
		t.Run(action.String(), func(t *testing.T) {
			sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
			if err != nil {
				t.Fatal(err)
			}
			plan := fault.NewPlan(1).Arm(stage.IncrementalInvalidate, fault.Rule{Action: action})
			res, err := sess.Update(ctx, edited, Options{Fault: plan})
			if err != nil {
				t.Fatalf("Update under %v: %v", action, err)
			}
			if plan.Fired(stage.IncrementalInvalidate) == 0 {
				t.Fatal("fault site never fired")
			}
			dep := res.Incremental.Stages[stage.Dep]
			if dep.Reused != 0 || dep.Replayed != 3 {
				t.Errorf("dep = %+v, want every phase replayed when reuse is poisoned", dep)
			}
			if render(res) != render(cold) {
				t.Error("poisoned reuse leaked into the result")
			}
		})
	}
	t.Run("Panic", func(t *testing.T) {
		sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.NewPlan(1).Arm(stage.IncrementalInvalidate, fault.Rule{Action: fault.Panic})
		_, err = sess.Update(ctx, edited, Options{Fault: plan})
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("panic surfaced as %v, want *InternalError", err)
		}
		// The session must stay usable after a crashed update.
		if _, err := sess.Update(ctx, edited, Options{}); err != nil {
			t.Fatalf("session unusable after panic: %v", err)
		}
	})
}

// TestIncrementalSoak replays a seeded random edit chain through
// Session.Update, certifying every result against its cold reference;
// every third edit runs with a chaos plan armed on the
// incremental-invalidate site.  CI's incremental-soak job sets
// INCREMENTAL_SOAK=100 to lengthen the chain (under -race).
func TestIncrementalSoak(t *testing.T) {
	edits := 12
	if v := os.Getenv("INCREMENTAL_SOAK"); v != "" {
		n := 0
		for _, c := range v {
			n = n*10 + int(c-'0')
		}
		if n > 0 {
			edits = n
		}
	}
	ctx := context.Background()
	opt := Options{Procs: 4}
	sess, err := NewSession(ctx, Input{Source: adiSmall}, opt)
	if err != nil {
		t.Fatal(err)
	}
	actions := []fault.Action{fault.Fail, fault.Corrupt, fault.Delay}
	src := adiSmall
	for i := 0; i < edits; i++ {
		next, m, merr := pcfg.MutateProgram(src, int64(1000+i), pcfg.Options{})
		if merr != nil {
			t.Fatalf("edit %d: %v", i, merr)
		}
		src = next
		var uopt Options
		if i%3 == 2 {
			uopt.Fault = fault.NewPlan(int64(i)).
				Arm(stage.IncrementalInvalidate, fault.Rule{Action: actions[(i/3)%len(actions)]})
		}
		warm, werr := sess.Update(ctx, src, uopt)
		if werr != nil {
			t.Fatalf("edit %d (%v): Update: %v", i, m, werr)
		}
		cold, cerr := Analyze(ctx, Input{Source: src}, opt)
		if cerr != nil {
			t.Fatalf("edit %d: cold: %v", i, cerr)
		}
		if render(warm) != render(cold) {
			t.Fatalf("edit %d (%v): warm result diverged from cold reference", i, m)
		}
	}
}
