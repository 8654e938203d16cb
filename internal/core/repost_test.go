package core

// Re-posts: Session.Update on the exact text its last Update was given
// serves the current snapshot without lexing, parsing or keying the
// source again, visits the same fault sites as the parse path, and
// answers exactly what the parse path answers.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/programs"
	"repro/internal/stage"
)

// wantStage fails the test unless res booked st as want.
func wantStage(t *testing.T, what string, res *Result, st string, want StageReuse) {
	t.Helper()
	if got := res.Incremental.Stages[st]; got != want {
		t.Errorf("%s: %s = %+v, want %+v", what, st, got, want)
	}
}

// TestRepostSkipsParse: the first Update parses; a re-post books parse
// as reused and returns the snapshot itself; a comment-only edit (new
// text, same key) replays parse, returns the snapshot through the key
// match and becomes the text a re-post must match; an edit replays
// parse and swaps the snapshot.  Matching is by bytes: a fresh copy of
// the text re-posts too.
func TestRepostSkipsParse(t *testing.T) {
	ctx := context.Background()
	sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	update := func(what, src string) *Result {
		t.Helper()
		res, err := sess.Update(ctx, src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return res
	}
	first := sess.snapshot()

	res := update("first post", threePhases)
	wantStage(t, "first post", res, stage.Parse, StageReuse{Replayed: 1})
	res = update("re-post", threePhases)
	wantStage(t, "re-post", res, stage.Parse, StageReuse{Reused: 1})
	wantStage(t, "re-post", res, stage.Dep, StageReuse{Reused: 3})
	if _, ok := res.StageTimes[stage.Parse]; !ok {
		t.Error("re-post: no parse stage time")
	}
	if sess.snapshot() != first {
		t.Error("re-post swapped the snapshot")
	}

	commented := strings.Replace(threePhases, "parameter (n = 16)", "parameter (n = 16) ! grid size", 1)
	res = update("comment edit", commented)
	wantStage(t, "comment edit", res, stage.Parse, StageReuse{Replayed: 1})
	wantStage(t, "comment edit", res, stage.Dep, StageReuse{Reused: 3})
	if sess.snapshot() != first {
		t.Error("comment edit swapped the snapshot")
	}
	res = update("re-post of the comment edit", commented)
	wantStage(t, "re-post of the comment edit", res, stage.Parse, StageReuse{Reused: 1})
	res = update("back to the original", threePhases)
	wantStage(t, "back to the original", res, stage.Parse, StageReuse{Replayed: 1})

	edited := editPhase1(threePhases)
	res = update("edit", edited)
	wantStage(t, "edit", res, stage.Parse, StageReuse{Replayed: 1})
	if sess.snapshot() == first {
		t.Error("edit kept the old snapshot")
	}
	res = update("re-post of a copy", string([]byte(edited)))
	wantStage(t, "re-post of a copy", res, stage.Parse, StageReuse{Reused: 1})
	cold, err := Analyze(ctx, Input{Source: edited}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if render(res) != render(cold) {
		t.Error("re-post of an edit differs from a cold Analyze")
	}
}

// TestRepostNeedsAPost: NewSession's input is not a post, whether it
// was source text or an analyzed Unit, so a session's first Update
// always parses; only a later one can re-post.  A failed Update is not
// a post either.
func TestRepostNeedsAPost(t *testing.T) {
	ctx := context.Background()
	prog, err := fortran.Parse(threePhases)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fortran.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]Input{"source": {Source: threePhases}, "unit": {Unit: u}} {
		sess, err := NewSession(ctx, in, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Update(ctx, "", Options{}); err == nil {
			t.Errorf("%s: an empty source was served before any post", name)
		}
		for i, want := range []StageReuse{{Replayed: 1}, {Reused: 1}} {
			res, err := sess.Update(ctx, threePhases, Options{})
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s session, Update %d", name, i+1)
			wantStage(t, what, res, stage.Parse, want)
			wantStage(t, what, res, stage.Dep, StageReuse{Reused: 3})
		}
		// An edit that parses but has no answer leaves the last post.
		pinned := strings.Replace(threePhases, "real a(n,n), b(n,n), c(n,n)",
			"real a(n,n), b(n,n), c(n,n)\n!hpf$ distribute a(block,block)", 1)
		if _, err := sess.Update(ctx, pinned, Options{}); err == nil {
			t.Fatalf("%s: a directive no candidate satisfies was answered", name)
		}
		res, err := sess.Update(ctx, threePhases, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantStage(t, name+" session, after a failed Update", res, stage.Parse, StageReuse{Reused: 1})
	}
}

// TestRepostFaults: the re-post visits the parse fault site exactly as
// the parse path does, and an incremental-invalidate rule that refuses
// the reuse sends it down the parse path with the same answer.
func TestRepostFaults(t *testing.T) {
	ctx := context.Background()
	cold, err := Analyze(ctx, Input{Source: threePhases}, Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	posted := func(t *testing.T) *Session {
		t.Helper()
		sess, err := NewSession(ctx, Input{Source: threePhases}, Options{Procs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Update(ctx, threePhases, Options{}); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	t.Run("parse", func(t *testing.T) {
		sess := posted(t)
		plan := fault.NewPlan(1).Arm(stage.Parse, fault.Rule{Action: fault.Fail})
		_, err := sess.Update(ctx, threePhases, Options{Fault: plan})
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Site != stage.Parse {
			t.Fatalf("re-post under a parse Fail rule: err = %v, want the injected parse failure", err)
		}
		if hits := plan.Hits()[stage.Parse]; hits != 1 {
			t.Errorf("parse site visited %d times, want 1", hits)
		}
	})
	for _, action := range []fault.Action{fault.Fail, fault.Corrupt} {
		t.Run(action.String(), func(t *testing.T) {
			sess := posted(t)
			plan := fault.NewPlan(1).Arm(stage.IncrementalInvalidate, fault.Rule{Action: action})
			res, err := sess.Update(ctx, threePhases, Options{Fault: plan})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Fired(stage.IncrementalInvalidate) == 0 {
				t.Fatal("fault site never fired")
			}
			wantStage(t, "refused re-post", res, stage.Parse, StageReuse{Replayed: 1})
			if render(res) != render(cold) {
				t.Error("refused re-post differs from a cold Analyze")
			}
		})
	}
}

// TestRepostAllocs: serving a re-post whole costs fewer allocations
// than parsing its source alone.
func TestRepostAllocs(t *testing.T) {
	ctx := context.Background()
	src := programs.Adi(48, fortran.Double)
	sess, err := NewSession(ctx, Input{Source: src}, Options{Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update(ctx, src, Options{}); err != nil {
		t.Fatal(err)
	}
	repost := testing.AllocsPerRun(20, func() {
		if _, err := sess.Update(ctx, src, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	parse := testing.AllocsPerRun(20, func() {
		if _, err := stageParse(Input{Source: src}, Options{}, nil, stage.Timings{}); err != nil {
			t.Fatal(err)
		}
	})
	if repost >= parse {
		t.Errorf("re-post allocates %v objects, parsing the source alone %v", repost, parse)
	}
}
