package fault

import (
	"errors"
	"testing"
	"time"
)

func TestNilPlanIsUnarmed(t *testing.T) {
	var p *Plan
	if err := p.Err("site"); err != nil {
		t.Errorf("nil plan injected an error: %v", err)
	}
	if got := p.Corrupt("site", 3.5); got != 3.5 {
		t.Errorf("nil plan corrupted: %v", got)
	}
	if p.ShouldCorrupt("site") {
		t.Error("nil plan wants to corrupt")
	}
	if p.Hits() != nil {
		t.Error("nil plan counts hits")
	}
	if p.Fired("site") != 0 {
		t.Error("nil plan fired")
	}
}

func TestUnarmedSitePassesThrough(t *testing.T) {
	p := NewPlan(1).Arm("other", Rule{Action: Fail})
	if err := p.Err("site"); err != nil {
		t.Errorf("unarmed site injected: %v", err)
	}
	if got := p.Corrupt("site", 2); got != 2 {
		t.Errorf("unarmed site corrupted: %v", got)
	}
	if p.Hits()["site"] != 1 {
		t.Errorf("hits = %d, want 1", p.Hits()["site"])
	}
}

func TestFailEveryHit(t *testing.T) {
	p := NewPlan(1).Arm("s", Rule{Action: Fail})
	for i := 0; i < 3; i++ {
		err := p.Err("s")
		var fe *Error
		if !errors.As(err, &fe) || fe.Site != "s" {
			t.Fatalf("hit %d: err = %v, want *Error at s", i, err)
		}
	}
	if p.Fired("s") != 3 {
		t.Errorf("fired = %d, want 3", p.Fired("s"))
	}
}

func TestAfterSelectsNthHit(t *testing.T) {
	p := NewPlan(1).Arm("s", Rule{Action: Fail, After: 3})
	for i := 1; i <= 5; i++ {
		err := p.Err("s")
		if (err != nil) != (i == 3) {
			t.Fatalf("hit %d: err = %v, want injection only on hit 3", i, err)
		}
	}
	if p.Hits()["s"] != 5 || p.Fired("s") != 1 {
		t.Errorf("hits = %d fired = %d, want 5 and 1", p.Hits()["s"], p.Fired("s"))
	}
}

func TestPanicAction(t *testing.T) {
	p := NewPlan(1).Arm("s", Rule{Action: Panic})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Site != "s" {
			t.Errorf("recovered %v, want *Error at s", r)
		}
	}()
	p.Err("s")
	t.Fatal("no panic")
}

func TestDelayAction(t *testing.T) {
	const d = 20 * time.Millisecond
	p := NewPlan(1).Arm("s", Rule{Action: Delay, Delay: d})
	start := time.Now()
	if err := p.Err("s"); err != nil {
		t.Fatalf("delay returned an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("slept %v, want at least %v", elapsed, d)
	}
}

func TestCorruptIsDeterministicAndObservable(t *testing.T) {
	for _, v := range []float64{0, 1, -3.25, 1e9} {
		a := NewPlan(42).Arm("s", Rule{Action: Corrupt})
		b := NewPlan(42).Arm("s", Rule{Action: Corrupt})
		a.Err("s")
		b.Err("s")
		ca, cb := a.Corrupt("s", v), b.Corrupt("s", v)
		if ca != cb {
			t.Errorf("v=%g: same seed corrupted differently: %g vs %g", v, ca, cb)
		}
		if ca == v {
			t.Errorf("v=%g: corruption left the value unchanged", v)
		}
	}
	// Distinct seeds perturb distinctly.
	a := NewPlan(1).Arm("s", Rule{Action: Corrupt})
	b := NewPlan(2).Arm("s", Rule{Action: Corrupt})
	a.Err("s")
	b.Err("s")
	if a.Corrupt("s", 5) == b.Corrupt("s", 5) {
		t.Error("distinct seeds produced the same corruption")
	}
}

func TestCorruptAfterTargetsOneVisit(t *testing.T) {
	p := NewPlan(1).Arm("s", Rule{Action: Corrupt, After: 2})
	p.Err("s") // visit 1
	if p.ShouldCorrupt("s") {
		t.Error("corrupted on visit 1, want visit 2")
	}
	p.Err("s") // visit 2
	if !p.ShouldCorrupt("s") {
		t.Error("did not corrupt on visit 2")
	}
	p.Err("s") // visit 3
	if p.ShouldCorrupt("s") {
		t.Error("corrupted on visit 3, want only visit 2")
	}
}

func TestCorruptDoesNotFireOtherActions(t *testing.T) {
	p := NewPlan(1).Arm("s", Rule{Action: Corrupt})
	if err := p.Err("s"); err != nil {
		t.Errorf("corrupt rule made Err fail: %v", err)
	}
	if !p.ShouldCorrupt("s") {
		t.Error("corrupt rule not visible to ShouldCorrupt")
	}
}

func TestActionStrings(t *testing.T) {
	want := map[Action]string{None: "none", Fail: "fail", Panic: "panic", Delay: "delay", Corrupt: "corrupt"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
	if Action(99).String() != "Action(99)" {
		t.Errorf("unknown action string: %s", Action(99).String())
	}
}

func TestErrorMessageNamesSite(t *testing.T) {
	e := &Error{Site: "pricing"}
	if got := e.Error(); got != "fault: injected failure at pricing" {
		t.Errorf("message = %q", got)
	}
}

func TestArms(t *testing.T) {
	var unarmed *Plan
	if unarmed.Arms("a") {
		t.Error("nil plan arms a site")
	}
	p := NewPlan(1).Arm("a", Rule{Action: Delay}).Arm("off", Rule{})
	if !p.Arms("x", "a") {
		t.Error("armed site not reported")
	}
	if p.Arms("x", "off") || p.Arms() {
		t.Error("unarmed, None-armed or no sites reported as armed")
	}
	if p.Hits()["a"] != 0 {
		t.Error("Arms counted a hit")
	}
}
