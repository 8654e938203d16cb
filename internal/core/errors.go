package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/verify"
)

// Degradation records one graceful fallback taken while solving: a
// subsystem's exact 0-1 search was cut off by the wall-clock or node
// budget and the tool continued with the best answer it had (a feasible
// incumbent, the exact elimination DP, or a greedy heuristic) instead of
// failing.  The layouts in the Result remain valid; only proven
// optimality is forfeited.
type Degradation struct {
	// Subsystem names the pipeline stage whose solve degraded —
	// stage.AlignSolve or stage.Selection, from the shared stage
	// vocabulary (package stage), so degradations, cancellation labels,
	// fault sites and certification failures all correlate by name.
	Subsystem string `json:"subsystem"`
	// Detail describes the cutoff and the fallback taken.
	Detail string `json:"detail"`
	// Gap is the relative optimality gap between the reported answer
	// and the best proven bound: 0 when the fallback is exact, negative
	// when no bound is known (e.g. a greedy fallback).
	Gap float64 `json:"gap"`
}

func (d Degradation) String() string {
	if d.Gap >= 0 {
		return fmt.Sprintf("%s: %s (gap <= %.1f%%)", d.Subsystem, d.Detail, d.Gap*100)
	}
	return fmt.Sprintf("%s: %s (gap unknown)", d.Subsystem, d.Detail)
}

// InternalError wraps a violated internal invariant (a panic recovered
// at the package boundary): callers get a typed error with the original
// message and stack instead of a crash.  Encountering one is a bug in
// the tool, not in the input program.
type InternalError struct {
	Msg   string
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("core: internal error: %s", e.Msg)
}

// ValidationError reports invalid input: options or directives the
// framework cannot proceed from (too few processors, user constraints
// that eliminate every candidate, ...).
type ValidationError struct {
	Msg string
}

func (e *ValidationError) Error() string { return "core: " + e.Msg }

// StrictError is returned instead of a Degradation when
// Options.Strict is set: the solve would have continued with a
// suboptimal fallback, and strict mode turns that into a hard failure
// naming the subsystem.
type StrictError struct {
	Deg Degradation
}

func (e *StrictError) Error() string {
	return fmt.Sprintf("core: strict mode: %s solve degraded: %s", e.Deg.Subsystem, e.Deg.Detail)
}

// WatchdogError reports an analysis the service watchdog had to shoot:
// it exceeded Wall — a hard wall-clock multiple of its clamped Budget —
// without returning, was canceled, and (if it still did not unwind
// within the grace period) abandoned so its admission slot could be
// reclaimed.  Stack carries a goroutine dump taken at the trip, so a
// wedged solver is diagnosable from the error alone.  The wire maps it
// to KindWatchdog (retryable: the wedge may be load-dependent, and a
// key that trips the watchdog repeatedly is quarantined like any other
// crash).
type WatchdogError struct {
	Budget time.Duration
	Wall   time.Duration
	Stack  []byte
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("core: watchdog: analysis exceeded %v (budget %v, hard wall-clock multiple) and was abandoned",
		e.Wall, e.Budget)
}

// CertificationError reports a failed result certificate: with
// Options.Verify enabled, every solver product is independently
// re-checked, and a product whose recomputed value disagrees with its
// claim fails the run with this error instead of silently shipping a
// wrong-but-plausible answer.  Encountering one means a bug (or an
// injected fault) in the pipeline, never in the input program.
type CertificationError struct {
	// Stage is the pipeline stage whose product failed (package stage).
	Stage string
	// Check names the certificate check that failed.
	Check string
	// Claimed is the value the pipeline reported; Recomputed is the
	// independently re-derived value it disagrees with.
	Claimed, Recomputed float64
	// Detail pins the failure to a variable, constraint or phase.
	Detail string
}

func (e *CertificationError) Error() string {
	s := fmt.Sprintf("core: certification failed at %s (%s): claimed %g, recomputed %g",
		e.Stage, e.Check, e.Claimed, e.Recomputed)
	if e.Detail != "" {
		s += " — " + e.Detail
	}
	return s
}

// promoteCert rewrites a *verify.Error escaping the pipeline (from the
// solver certification hooks or the alignment checker) into the public
// *CertificationError.  Deferred at the API boundaries after guard, so
// callers see one typed certification error regardless of which layer
// detected the inconsistency.
func promoteCert(err *error) {
	if *err == nil {
		return
	}
	var ve *verify.Error
	if errors.As(*err, &ve) {
		*err = &CertificationError{
			Stage:      ve.Stage,
			Check:      ve.Check,
			Claimed:    ve.Claimed,
			Recomputed: ve.Recomputed,
			Detail:     ve.Detail,
		}
	}
}

// guard converts a panic escaping the framework into a typed
// *InternalError on the named return.  Deferred at every public entry
// point so no input, however malformed, can crash the caller.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = &InternalError{Msg: fmt.Sprint(r), Stack: debug.Stack()}
	}
}
