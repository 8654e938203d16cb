package service

// The per-flight watchdog: crash-only slot recovery.
//
// core.Analyze is built to respect its budget — solves degrade and
// cancellation is threaded everywhere — but a resilient service cannot
// *assume* that: one wedged solver (a livelock, an unkillable
// syscall, an injected Delay fault) would otherwise hold an admission
// slot forever, and MaxInFlight wedged solvers are a dead replica that
// still answers /healthz.  The watchdog runs each analysis on its own
// goroutine and bounds it by a hard wall clock — a multiple of the
// request's clamped budget plus a floor — and on a trip it cancels the
// analysis, captures a goroutine dump for the error detail, waits one
// grace period for the cancellation to be honored, and then *abandons*
// the goroutine: the slot is reclaimed immediately, the flight answers
// a typed retryable core.KindWatchdog error, and the abandoned
// goroutine (which can no longer leak the slot) is tracked only so a
// draining Close can give it a bounded chance to unwind before the
// store shuts.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stage"
)

// analysisWall returns the hard wall-clock bound for a flight with the
// given clamped budget: floor + multiple×budget.  Zero means no
// watchdog — a request the operator left unbudgeted (no timeout_ms, no
// -default-timeout, no -max-timeout) has no clamped budget to multiply.
func (s *Server) analysisWall(budget time.Duration) time.Duration {
	if budget <= 0 {
		return 0
	}
	return s.pol.watchdogFloor + time.Duration(s.pol.watchdogMultiple)*budget
}

// outcome is one analysis goroutine's result.
type outcome struct {
	res *core.Result
	err error
}

// runAnalysis runs one admitted flight's analysis under the watchdog.
// It always returns within wall + grace (or as soon as the analysis
// finishes), and the caller owns the admission slot release — a trip
// never leaks the slot.
func (s *Server) runAnalysis(req *core.Request, opt core.Options) outcome {
	// The flight context descends from the server context, not any
	// client's: a disconnecting leader never kills a shared flight, and
	// only server shutdown or this flight's own watchdog cancels it.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	ch := make(chan outcome, 1) // buffered: an abandoned goroutine must not block on send
	s.running.add(1)
	go func() {
		defer s.running.add(-1)
		defer func() {
			// The service's own recovery boundary: a panic in the flight
			// (the service-flight fault site, or any analyzer panic that
			// slipped past core's guard) becomes a typed internal error,
			// which the crash table then counts against the key.
			if r := recover(); r != nil {
				ch <- outcome{err: &core.InternalError{Msg: fmt.Sprint(r), Stack: debug.Stack()}}
			}
		}()
		if err := s.cfg.Fault.Err(stage.ServiceFlight); err != nil {
			ch <- outcome{err: err}
			return
		}
		res, err := s.analyzeFlight(ctx, req, opt)
		ch <- outcome{res: res, err: err}
	}()

	wall := s.analysisWall(opt.Timeout)
	if wall == 0 {
		return <-ch
	}
	timer := time.NewTimer(wall)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o
	case <-timer.C:
	}

	// Watchdog trip: the analysis overran its hard wall.  Dump the
	// goroutines first (the dump is the diagnosis — what was it stuck
	// on?), then cancel and give the flight one grace period to unwind.
	s.m.watchdogTrips.Add(1)
	stack := goroutineDump()
	cancel()
	grace := time.NewTimer(s.pol.watchdogGrace)
	defer grace.Stop()
	select {
	case <-ch:
		// Unwound under cancellation — still a trip (the answer is long
		// past its wall), but nothing leaks.
	case <-grace.C:
		// Truly wedged: abandon the goroutine.  The slot is reclaimed by
		// our caller; s.running still tracks the zombie so Close can
		// wait (boundedly) before closing the store under it.
		s.m.watchdogAbandoned.Add(1)
	}
	return outcome{err: &core.WatchdogError{Budget: opt.Timeout, Wall: wall, Stack: stack}}
}

// goroutineDump captures an all-goroutine stack dump, capped so a
// busy server's dump still fits an error envelope.
func goroutineDump() []byte {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	const keep = 8 << 10
	if n > keep {
		copy(buf, buf[:keep])
		n = copy(buf[keep:], []byte("\n... (dump truncated)"))
		return buf[:keep+n]
	}
	return buf[:n]
}

// gauge is a counter whose zero crossing can be awaited with a bound —
// the drain primitive behind Server.Close's "wait for in-flight
// flights before closing the store".
type gauge struct {
	mu   sync.Mutex
	n    int
	zero chan struct{} // non-nil while a waiter is parked
}

func (g *gauge) add(d int) {
	g.mu.Lock()
	g.n += d
	if g.n == 0 && g.zero != nil {
		close(g.zero)
		g.zero = nil
	}
	g.mu.Unlock()
}

// waitZero blocks until the gauge reaches zero or the bound elapses,
// reporting whether it reached zero.
func (g *gauge) waitZero(bound time.Duration) bool {
	g.mu.Lock()
	if g.n == 0 {
		g.mu.Unlock()
		return true
	}
	if g.zero == nil {
		g.zero = make(chan struct{})
	}
	ch := g.zero
	g.mu.Unlock()
	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
		return false
	}
}
