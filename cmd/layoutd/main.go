// Command layoutd is the layout-analysis daemon: a long-running
// HTTP/JSON server that multiplexes concurrent analysis requests over
// one process-wide shared cache (L2) and an optional on-disk artifact
// store (L3), so repeated and concurrent traffic for the same program
// + machine + options is answered from warm state — and identical
// requests in flight coalesce onto a single analysis.
//
// Usage:
//
//	layoutd -addr :8780 [-store DIR] [-max-inflight N] [-queue N]
//	        [-cache-capacity N] [-default-timeout D] [-max-timeout D]
//	        [-max-body N] [-drain-timeout D]
//
// Endpoints:
//
//	POST /v1/analyze   core.Request (JSON, "v":1) → core.Response
//	GET  /metrics      service.Metrics counters snapshot
//	GET  /healthz      liveness probe (200 while the process serves)
//	GET  /readyz       readiness probe (503 while draining or the store is gone)
//
// Example:
//
//	curl -s -X POST localhost:8780/v1/analyze \
//	  -d '{"v":1,"source":"...fortran dialect...","procs":16}'
//
// The daemon is crash-only and self-protecting, under the fixed policy
// of package service (defaultPolicy and its constants, not flags):
// overload sheds early with 429 + an honest Retry-After once the
// standing queueing delay stays over target; an analysis that overruns
// its wall clock (a floor plus a multiple of its budget) is shot by the
// watchdog, its slot reclaimed and, after a grace period, its goroutine
// abandoned (unbudgeted requests have no wall — set -default-timeout or
// -max-timeout to arm it); a request key that keeps crashing the
// analyzer is quarantined with a typed 422 for a TTL; and a bounded
// table of program families keeps incremental sessions.  SIGTERM/SIGINT
// begin a graceful drain: /readyz flips to 503, new work bounces
// typed, in-flight analyses complete (progress is logged), and the
// store is flushed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8780", "listen address")
	storeDir := flag.String("store", "", "on-disk artifact store directory (L3; \"\" = memory-only)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently running analyses (0 = NumCPU)")
	queue := flag.Int("queue", 64, "max queued analyses before 429 (negative = no queue)")
	cacheCap := flag.Int("cache-capacity", 0, "shared cache entry bound (0 = default)")
	defTimeout := flag.Duration("default-timeout", 0, "budget applied to requests without timeout_ms (0 = none)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on any request's budget (0 = none)")
	maxBody := flag.Int64("max-body", 0, "request body byte bound (0 = 16MiB)")
	drainTimeout := flag.Duration("drain-timeout", 0, "shutdown bound for in-flight analyses (0 = 15s)")
	flag.Parse()

	srv, err := service.NewServer(service.Config{
		MaxInFlight:    *maxInflight,
		MaxQueue:       *queue,
		DrainTimeout:   *drainTimeout,
		CacheCapacity:  *cacheCap,
		StoreDir:       *storeDir,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "layoutd:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	if *storeDir != "" {
		log.Printf("layoutd: listening on %s (store %s)", *addr, *storeDir)
	} else {
		log.Printf("layoutd: listening on %s (memory-only)", *addr)
	}

	select {
	case err := <-done:
		srv.Close()
		log.Fatalf("layoutd: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: flip readiness first (load balancers stop routing,
	// new work bounces typed), log progress while in-flight analyses
	// complete, then stop the listener and flush the store.
	log.Printf("layoutd: draining (%d in flight)", srv.InFlight())
	srv.Drain()
	bound := *drainTimeout
	if bound <= 0 {
		bound = 15 * time.Second
	}
	progressDone := make(chan struct{})
	go func() {
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-progressDone:
				return
			case <-tick.C:
				if n := srv.InFlight(); n > 0 {
					log.Printf("layoutd: draining: %d analyses still in flight", n)
				}
			}
		}
	}()
	shCtx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		log.Printf("layoutd: shutdown: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("layoutd: closing store: %v", err)
	}
	close(progressDone)
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("layoutd: %v", err)
	}
	log.Printf("layoutd: drained and stopped")
}
