package main

// Spans recorded by the harness around its calls into the repo's
// packages.  They are kept in memory and written out when the traced
// run ends; a nil *tracer records nothing, which is the untraced run.

import (
	"sync"
	"time"
)

// span is one timed interval.  Parent indexes the span that caused it
// (-1 for a root); Op is the op it belongs to (-1 for layer replays).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

type tracer struct {
	mu    sync.Mutex // layoutd-warm records from two client goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.spans[id].StartNS = int64(time.Since(t.t0))
	return id
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int { return t.add(name, parent, -1) }

// beginOp opens the root span of op number idx.
func (t *tracer) beginOp(idx int) int { return t.add("op", -1, idx) }

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - children[i])
	}
	return self
}
