package main

// The traced run's per-workload parts: which requests the layer replay
// walks, and the probes of layers only one workload exercises.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pcfg"
	"repro/internal/store"
)

func (w *passWorkload) references() ([]wireRequest, int)  { return w.reqs, 1 }
func (w *scaleWorkload) references() ([]wireRequest, int) { return []wireRequest{w.req}, 1 }
func (w *sweepWorkload) references() ([]wireRequest, int) { return w.reqs, 1 }
func (w *editWorkload) references() ([]wireRequest, int)  { return w.chains[0][:4], 4 }
func (w *daemonWorkload) references() ([]wireRequest, int) {
	return w.reqs, len(w.reqs)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf times f n times and returns the median in µs.
func medianOf(n int, f func() error) (float64, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = micros(time.Since(t0))
	}
	return median(ds), nil
}

// scale-path: what the worker fan-out buys on this machine.
func (w *scaleWorkload) probe(_ *tracer, c counts) error {
	if w.family != pcfg.StencilDeep {
		return nil
	}
	opAt := func(workers int) (float64, error) {
		r := w.req
		r.Req.Workers = workers
		return medianOf(3, func() error {
			_, err := servePath(nil, -1, &r, "", coldAnalyze, nil)
			return err
		})
	}
	seq, err := opAt(1)
	if err != nil {
		return err
	}
	fanned, err := opAt(runtime.NumCPU())
	if err != nil {
		return err
	}
	c["par.speedup"] = seq / fanned
	return nil
}

// sweep-fill: what building one session (the cached front half) costs.
func (w *sweepWorkload) probe(tr *tracer, c counts) error {
	seen := map[*core.Session]bool{}
	total := 0.0
	for i, sess := range w.sessions {
		if seen[sess] {
			continue
		}
		seen[sess] = true
		req := &w.reqs[i].Req
		opt, err := req.BuildOptions()
		if err != nil {
			return err
		}
		d, err := medianOf(3, func() error {
			s := tr.begin("core.session_new", -1)
			_, err := core.NewSession(context.Background(), core.Input{Source: req.Source}, opt)
			tr.end(s)
			return err
		})
		if err != nil {
			return err
		}
		total += d
	}
	c["core.session_new_us"] = total / float64(len(seen))
	return nil
}

const (
	driftEdits  = 200
	driftWindow = 25
	driftCold   = 5 // every fifth edit of a window also gets a cold analysis
)

// edit-chain: the drift probe.  One chain of 200 edits through one
// session; the ratio of late to early Update latency, beside the same
// ratio for cold analyses of the same sources, tells "the session got
// slower" from "the program got harder".  An Update's cost is checked
// against the cold analysis wherever one is made.
func (w *editWorkload) probe(tr *tracer, c counts) error {
	ctx := context.Background()
	opt, err := w.start.Req.BuildOptions()
	if err != nil {
		return err
	}
	src := w.start.Req.Source
	sess, err := core.NewSession(ctx, core.Input{Source: src}, opt)
	if err != nil {
		return err
	}
	if _, err := sess.Update(ctx, src, opt); err != nil {
		return err
	}
	var update, cold []float64
	for i := 0; i < driftEdits; i++ {
		if src, _, err = pcfg.MutateProgram(src, int64(7000+i), pcfg.Options{}); err != nil {
			return err
		}
		s := tr.begin("core.update_drift", -1)
		t0 := time.Now()
		res, err := sess.Update(ctx, src, opt)
		update = append(update, micros(time.Since(t0)))
		tr.end(s)
		if err != nil {
			return err
		}
		if (i >= driftWindow && i < driftEdits-driftWindow) || i%driftCold != 0 {
			continue
		}
		t0 = time.Now()
		ref, err := core.Analyze(ctx, core.Input{Source: src}, opt)
		cold = append(cold, micros(time.Since(t0)))
		if err != nil {
			return err
		}
		if costString(res.TotalCost) != costString(ref.TotalCost) {
			return fmt.Errorf("drift edit %d: Update answers %s, cold Analyze %s", i, costString(res.TotalCost), costString(ref.TotalCost))
		}
	}
	c["core.update_drift_ratio"] = median(update[driftEdits-driftWindow:]) / median(update[:driftWindow])
	c["core.cold_drift_ratio"] = median(cold[len(cold)/2:]) / median(cold[:len(cold)/2])
	return nil
}

// layoutd-warm: the handler without a socket, the server's own counters
// over everything sent since set-up, and the clients' retry counts.
func (w *daemonWorkload) probe(tr *tracer, c counts) error {
	m := w.srv.Metrics()
	sent := float64(m.RequestsTotal - w.warm.RequestsTotal)
	c["service.analyses"] = float64(m.AnalysesTotal-w.warm.AnalysesTotal) / sent
	c["service.dedup_hits"] = float64(m.DedupInflightHits-w.warm.DedupInflightHits) / sent
	c["service.rejected"] = float64(m.RequestsRejected-w.warm.RequestsRejected) / sent
	c["service.incremental_flights"] = float64(m.IncrementalFlights-w.warm.IncrementalFlights) / sent
	c["service.session_reuse_ratio"] = m.IncrementalReuseRatio
	var calls, retries int64
	for _, cl := range w.clients {
		st := cl.Stats()
		calls, retries = calls+st.Requests, retries+st.Retries
	}
	c["client.retries"] = float64(retries) / float64(calls)

	var handler, analysis float64
	for i := range w.reqs {
		body, err := json.Marshal(&w.reqs[i].Req)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		s := tr.begin("service.handler", -1)
		t0 := time.Now()
		w.srv.ServeHTTP(rec, hr)
		handler += micros(time.Since(t0))
		tr.end(s)
		var resp core.Response
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: handler answered %d", w.reqs[i].Key, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		analysis += float64(resp.Stats.ElapsedUS)
	}
	n := float64(len(w.reqs))
	c["service.handler_us"] = handler / n
	c["service.overhead_us"] = (handler - analysis) / n
	var err error
	c["service.metrics_us"], err = medianOf(5, func() error {
		rec := httptest.NewRecorder()
		w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("/metrics answered %d", rec.Code)
		}
		return nil
	})
	return err
}

// restart-store: Open, Get and Put called directly on the records the
// workload's store holds (one op reads them; set-up wrote them).
func (w *passWorkload) probe(tr *tracer, c counts) error {
	if w.dir == "" {
		return nil
	}
	files, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	type record struct {
		key     string
		payload []byte
	}
	var records []record
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".art") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(w.dir, f.Name()))
		if err != nil {
			return err
		}
		key, payload, err := store.DecodeRecord(b)
		if err != nil {
			return err
		}
		records = append(records, record{key, payload})
	}
	var st *store.Store
	if c["store.open_us"], err = medianOf(3, func() (err error) {
		s := tr.begin("store.open", -1)
		st, err = store.Open(store.Options{Dir: w.dir})
		tr.end(s)
		return err
	}); err != nil {
		return err
	}
	s := tr.begin("store.get", -1)
	t0 := time.Now()
	for _, r := range records {
		if _, ok, err := st.Get(r.key); err != nil || !ok {
			return fmt.Errorf("store.Get of a resident record: ok=%v err=%v", ok, err)
		}
	}
	c["store.get_us"] = micros(time.Since(t0))
	tr.end(s)
	c["store.records"] = float64(st.Len())
	c["store.bytes"] = float64(st.Stats().Bytes)

	fresh, err := os.MkdirTemp(w.env.tmp, "store-put-")
	if err != nil {
		return err
	}
	dst, err := store.Open(store.Options{Dir: fresh})
	if err != nil {
		return err
	}
	s = tr.begin("store.put", -1)
	t0 = time.Now()
	for _, r := range records {
		if err := dst.Put(r.key, r.payload); err != nil {
			return err
		}
	}
	c["store.put_us"] = micros(time.Since(t0))
	tr.end(s)
	return dst.Close()
}
