package main

// The seven workloads.  Each goes through the CLI's request path —
// json.Marshal(core.Request) → core.DecodeRequest → Request.BuildOptions
// → analysis → core.NewResponse → json.Marshal — and hands back what it
// answered so the harness can check it outside the timed section.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pcfg"
	"repro/internal/service"
)

// env is what every workload shares: the checkout, the corpus, the
// goldens and a scratch directory inside the checkout.
type env struct {
	root      string
	corpus    []program
	goldens   map[string]string
	tmp       string
	warmStore string // restart-store's populated directory, once written
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	corpus, err := goldenCorpus(root)
	if err != nil {
		return nil, err
	}
	goldens, err := loadGoldens(root, corpus)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, corpus: corpus, goldens: goldens, tmp: tmp}, nil
}

func (e *env) close() { os.RemoveAll(e.tmp) }

// answer is what one analysis of an op returned.  choice and candidates
// are only known when the harness holds the core.Result (not over the
// wire).
type answer struct {
	key        string
	resp       *core.Response
	choice     []int
	candidates int
}

// workload is one benchmark scenario.  setup is everything before the
// first timed op and ends with one untimed warm-up op; beginRound is the
// untimed re-setup before a round of spec.RoundOps ops (and draws the
// round's seeded visiting order); op runs op number idx on behalf of
// one closed-loop client.
type workload interface {
	setup(seed int64) error
	beginRound(round int) error
	op(client, idx int, tr *tracer, parent int) ([]answer, error)
	common() *base
	// references returns the requests one layer replay of the traced run
	// walks and how many ops of the workload they stand for.
	references() ([]wireRequest, int)
	close()
}

// base is the state every workload has: its size, seed and pins.
type base struct {
	env  *env
	spec *workloadSpec
	exp  map[string]pinned
	seed int64
}

func (b *base) common() *base { return b }

// init records the seed and loads the workload's pinned answers.
func (b *base) init(seed int64, set string) (err error) {
	b.seed = seed
	b.exp, err = loadExpected(b.env.root, set)
	return err
}

func newWorkload(e *env, name string) (workload, error) {
	b := base{env: e, spec: findWorkload(name)}
	switch name {
	case "cold-golden":
		return &passWorkload{base: b, reqs: goldenRequests(e.corpus)}, nil
	case "restart-store":
		w := &passWorkload{base: b, reqs: goldenRequests(e.corpus)}
		return w, w.populate()
	case "scale-path", "scale-ring":
		sc := scaleCases[name]
		return &scaleWorkload{base: b, family: sc.family, phases: sc.phases}, nil
	case "sweep-fill":
		return &sweepWorkload{base: b}, nil
	case "edit-chain":
		return &editWorkload{base: b}, nil
	case "layoutd-warm":
		return &daemonWorkload{base: b}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// analyzeFn is the analysis step of the request path.
type analyzeFn func(ctx context.Context, src string, opt core.Options) (*core.Result, error)

func coldAnalyze(ctx context.Context, src string, opt core.Options) (*core.Result, error) {
	return core.Analyze(ctx, core.Input{Source: src}, opt)
}

// servePath runs one request the way cmd/autolayout serves it.  inject
// sets the resources the invoking process owns (cache, store); span
// names the analysis step in the trace.
func servePath(tr *tracer, parent int, r *wireRequest, span string, fn analyzeFn, inject func(*core.Options)) (answer, error) {
	body, err := json.Marshal(&r.Req)
	if err != nil {
		return answer{}, err
	}
	s := tr.begin("core.wire_decode", parent)
	req, err := core.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	opt, err := req.BuildOptions()
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	if inject != nil {
		inject(&opt)
	}
	s = tr.begin(span, parent)
	res, err := fn(context.Background(), req.Source, opt)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	s = tr.begin("core.wire_encode", parent)
	resp := core.NewResponse(res)
	_, err = json.Marshal(resp)
	tr.end(s)
	if err != nil {
		return answer{}, err
	}
	n := 0
	for _, pr := range res.Phases {
		n += len(pr.Candidates)
	}
	return answer{key: r.Key, resp: resp, choice: res.Selection.Choice, candidates: n}, nil
}

// warmUp runs op 0 once, untimed, and checks it: lazy initialisation and
// a wrong pinned file both surface in set-up, not in the first sample.
func warmUp(w workload) error {
	if err := w.beginRound(0); err != nil {
		return err
	}
	ans, err := w.op(0, 0, nil, -1)
	if err != nil {
		return err
	}
	return checkOp(w, ans)
}

// roundOrder concatenates one seeded permutation of n inputs per pass.
func roundOrder(seed int64, round, passes, n int) []int {
	order := make([]int, 0, passes*n)
	for p := 0; p < passes; p++ {
		order = append(order, perm(seed, round*passes+p, n)...)
	}
	return order
}

// passWorkload is cold-golden (dir == "") and restart-store: one op is a
// cold core.Analyze of each of the 7 golden programs, in a seeded order;
// restart-store points every run at a warm store directory it opens
// afresh, as a second `autolayout -store DIR` does.
type passWorkload struct {
	base
	reqs  []wireRequest
	dir   string
	order []int
}

// populate writes restart-store's warm directory: the first
// `-store DIR` run of each program writes every artifact through.  It is
// deliberately outside setup_s: 431 fsynced records took between 0.4 and
// 3 s on the sizing box depending on what the shared disk had just been
// asked to do, which would make a gated metric of the disk's mood.  The
// write side is reported by the traced run as store.put_us.
//
// The directory is written once per process and shared by the repeated
// set-ups: warm runs only read it.
func (w *passWorkload) populate() (err error) {
	if w.env.warmStore != "" {
		w.dir = w.env.warmStore
		return nil
	}
	if w.dir, err = os.MkdirTemp(w.env.tmp, "store-"); err != nil {
		return err
	}
	for i := range w.reqs {
		if _, err := servePath(nil, -1, &w.reqs[i], "", coldAnalyze, w.inject); err != nil {
			return err
		}
	}
	w.env.warmStore = w.dir
	return nil
}

func (w *passWorkload) inject(opt *core.Options) { opt.StoreDir = w.dir }

func (w *passWorkload) setup(seed int64) error {
	if err := w.init(seed, "requests"); err != nil {
		return err
	}
	return warmUp(w)
}

func (w *passWorkload) beginRound(round int) error {
	w.order = roundOrder(w.seed, round, w.spec.RoundOps, len(w.reqs))
	return nil
}

func (w *passWorkload) op(_, idx int, tr *tracer, parent int) ([]answer, error) {
	n := len(w.reqs)
	at := (idx % w.spec.RoundOps) * n
	out := make([]answer, 0, n)
	for _, i := range w.order[at : at+n] {
		a, err := servePath(tr, parent, &w.reqs[i], "core.analyze", coldAnalyze, w.inject)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (w *passWorkload) close() {}

// scaleWorkload is scale-path and scale-ring: one op is one cold
// analysis of a generated many-phase program.  The generator takes no
// seed, so every seed runs the same program.
type scaleWorkload struct {
	base
	family pcfg.ScaleFamily
	phases int
	req    wireRequest
}

func (w *scaleWorkload) setup(seed int64) error {
	var err error
	if w.req, err = scaleRequest(w.family, w.phases); err != nil {
		return err
	}
	if err := w.init(seed, "scale"); err != nil {
		return err
	}
	return warmUp(w)
}

func (w *scaleWorkload) beginRound(int) error { return nil }

func (w *scaleWorkload) op(_, _ int, tr *tracer, parent int) ([]answer, error) {
	a, err := servePath(tr, parent, &w.req, "core.analyze", coldAnalyze, nil)
	if err != nil {
		return nil, err
	}
	return []answer{a}, nil
}

func (w *scaleWorkload) close() {}

// sweepWorkload is sweep-fill: sessions for adi, erlebacher and tomcatv
// are built in set-up; one op prices 6 (program, Procs) points with the
// extended distribution spaces against a SharedCache made for that op,
// so the front half is reused and every cache lookup misses and fills.
type sweepWorkload struct {
	base
	reqs     []wireRequest
	sessions []*core.Session // per request
	order    []int
}

func (w *sweepWorkload) setup(seed int64) error {
	w.reqs = sweepRequests(w.env.corpus)
	if err := w.init(seed, "sweep"); err != nil {
		return err
	}
	bySrc := map[string]*core.Session{}
	w.sessions = make([]*core.Session, len(w.reqs))
	for i := range w.reqs {
		req := &w.reqs[i].Req
		sess := bySrc[req.Source]
		if sess == nil {
			opt, err := req.BuildOptions()
			if err != nil {
				return err
			}
			if sess, err = core.NewSession(context.Background(), core.Input{Source: req.Source}, opt); err != nil {
				return err
			}
			bySrc[req.Source] = sess
		}
		w.sessions[i] = sess
	}
	return warmUp(w)
}

func (w *sweepWorkload) beginRound(round int) error {
	w.order = roundOrder(w.seed, round, w.spec.RoundOps, len(w.reqs))
	return nil
}

func (w *sweepWorkload) op(_, idx int, tr *tracer, parent int) ([]answer, error) {
	n := len(w.reqs)
	at := (idx % w.spec.RoundOps) * n
	cache := core.NewSharedCache(0)
	out := make([]answer, 0, n)
	for _, i := range w.order[at : at+n] {
		sess := w.sessions[i]
		a, err := servePath(tr, parent, &w.reqs[i], "core.session_analyze",
			func(ctx context.Context, _ string, opt core.Options) (*core.Result, error) {
				return sess.Analyze(ctx, opt)
			},
			func(opt *core.Options) { opt.Cache = cache })
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (w *sweepWorkload) close() {}

// editWorkload is edit-chain: one round is one chain of 24 one-phase
// edits replayed through Session.Update on a session built (clock
// stopped) from the unedited program; the seed draws the chain order.
// Chains restart because Update latency drifts upward along a chain
// (see core.update_drift_ratio): a long chain would time the drift.
type editWorkload struct {
	base
	start  wireRequest // the unedited program
	chains [][]wireRequest
	chain  []wireRequest
	sess   *core.Session
}

func (w *editWorkload) setup(seed int64) error {
	src := sweepsProgram(16, 6, 64)
	w.start = newRequest("start", src, 8)
	srcs, err := editChainSources(src)
	if err != nil {
		return err
	}
	w.chains = editRequests(srcs)
	if err := w.init(seed, "edits"); err != nil {
		return err
	}
	return warmUp(w)
}

func (w *editWorkload) beginRound(round int) error {
	order := perm(w.seed, round/editChains, editChains)
	w.chain = w.chains[order[round%editChains]]
	opt, err := w.start.Req.BuildOptions()
	if err != nil {
		return err
	}
	ctx := context.Background()
	if w.sess, err = core.NewSession(ctx, core.Input{Source: w.start.Req.Source}, opt); err != nil {
		return err
	}
	// One no-op Update so the first timed edit is a steady-state edit,
	// not the population of the session memo and its carried cache.
	_, err = w.sess.Update(ctx, w.start.Req.Source, opt)
	return err
}

func (w *editWorkload) op(_, idx int, tr *tracer, parent int) ([]answer, error) {
	a, err := servePath(tr, parent, &w.chain[idx%editsInChain], "core.update",
		func(ctx context.Context, src string, opt core.Options) (*core.Result, error) {
			return w.sess.Update(ctx, src, opt)
		}, nil)
	if err != nil {
		return nil, err
	}
	return []answer{a}, nil
}

func (w *editWorkload) close() {}

// daemonWorkload is layoutd-warm: an in-process service.Server behind a
// loopback listener, 2 closed-loop clients, 70 distinct requests visited
// in a fresh seeded order every pass, all warmed once in set-up.
type daemonWorkload struct {
	base
	reqs    []wireRequest
	srv     *service.Server
	ts      *httptest.Server
	clients []*client.Client
	order   []int
	warm    service.Metrics // the server's counters when set-up ended
}

func (w *daemonWorkload) setup(seed int64) error {
	w.reqs = daemonRequests(w.env.corpus)
	if err := w.init(seed, "requests"); err != nil {
		return err
	}
	var err error
	if w.srv, err = service.NewServer(service.Config{}); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv)
	for c := 0; c < w.spec.Clients; c++ {
		cl, err := client.New(client.Config{BaseURL: w.ts.URL, Seed: seed + int64(c) + 1})
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
	}
	// Warm-up pass: every request once, answers checked.
	for i := range w.reqs {
		resp, err := w.clients[0].Analyze(context.Background(), &w.reqs[i].Req)
		if err != nil {
			return err
		}
		if err := checkOp(w, []answer{{key: w.reqs[i].Key, resp: resp}}); err != nil {
			return err
		}
	}
	w.warm = w.srv.Metrics()
	return nil
}

func (w *daemonWorkload) beginRound(round int) error {
	n := len(w.reqs)
	w.order = roundOrder(w.seed, round, w.spec.RoundOps/n, n)
	return nil
}

func (w *daemonWorkload) op(cl, idx int, tr *tracer, parent int) ([]answer, error) {
	r := &w.reqs[w.order[idx%len(w.order)]]
	s := tr.begin("client.rtt", parent)
	resp, err := w.clients[cl].Analyze(context.Background(), &r.Req)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return []answer{{key: r.Key, resp: resp}}, nil
}

func (w *daemonWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
