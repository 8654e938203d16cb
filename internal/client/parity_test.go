package client

// End-to-end resilience proofs against a real layoutd server:
//
// TestGoldenParityThroughChaos — every golden-corpus program, sent
// through the retrying client across a chaos proxy that injects at
// least one network fault per program, still yields byte-identical
// HPF text, cost, dynamism and remaps to a direct in-process
// core.Analyze.  The network can tear, stall, truncate or duplicate;
// the answer cannot drift.
//
// TestAcceptanceChaosSoak — ≥ 200 requests through the client against
// a chaos-proxied server holding a quarantined key, and every single
// call ends in the outcome its request predicts: a typed quarantined
// rejection for the poisoned key, a certified byte-identical result
// for every other — never a hang, never an uncertified answer, never
// a give-up — while the server's admission accounting balances to the
// request count with no leaked slot.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fortran"
	"repro/internal/netchaos"
	"repro/internal/programs"
	"repro/internal/service"
	"repro/internal/stage"
)

// exampleSource extracts the `const src = ...` literal from an
// example's main.go, mirroring the root golden corpus.
func exampleSource(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", dir, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)const src = `\n(.*?)`").FindSubmatch(b)
	if m == nil {
		t.Fatalf("examples/%s/main.go has no `const src` block", dir)
	}
	return string(m[1])
}

// goldenCorpus is the same 7-program corpus the root golden test pins.
func goldenCorpus(t *testing.T) []struct{ name, src string } {
	t.Helper()
	adi128, err := os.ReadFile(filepath.Join("..", "..", "testdata", "adi128.f"))
	if err != nil {
		t.Fatal(err)
	}
	return []struct{ name, src string }{
		{"adi", programs.Adi(48, fortran.Double)},
		{"erlebacher", programs.Erlebacher(16, fortran.Double)},
		{"tomcatv", programs.Tomcatv(32, fortran.Double)},
		{"shallow", programs.Shallow(32, fortran.Real)},
		{"adi128", string(adi128)},
		{"quickstart", exampleSource(t, "quickstart")},
		{"conflict", exampleSource(t, "conflict")},
	}
}

func newLayoutd(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	srv, err := service.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs
}

// noKeepAlive forces one exchange per connection so a chaos proxy's
// per-connection schedule maps 1:1 onto exchanges.
func noKeepAlive() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

func TestGoldenParityThroughChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus parity skipped in -short mode")
	}
	hs := newLayoutd(t, service.Config{StoreDir: t.TempDir()})
	target := hs.Listener.Addr().String()

	for i, tc := range goldenCorpus(t) {
		// Each program gets a fresh proxy whose first connection is
		// faulted (the fault rotates through the whole vocabulary across
		// the corpus), so every program provably survives at least one
		// injected network failure.
		mode := netchaos.Faulty[i%len(netchaos.Faulty)]
		t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
			proxy, err := netchaos.New(target, []netchaos.Mode{mode, netchaos.Pass})
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			pol := defaultPolicy
			pol.baseBackoff, pol.attemptTimeout = time.Millisecond, 2*time.Minute
			c, err := newClient(Config{
				BaseURL:    proxy.URL(),
				HTTPClient: noKeepAlive(),
				Seed:       int64(i) + 1,
			}, pol)
			if err != nil {
				t.Fatal(err)
			}

			req := &core.Request{V: core.WireV1, Source: tc.src, Procs: 16}
			resp, err := c.Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("through %s chaos: %v (client stats %+v)", mode, err, c.Stats())
			}
			if proxy.Faults() < 1 {
				t.Fatalf("proxy injected no fault — the parity proof is vacuous")
			}

			opt, err := req.BuildOptions()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := core.Analyze(context.Background(), core.Input{Source: tc.src}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if resp.HPF != direct.EmitHPF() {
				t.Errorf("HPF text drifted through the wire:\n--- client ---\n%s\n--- direct ---\n%s",
					resp.HPF, direct.EmitHPF())
			}
			if resp.TotalCostUS != direct.TotalCost || resp.Dynamic != direct.Dynamic {
				t.Errorf("cost/dynamic = %v/%v, direct %v/%v",
					resp.TotalCostUS, resp.Dynamic, direct.TotalCost, direct.Dynamic)
			}
			if len(resp.Remaps) != len(direct.Remaps) {
				t.Fatalf("remap count %d, direct %d", len(resp.Remaps), len(direct.Remaps))
			}
			for j, rm := range resp.Remaps {
				dm := direct.Remaps[j]
				if rm.FromPhase != dm.Edge.From || rm.ToPhase != dm.Edge.To ||
					strings.Join(rm.Arrays, ",") != strings.Join(dm.Arrays, ",") {
					t.Errorf("remap %d = %+v, direct %+v", j, rm, dm)
				}
			}
		})
	}
}

// soakSources is a small pool of distinct restricted-dialect programs
// for the acceptance soak.
var soakSources = []string{
	`
program soaka
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(j,i) * 2.0
    end do
  end do
end
`,
	`
program soakb
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) * 0.5
    end do
  end do
  do j = 2, n
    do i = 1, n
      b(i,j) = a(i,j) + b(i,j-1)
    end do
  end do
end
`,
	`
program soakc
  parameter (n = 12)
  real a(n,n), b(n,n), c(n,n)
  do j = 1, n
    do i = 1, n
      c(i,j) = a(j,i) + b(i,j)
    end do
  end do
  do j = 1, n
    do i = 2, n
      a(i,j) = c(i,j) + a(i-1,j)
    end do
  end do
end
`,
}

// TestAcceptanceChaosSoak is the crash-only contract in one test: a
// key crashes the analyzer twice through one client call and is
// quarantined, then 200 client calls (8 workers × 25) run against the
// server through chaos proxies faulting 4 of every 9 connections, with
// a service-flight panic armed to crash one flight mid-soak.  Each
// worker has its own proxy, its schedule rotated by the worker index,
// and calls sequentially, so every call meets a fixed run of
// connections — never two faulted in a row, hence at least 4 of its 8
// attempts reach the server — however the workers interleave.  Every
// call to the poisoned key must end typed-quarantined and every other
// call certified-identical; afterwards the server's books must balance
// exactly and no slot may be leaked.
func TestAcceptanceChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance soak skipped in -short mode")
	}
	const (
		workers = 8
		perEach = 25
	)

	// The first analysis fails at parse and the second at dep: two
	// crashes, which the server's policy quarantines (for 5 minutes).
	// The 12th flight — the soak's 10th — panics, so a flight crashes
	// under concurrent load with dedup waiters and retrying clients
	// attached.
	plan := fault.NewPlan(11).
		Arm(stage.Parse, fault.Rule{Action: fault.Fail, After: 1}).
		Arm(stage.Dep, fault.Rule{Action: fault.Fail, After: 1}).
		Arm(stage.ServiceFlight, fault.Rule{Action: fault.Panic, After: 12})
	srv, err := service.NewServer(service.Config{
		MaxInFlight: 4,
		MaxQueue:    256,
		StoreDir:    t.TempDir(),
		Fault:       plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer func() {
		hs.Close()
		srv.Close()
	}()

	schedule := []netchaos.Mode{
		netchaos.Pass, netchaos.TornBody, netchaos.Pass,
		netchaos.TruncateResponse, netchaos.Pass, netchaos.DuplicateResponse,
		netchaos.Pass, netchaos.Refuse, netchaos.Pass,
	}
	proxies := make([]*netchaos.Proxy, workers)
	for w := range proxies {
		k := w % len(schedule)
		rotated := append(append([]netchaos.Mode(nil), schedule[k:]...), schedule[:k]...)
		if proxies[w], err = netchaos.New(hs.Listener.Addr().String(), rotated); err != nil {
			t.Fatal(err)
		}
		defer proxies[w].Close()
	}

	// The request pool: 3 sources × 2 procs = 6 distinct keys, heavily
	// shared across workers so dedup, store reuse and the quarantine all
	// see traffic.  References come from direct no-fault analyses.
	type item struct {
		req *core.Request
		hpf string
	}
	var pool []item
	for _, src := range soakSources {
		for _, procs := range []int{8, 16} {
			req := &core.Request{V: core.WireV1, Source: src, Procs: procs}
			opt, err := req.BuildOptions()
			if err != nil {
				t.Fatal(err)
			}
			direct, err := core.Analyze(context.Background(), core.Input{Source: src}, opt)
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, item{req: req, hpf: direct.EmitHPF()})
		}
	}

	pol := defaultPolicy
	pol.baseBackoff, pol.maxBackoff = time.Millisecond, 50*time.Millisecond
	pol.maxRetryAfter, pol.attemptTimeout, pol.maxAttempts = 100*time.Millisecond, time.Minute, 8

	// Poison pool[0]'s key before the soak, sequentially and without the
	// proxy, so both crashes land on it: one call walks parse fault
	// (retry) → dep fault (retry) → the typed 422 its retry loop stops at.
	poisoner, err := newClient(Config{BaseURL: hs.URL, Seed: 99}, pol)
	if err != nil {
		t.Fatal(err)
	}
	var ae *APIError
	if _, err := poisoner.Analyze(context.Background(), pool[0].req); !errors.As(err, &ae) || ae.Kind != core.KindQuarantined {
		t.Fatalf("poisoning call = %v, want a typed quarantined rejection after two crashes", err)
	}
	if st := poisoner.Stats(); st.Attempts != 3 {
		t.Errorf("poisoning call made %d attempts, want 3 (parse fault, dep fault, quarantined)", st.Attempts)
	}

	var (
		mu          sync.Mutex
		ok          int
		quarantined int
	)
	errs := make(chan error, workers*perEach)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := newClient(Config{
				BaseURL:    proxies[w].URL(),
				HTTPClient: noKeepAlive(),
				Seed:       int64(w) + 1,
			}, pol)
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < perEach; r++ {
				i := (w*perEach + r) % len(pool)
				resp, err := c.Analyze(context.Background(), pool[i].req)
				var ae *APIError
				switch {
				case i == 0 && errors.As(err, &ae) && ae.Kind == core.KindQuarantined:
					mu.Lock()
					quarantined++
					mu.Unlock()
				case i == 0:
					errs <- fmt.Errorf("worker %d call %d: poisoned key answered %v, want a typed quarantined rejection", w, r, err)
				case err != nil:
					errs <- fmt.Errorf("worker %d call %d: %v, want a certified answer", w, r, err)
				case resp.HPF != pool[i].hpf:
					errs <- fmt.Errorf("worker %d call %d: uncertified drift: answer differs from direct reference", w, r)
				default:
					mu.Lock()
					ok++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	total, poisoned := workers*perEach, 0
	for k := 0; k < total; k++ {
		if k%len(pool) == 0 {
			poisoned++
		}
	}
	if ok != total-poisoned || quarantined != poisoned {
		t.Errorf("outcomes: %d certified + %d quarantined, want %d + %d", ok, quarantined, total-poisoned, poisoned)
	}
	for _, site := range []string{stage.Parse, stage.Dep, stage.ServiceFlight} {
		if n := plan.Fired(site); n != 1 {
			t.Errorf("%s fault fired %d times, want exactly 1", site, n)
		}
	}
	// Connection i of a proxy meets entry i of its schedule, so a proxy
	// that accepted a whole schedule's worth has fired every mode.
	for w, p := range proxies {
		if p.Connections() < len(schedule) {
			t.Errorf("worker %d's proxy saw %d connections, fewer than its %d-mode schedule", w, p.Connections(), len(schedule))
		}
	}

	// The server's books must balance exactly: every arrival either ran
	// an analysis, joined one, or was rejected typed — a mismatch means
	// a leaked admission slot or a lost request.
	m := srv.Metrics()
	if got := m.AnalysesTotal + m.DedupInflightHits + m.RequestsRejected +
		m.DrainRejections + m.QuarantineRejections; got != m.RequestsTotal {
		t.Errorf("accounting leak: analyses(%d) + dedup(%d) + rejected(%d) + drain(%d) + quarantine(%d) = %d, want requests_total %d",
			m.AnalysesTotal, m.DedupInflightHits, m.RequestsRejected,
			m.DrainRejections, m.QuarantineRejections, got, m.RequestsTotal)
	}
	if m.InFlight != 0 || m.QueueDepth != 0 {
		t.Errorf("end state: %d in flight, %d queued — slots leaked", m.InFlight, m.QueueDepth)
	}
	if m.QuarantineRejections < 2 || m.CrashesTotal != 3 {
		t.Errorf("quarantine books: %d rejections (want ≥ 2), %d crashes (want 3)", m.QuarantineRejections, m.CrashesTotal)
	}
	if m.RequestsTotal < int64(total)+3 {
		t.Errorf("server saw %d requests for %d soak calls and 3 poisoning attempts — retries should only add", m.RequestsTotal, total)
	}
}
