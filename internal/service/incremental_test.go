package service

// Incremental service-path tests: a stream of edited posts for one
// program family is served through Session.Update with answers
// byte-identical to cold core.Analyze, budgeted flights fall back to
// the cold path, and the session table stays bounded under many
// families.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
	"repro/internal/stage"
)

// editedSrc perturbs one constant in testSrc's second phase.
func editedSrc(t *testing.T, old, new string) string {
	t.Helper()
	out := strings.Replace(testSrc, old, new, 1)
	if out == testSrc {
		t.Fatalf("edit %q -> %q did not apply", old, new)
	}
	return out
}

// TestIncrementalFlightMatchesCold posts an edit stream and checks
// every response against a cold core.Analyze of the same source: the
// incremental path is a latency optimization, never a behavior change.
func TestIncrementalFlightMatchesCold(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2})
	sources := []string{
		testSrc,
		editedSrc(t, "b(i,j) + 1.0", "b(i,j) + 3.0"),
		editedSrc(t, "a(j,i) * 2.0", "a(j,i) * 8.0"),
		testSrc, // back to the original: everything reuses
	}
	for i, src := range sources {
		rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: src, Procs: 8, Verify: true}))
		if rec.Code != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp core.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		cold, err := core.Analyze(context.Background(), core.Input{Source: src},
			core.Options{Procs: 8, Verify: core.VerifyOn})
		if err != nil {
			t.Fatalf("post %d: cold Analyze: %v", i, err)
		}
		if resp.HPF != cold.EmitHPF() || resp.TotalCostUS != cold.TotalCost {
			t.Errorf("post %d: incremental answer diverged from cold Analyze", i)
		}
		if resp.Stats.Incremental.Edits != int64(i+1) {
			t.Errorf("post %d: stats.incremental.edits = %d, want %d",
				i, resp.Stats.Incremental.Edits, i+1)
		}
		if i > 0 && resp.Stats.Incremental.ReuseRatio <= 0 {
			t.Errorf("post %d: reuse ratio = %v, want > 0 on a one-phase edit",
				i, resp.Stats.Incremental.ReuseRatio)
		}
	}
	if got := srv.m.incrementalFlights.Load(); got != int64(len(sources)) {
		t.Errorf("incremental_flights = %d, want %d", got, len(sources))
	}
}

// TestIncrementalFallbacks: a budgeted flight runs the cold path.
func TestIncrementalFallbacks(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2})
	rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: testSrc, Procs: 8, TimeoutMS: 60000}))
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted post: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := srv.m.incrementalFlights.Load(); got != 0 {
		t.Errorf("budgeted flight took the incremental path (%d flights)", got)
	}
}

// TestSessionTableBounded: posting one program family more than the
// session cap keeps the table at its cap (LRU eviction), and every
// family still answers correctly.
func TestSessionTableBounded(t *testing.T) {
	srv := newTestServer(t, Config{MaxInFlight: 2})
	for i := 0; i <= maxSessions; i++ {
		name := fmt.Sprintf("fam%d", i)
		src := strings.Replace(testSrc, "program svc", "program "+name, 1)
		if rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: src, Procs: 8})); rec.Code != http.StatusOK {
			t.Fatalf("family %s: status %d", name, rec.Code)
		}
	}
	if got := srv.sessions.size(); got != maxSessions {
		t.Errorf("session table size = %d, want cap %d", got, maxSessions)
	}
	if got := srv.m.incrementalFlights.Load(); got != maxSessions+1 {
		t.Errorf("incremental_flights = %d, want %d", got, maxSessions+1)
	}
}

// programNameBaseline is the line-splitting scan programName replaced,
// kept as its oracle.
func programNameBaseline(src string) string {
	for _, line := range strings.Split(src, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && strings.EqualFold(f[0], "program") {
			return strings.ToLower(f[1])
		}
	}
	return ""
}

func TestProgramName(t *testing.T) {
	cases := []struct{ src, want string }{
		{testSrc, "svc"},
		{"      PROGRAM Adi\n      end\n", "adi"},
		{"! comment only\n      end\n", ""},
		{"", ""},
		{"! driver\n! second comment\nprogram lead\nend\n", "lead"},
		{"PROGRAM Foo\nend\n", "foo"},
		{"\tprogram\ttabbed\t! trailing\nend\n", "tabbed"},
		{"programx = 1\nprogram real\nend\n", "real"},
		{"programx = 1\nend\n", ""},
		{"program\nprogram late\nend\n", "late"},
		{"  real a(8)\n  a(1) = 0.0\nend\n", ""},
		{"program crlf\r\n  real a(8)\r\nend\r\n", "crlf"},
		{"\r\nPROGRAM\tMixed\r\n", "mixed"},
		{"\u00a0program\u0085nbsp\n", "nbsp"},
		{"program", ""},
	}
	for _, tc := range cases {
		if got := programName(tc.src); got != tc.want {
			t.Errorf("programName(%q) = %q, want %q", tc.src, got, tc.want)
		}
		if base := programNameBaseline(tc.src); base != tc.want {
			t.Errorf("programNameBaseline(%q) = %q, want %q", tc.src, base, tc.want)
		}
	}
	src := corpusSources(t)["adi128"]
	if n := testing.AllocsPerRun(100, func() { programName(src) }); n > 1 {
		t.Errorf("programName allocates %v times per call, want ≤ 1", n)
	}
}

// corpusSources returns the 7 golden programs and the two scale
// programs the benchmark runs.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	read := func(path ...string) string {
		b, err := os.ReadFile(filepath.Join(append([]string{"..", ".."}, path...)...))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	example := func(dir string) string {
		m := regexp.MustCompile("(?s)const src = `\n(.*?)`").FindStringSubmatch(read("examples", dir, "main.go"))
		if m == nil {
			t.Fatalf("examples/%s/main.go has no `const src` block", dir)
		}
		return m[1]
	}
	scale := func(f pcfg.ScaleFamily, phases int) string {
		src, err := pcfg.ScaleProgram(f, phases)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	return map[string]string{
		"adi":           programs.Adi(48, fortran.Double),
		"erlebacher":    programs.Erlebacher(16, fortran.Double),
		"tomcatv":       programs.Tomcatv(32, fortran.Double),
		"shallow":       programs.Shallow(32, fortran.Real),
		"adi128":        read("testdata", "adi128.f"),
		"quickstart":    example("quickstart"),
		"conflict":      example("conflict"),
		"stencil-deep":  scale(pcfg.StencilDeep, 500),
		"conflict-ring": scale(pcfg.ConflictRing, 200),
	}
}

// TestFamilyKeyPinned: the session-table identity of every corpus
// program is the one the line-splitting scan gave, byte for byte.
func TestFamilyKeyPinned(t *testing.T) {
	want := map[string]string{
		"adi":           "0049d1f69c051f023f3766c6a4eb999c8377af0766e613923af7570641344b9f",
		"erlebacher":    "326bbdd98449cfe75f0d8746e14b1d2693f7fe022ef019be9a190e666730c6fb",
		"tomcatv":       "8e2f3c73b675bdb62767fd68ba6fc496fbfe9048ccbe1d25421584442438f9df",
		"shallow":       "f735264cb2b0bc4f5906ab0219d187351aa1157a9e912891a084c938fc3dec39",
		"adi128":        "0049d1f69c051f023f3766c6a4eb999c8377af0766e613923af7570641344b9f",
		"quickstart":    "1b2a3dd6509883a56535b9b69cc2d83eb09ef8f2dd5c9abc933211d29e0ad807",
		"conflict":      "a9bbe38432d14d1ceb8d122c6b6a9903f87ac025d966967dd18f1eb490afa459",
		"stencil-deep":  "245751f5b0873fa5599fa3d485045b801c2205a6f05eb0149fd217c442acc896",
		"conflict-ring": "eb5c003b386302ba4928187b108d6b35514141bed26a4747cd664e3a7cba2ae2",
	}
	for name, src := range corpusSources(t) {
		if got := programName(src); got != programNameBaseline(src) {
			t.Errorf("%s: programName = %q, baseline %q", name, got, programNameBaseline(src))
		}
		if got := strings.TrimPrefix(string(familyKey(src, core.Options{})), "session-family:"); got != want[name] {
			t.Errorf("%s: familyKey = %q, want %q", name, got, want[name])
		}
	}
}

// TestRepostFamilyCollision: adi and adi128 are both `program adi`, so
// they share one family session.  Alternating them through it, each
// posted twice in a row, must answer each source with its own cold
// result every time: the second post of a pair is a re-post and skips
// the front half, the first parses — the fast path never serves one
// program's front half to the other.
func TestRepostFamilyCollision(t *testing.T) {
	srcs := corpusSources(t)
	adi, adi128 := srcs["adi"], srcs["adi128"]
	if familyKey(adi, core.Options{}) != familyKey(adi128, core.Options{}) {
		t.Fatal("adi and adi128 no longer share a family; the test needs a colliding pair")
	}
	srv := newTestServer(t, Config{MaxInFlight: 2})
	colds := map[string]string{}
	for _, src := range []string{adi, adi128} {
		cold, err := core.Analyze(context.Background(), core.Input{Source: src}, core.Options{Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		colds[src] = cold.EmitHPF()
	}
	if colds[adi] == colds[adi128] {
		t.Fatal("adi and adi128 have the same answer; the test cannot tell them apart")
	}
	for i := 0; i < 20; i++ {
		src, name := adi, "adi"
		if i%4 >= 2 {
			src, name = adi128, "adi128"
		}
		rec := post(srv, requestBody(t, &core.Request{V: core.WireV1, Source: src, Procs: 8}))
		if rec.Code != http.StatusOK {
			t.Fatalf("post %d (%s): status %d: %s", i, name, rec.Code, rec.Body.String())
		}
		var resp core.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.HPF != colds[src] {
			t.Fatalf("post %d (%s): answer differs from its cold Analyze", i, name)
		}
		want := core.StageReuse{Replayed: 1}
		if i%2 == 1 {
			want = core.StageReuse{Reused: 1}
		}
		if parse := resp.Stats.Incremental.Stages[stage.Parse]; parse != want {
			t.Errorf("post %d (%s): parse = %+v, want %+v", i, name, parse, want)
		}
	}
	if got := srv.sessions.size(); got != 1 {
		t.Errorf("session table size = %d, want one shared family", got)
	}
}
