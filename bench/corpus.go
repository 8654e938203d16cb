package main

// Inputs: the golden corpus, the generated programs, the request sets
// built from them and the pinned answers under bench/expected/.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/core"
	"repro/internal/fortran"
	"repro/internal/pcfg"
	"repro/internal/programs"
)

// repoRoot finds the checkout: run.sh exports it; otherwise walk up from
// the working directory to the go.mod that declares module repro (which
// skips bench/go.mod when started with `go run .` inside bench/).
func repoRoot() (string, error) {
	if r := os.Getenv("LAYOUTBENCH_ROOT"); r != "" {
		return r, nil
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// program is one named source of the corpus.
type program struct {
	Name, Src string
}

// goldenCorpus loads the 7 programs of golden_test.go, in its order.
func goldenCorpus(root string) ([]program, error) {
	adi128, err := os.ReadFile(filepath.Join(root, "testdata", "adi128.f"))
	if err != nil {
		return nil, err
	}
	corpus := []program{
		{"adi", programs.Adi(48, fortran.Double)},
		{"erlebacher", programs.Erlebacher(16, fortran.Double)},
		{"tomcatv", programs.Tomcatv(32, fortran.Double)},
		{"shallow", programs.Shallow(32, fortran.Real)},
		{"adi128", string(adi128)},
	}
	srcBlock := regexp.MustCompile("(?s)const src = `\n(.*?)`")
	for _, ex := range []string{"quickstart", "conflict"} {
		b, err := os.ReadFile(filepath.Join(root, "examples", ex, "main.go"))
		if err != nil {
			return nil, err
		}
		m := srcBlock.FindSubmatch(b)
		if m == nil {
			return nil, fmt.Errorf("bench: examples/%s/main.go has no `const src` block", ex)
		}
		corpus = append(corpus, program{ex, string(m[1])})
	}
	return corpus, nil
}

// sweepsProgram is the 16-phase x 6-statement sweep chain that
// BENCH_incremental.json was recorded on (internal/core's benchProgram,
// which lives in a test file and so cannot be imported).
func sweepsProgram(phases, stmts, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program bench\n  parameter (n = %d)\n  real a(n,n), b(n,n), c(n,n), d(n,n), e(n,n)\n", n)
	arrs := []string{"a", "b", "c", "d", "e"}
	for k := 0; k < phases; k++ {
		b.WriteString("  do j = 1, n\n    do i = 1, n\n")
		for s := 0; s < stmts; s++ {
			dst, s1, s2 := arrs[(k+s)%5], arrs[(k+s+1)%5], arrs[(k+s+2)%5]
			idx := "i,j"
			if (k+s)%2 == 1 {
				idx = "j,i"
			}
			fmt.Fprintf(&b, "      %s(i,j) = %s(%s) + %s(i,j) * %d.0\n", dst, s1, idx, s2, k*stmts+s+1)
		}
		b.WriteString("    end do\n  end do\n")
	}
	b.WriteString("end\n")
	return b.String()
}

const (
	editChains   = 10
	editsInChain = 24
)

// editChainSources builds the pinned pool of edit chains: chain c is 24
// successive one-phase edits of the sweeps program, edit i of the pool
// drawn with MutateProgram seed 9000+i (the recorder's seeds), each
// chain restarting from the base program.
func editChainSources(base string) ([][]string, error) {
	chains := make([][]string, editChains)
	for c := range chains {
		src := base
		for i := 0; i < editsInChain; i++ {
			next, _, err := pcfg.MutateProgram(src, int64(9000+c*editsInChain+i), pcfg.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: chain %d edit %d: %w", c, i, err)
			}
			src = next
			chains[c] = append(chains[c], src)
		}
	}
	return chains, nil
}

// wireRequest is one analysis request plus the key of its pinned answer.
type wireRequest struct {
	Key string
	Req core.Request
}

func newRequest(key, src string, procs int) wireRequest {
	return wireRequest{Key: key, Req: core.Request{V: core.WireV1, Source: src, Procs: procs, Workers: 1}}
}

// goldenRequests are the cold CLI requests on the corpus (Procs = 8).
func goldenRequests(corpus []program) []wireRequest {
	reqs := make([]wireRequest, len(corpus))
	for i, p := range corpus {
		reqs[i] = newRequest(requestKey(p.Name, 8, "ipsc860"), p.Src, 8)
	}
	return reqs
}

func requestKey(name string, procs int, mach string) string {
	return fmt.Sprintf("%s/p%d/%s", name, procs, mach)
}

// daemonRequests are the 70 distinct layoutd requests: corpus x Procs
// {2,4,8,16,32} x {ipsc860, paragon}.
func daemonRequests(corpus []program) []wireRequest {
	var reqs []wireRequest
	for _, p := range corpus {
		for _, procs := range []int{2, 4, 8, 16, 32} {
			for _, mach := range []string{"ipsc860", "paragon"} {
				r := newRequest(requestKey(p.Name, procs, mach), p.Src, procs)
				r.Req.Machine = mach
				reqs = append(reqs, r)
			}
		}
	}
	return reqs
}

// sweepRequests are the 6 sweep-fill points: adi, erlebacher, tomcatv x
// Procs {4,16} with the extended distribution spaces on.
func sweepRequests(corpus []program) []wireRequest {
	var reqs []wireRequest
	for _, p := range corpus[:3] {
		for _, procs := range []int{4, 16} {
			r := newRequest(fmt.Sprintf("%s/p%d", p.Name, procs), p.Src, procs)
			r.Req.Cyclic, r.Req.MultiDim = true, true
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// scaleCases are the generated programs of scale-path and scale-ring,
// the two sizes BENCH_scale.json also recorded.
var scaleCases = map[string]struct {
	family pcfg.ScaleFamily
	phases int
}{
	"scale-path": {pcfg.StencilDeep, 500},
	"scale-ring": {pcfg.ConflictRing, 200},
}

// scaleRequest is the one request of a scale workload.
func scaleRequest(family pcfg.ScaleFamily, phases int) (wireRequest, error) {
	src, err := pcfg.ScaleProgram(family, phases)
	if err != nil {
		return wireRequest{}, err
	}
	return newRequest(fmt.Sprintf("%s-%d", family, phases), src, 8), nil
}

// editRequests turns the chain pool into requests keyed chain/edit.
func editRequests(chains [][]string) [][]wireRequest {
	out := make([][]wireRequest, len(chains))
	for c, chain := range chains {
		for i, src := range chain {
			out[c] = append(out[c], newRequest(fmt.Sprintf("%d/%d", c, i), src, 8))
		}
	}
	return out
}

// perm is the seeded visiting order of n pinned inputs; stream tells
// apart the draws one run makes (one per pass over the inputs).
func perm(seed int64, stream, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream))).Perm(n)
}

// pinned is one reference answer.  Cost is total_cost_us printed %.6f;
// HPF is the SHA-256 of the emitted program, which is all of the choice
// a wire client can see.  Tie marks an input whose optimum is not unique
// (the selection routes agree on the cost but pick different layouts):
// only its cost is pinned.
type pinned struct {
	Cost   string `json:"total_cost_us"`
	Choice []int  `json:"choice,omitempty"`
	HPF    string `json:"hpf_sha256,omitempty"`
	Tie    bool   `json:"tie,omitempty"`
}

func costString(c float64) string { return fmt.Sprintf("%.6f", c) }

func hpfHash(hpf string) string {
	h := sha256.Sum256([]byte(hpf))
	return hex.EncodeToString(h[:])
}

// expectedSets names the files under bench/expected/.
var expectedSets = []string{"requests", "scale", "sweep", "edits"}

func expectedPath(root, set string) string {
	return filepath.Join(root, "bench", "expected", set+".json")
}

func loadExpected(root, set string) (map[string]pinned, error) {
	b, err := os.ReadFile(expectedPath(root, set))
	if err != nil {
		return nil, fmt.Errorf("bench: pinned answers missing (run `bench pin`): %w", err)
	}
	m := map[string]pinned{}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", expectedPath(root, set), err)
	}
	return m, nil
}

// goldenRender re-renders the observable golden_test.go certifies from a
// wire response: cost, dynamic flag, remaps and the emitted program.
func goldenRender(resp *core.Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total_cost_us: %.6f\n", resp.TotalCostUS)
	fmt.Fprintf(&b, "dynamic: %v\n", resp.Dynamic)
	for _, rd := range resp.Remaps {
		fmt.Fprintf(&b, "remap %d->%d: %s (%.6f us)\n", rd.FromPhase, rd.ToPhase, strings.Join(rd.Arrays, ","), rd.CostUS)
	}
	b.WriteString(resp.HPF)
	return b.String()
}

// loadGoldens reads testdata/golden/*.golden keyed by the corpus
// request key (name/p8/ipsc860).
func loadGoldens(root string, corpus []program) (map[string]string, error) {
	out := map[string]string{}
	for _, p := range corpus {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", p.Name+".golden"))
		if err != nil {
			return nil, err
		}
		out[requestKey(p.Name, 8, "ipsc860")] = string(b)
	}
	return out, nil
}
