//go:build ignore

// Command reach is the module's reach ledger: it builds every
// user-facing entry point with coverage instrumentation, drives them
// through one fixed corpus, and checks the non-test functions that no
// run executed against reach.txt, where each such function is listed
// with the reason it may stay.
//
//	go run scripts/reach/reach.go
//
// Run it from the repository root.  The entry points are cmd/*, the
// examples and the benchmark harness under bench/, built with
// `go build -cover -coverpkg=repro/...` into a temporary directory.
// The corpus is autolayout over the golden programs, a program with
// HPF directives and one with subroutines under every flag set, -sweep, -store, -watch, the machine
// tables and a layoutd round trip; hpfgen; hpfexp -all and -csv; every
// example; and every benchmark workload for a fixed number of ops.
//
// A function has zero reach when none of its statements ran (marker
// methods with empty bodies have none and are not counted).  Every
// such function must have one line in reach.txt,
//
//	<import path> <function> <class> [note]
//
// where <function> is Name or Recv.Name and <class> says why it stays:
//
//	error    a return or wrap path, or a String/Error method
//	robust   a robustness mechanism; the note names the test that fails without it
//	degrade  a budget fallback no corpus run exhausts its budget to reach
//	oracle   a reference only tests call (it belongs in a _test.go file)
//	flag     reachable from a flag or wire field the corpus does not set
//
// The ledger fails, exit status 1, when a zero-reach function is not
// listed or a listed function ran (a stale line).  It prints the
// zero-reach statement share either way; its output carries no
// timings, so two runs on one tree print the same bytes.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/machine"
)

const module = "repro"

// classes are the reasons a zero-reach function may stay.
var classes = map[string]bool{"error": true, "robust": true, "degrade": true, "oracle": true, "flag": true}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "scripts", "reach", "reach.txt")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	c := &corpus{root: root, tmp: tmp, bin: filepath.Join(tmp, "bin"), cov: filepath.Join(tmp, "cov")}
	for _, d := range []string{c.bin, c.cov} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	if err := c.build(); err != nil {
		return err
	}
	if err := c.runAll(); err != nil {
		return err
	}
	prof := filepath.Join(tmp, "profile.txt")
	if out, err := exec.Command("go", "tool", "covdata", "textfmt", "-i", c.cov, "-o", prof).CombinedOutput(); err != nil {
		return fmt.Errorf("covdata: %v\n%s", err, out)
	}
	zero, stmts, unran, err := measure(root, prof)
	if err != nil {
		return err
	}
	listed, err := readLedger(filepath.Join(root, "scripts", "reach", "reach.txt"))
	if err != nil {
		return err
	}
	fmt.Printf("reach: %d of %d statements (%.1f%%) never ran; %d functions have zero reach\n",
		unran, stmts, 100*float64(unran)/float64(stmts), len(zero))
	bad := 0
	for _, f := range zero {
		if !listed[f] {
			fmt.Printf("unlisted: %s (no run reached it: add it to reach.txt with a class, reach it, or delete it)\n", f)
			bad++
		}
	}
	inZero := map[string]bool{}
	for _, f := range zero {
		inZero[f] = true
	}
	var stale []string
	for f := range listed {
		if !inZero[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(stale)
	for _, f := range stale {
		fmt.Printf("stale: %s (listed in reach.txt, but a run reached it or it is gone: remove the line)\n", f)
		bad++
	}
	if bad > 0 {
		return fmt.Errorf("%d ledger mismatches", bad)
	}
	fmt.Println("reach: every zero-reach function is listed in reach.txt")
	return nil
}

// readLedger parses reach.txt into its set of listed functions,
// checking that every line has a known class.
func readLedger(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for n, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !classes[f[2]] {
			return nil, fmt.Errorf("reach.txt:%d: want <import path> <function> <class> [note], class one of error robust degrade oracle flag: %q", n+1, line)
		}
		if f[2] == "robust" && (len(f) < 4 || !strings.HasPrefix(f[3], "Test")) {
			return nil, fmt.Errorf("reach.txt:%d: a robust line names the test that fails without it: %q", n+1, line)
		}
		key := f[0] + " " + f[1]
		if out[key] {
			return nil, fmt.Errorf("reach.txt:%d: %s listed twice", n+1, key)
		}
		out[key] = true
	}
	return out, nil
}

// block is one coverage block of a profile: a source range, its
// statement count and whether any run executed it.
type block struct {
	startLine, startCol, endLine, endCol, stmts int
	ran                                         bool
}

// measure reads a textfmt coverage profile and returns the sorted
// zero-reach functions ("<import path> <function>"), the module's
// statement count and how many of those statements never ran.  The
// benchmark harness's own package is not the module's code and is
// left out.
func measure(root, profile string) (zero []string, stmts, unran int, err error) {
	f, err := os.Open(profile)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	blocks := map[string]map[string]*block{} // file → range → block
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		// repro/internal/core/core.go:183.48,185.2 1 0
		colon := strings.LastIndex(line, ":")
		file, rest := line[:colon], line[colon+1:]
		if !strings.HasPrefix(file, module+"/") || strings.HasPrefix(file, module+"/bench/") {
			continue
		}
		var b block
		var count int
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.startLine, &b.startCol, &b.endLine, &b.endCol, &b.stmts, &count); err != nil {
			return nil, 0, 0, fmt.Errorf("profile line %q: %v", line, err)
		}
		r := strings.SplitN(rest, " ", 2)[0]
		if blocks[file] == nil {
			blocks[file] = map[string]*block{}
		}
		if prev := blocks[file][r]; prev != nil {
			prev.ran = prev.ran || count > 0
			continue
		}
		b.ran = count > 0
		blocks[file][r] = &b
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, err
	}
	fset := token.NewFileSet()
	for file, bs := range blocks {
		for _, b := range bs {
			stmts += b.stmts
			if !b.ran {
				unran += b.stmts
			}
		}
		src := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(file, module+"/")))
		af, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, 0, err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(strings.TrimPrefix(file, module+"/")))
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
			counted, ran := false, false
			for _, b := range bs {
				if b.stmts > 0 && after(b.startLine, b.startCol, from.Line, from.Column) && after(to.Line, to.Column, b.endLine, b.endCol) {
					counted = true
					ran = ran || b.ran
				}
			}
			if counted && !ran {
				zero = append(zero, pkg+" "+funcName(fd))
			}
		}
	}
	sort.Strings(zero)
	return zero, stmts, unran, nil
}

// after reports whether position (l1, c1) is at or after (l2, c2).
func after(l1, c1, l2, c2 int) bool {
	return l1 > l2 || l1 == l2 && c1 >= c2
}

// funcName is Name for a function and Recv.Name for a method.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
}

// corpus builds the instrumented binaries and runs the fixed corpus.
type corpus struct {
	root, tmp, bin, cov string
}

// examples are the example programs, each run once.
var examples = []string{"adi", "assistant", "conflict", "erlebacher", "quickstart", "stencil"}

func (c *corpus) build() error {
	cover := []string{"build", "-cover", "-coverpkg=" + module + "/..."}
	pkgs := []string{"cmd/autolayout", "cmd/hpfexp", "cmd/hpfgen", "cmd/layoutd"}
	for _, e := range examples {
		pkgs = append(pkgs, "examples/"+e)
	}
	for _, p := range pkgs {
		cmd := exec.Command("go", append(cover, "-o", filepath.Join(c.bin, filepath.Base(p)), "./"+p)...)
		cmd.Dir = c.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v\n%s", p, err, out)
		}
	}
	// The harness is a nested module; build it the way bench/run.sh does.
	cmd := exec.Command("go", append(cover, "-o", filepath.Join(c.bin, "layoutbench"), ".")...)
	cmd.Dir = filepath.Join(c.root, "bench")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build bench: %v\n%s", err, out)
	}
	return nil
}

// command prepares one instrumented binary to write its coverage into
// the corpus's counter directory.
func (c *corpus) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(c.bin, name), args...)
	cmd.Dir = c.root
	cmd.Env = append(os.Environ(), "GOCOVERDIR="+c.cov, "LAYOUTBENCH_ROOT="+c.root)
	return cmd
}

// exec runs one corpus command to completion.  want is the exit status
// the command must end with: a corpus step that fails differently is
// a broken corpus, not a measurement.
func (c *corpus) exec(want int, stdin string, name string, args ...string) (string, error) {
	cmd := c.command(name, args...)
	cmd.Stdin = strings.NewReader(stdin)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	got := 0
	if ee, ok := err.(*exec.ExitError); ok {
		got = ee.ExitCode()
	} else if err != nil {
		return "", err
	}
	if got != want {
		return "", fmt.Errorf("%s %s: exit %d, want %d\n%s", name, strings.Join(args, " "), got, want, tail(out.String()))
	}
	return out.String(), nil
}

// tail is the end of a command's output, for error messages.
func tail(s string) string {
	if len(s) > 2000 {
		return "..." + s[len(s)-2000:]
	}
	return s
}

// programs are the golden programs hpfgen writes, at their golden
// sizes; autolayout runs them, the two golden examples' programs and
// the two programs below.
var programs = []struct{ name, n, typ string }{
	{"adi", "48", "double"}, {"erlebacher", "16", "double"}, {"tomcatv", "32", "double"}, {"shallow", "32", "real"},
}

// exampleSrc extracts an example's `const src` program, as the golden
// corpus does.
var exampleSrc = regexp.MustCompile("(?s)const src = `\n(.*?)`")

// directedSrc fixes part of the layout with HPF directives, which
// filter the candidate search spaces, and ends in an array-valued
// reduction (row sums).
const directedSrc = `program directed
  parameter (n = 64)
  real a(n,n), b(n,n), c(n,n), s(n)
!hpf$ distribute a(*,block)
!hpf$ align c with a
  do it = 1, 10
    do j = 1, n
      do i = 2, n
        a(i,j) = a(i-1,j) + b(i,j)
      end do
    end do
    do j = 1, n
      do i = 1, n
        c(i,j) = a(i,j) * b(i,j)
      end do
    end do
  end do
  do j = 1, n
    do i = 1, n
      s(i) = s(i) + c(i,j)
    end do
  end do
end
`

// subroutineSrc is Adi's two sweeps written as subroutines, so the
// front end inlines CALLs before analysis.
const subroutineSrc = `subroutine rowsweep(x, b, n)
  double precision x(n,n), b(n,n)
  integer n
  do j = 2, n
    do i = 1, n
      x(i,j) = x(i,j) - x(i,j-1)*b(i,j)/b(i,j-1)
    end do
  end do
end

subroutine colsweep(x, b, n)
  double precision x(n,n), b(n,n)
  integer n
  do j = 1, n
    do i = 2, n
      x(i,j) = x(i,j) - x(i-1,j)*b(i,j)/b(i-1,j)
    end do
  end do
end

program subadi
  parameter (n = 32, niter = 4)
  double precision x(n,n), b(n,n)
  do iter = 1, niter
    call rowsweep(x, b, n)
    call colsweep(x, b, n)
  end do
end
`

// machineTable writes a machine table for -machine-file: the
// Paragon's, in the format machine.WriteTable documents.
func (c *corpus) machineTable() (string, error) {
	path := filepath.Join(c.tmp, "paragon.tbl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return path, machine.Paragon().WriteTable(f)
}

func (c *corpus) runAll() error {
	// hpfgen writes the golden programs.
	var files []string
	for _, p := range programs {
		src, err := c.exec(0, "", "hpfgen", "-program", p.name, "-n", p.n, "-type", p.typ)
		if err != nil {
			return err
		}
		path := filepath.Join(c.tmp, p.name+".f")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		files = append(files, path)
	}
	if _, err := c.exec(1, "", "hpfgen", "-program", "nope"); err != nil {
		return err
	}
	files = append(files, filepath.Join(c.root, "testdata", "adi128.f"))
	srcs := map[string]string{"directed": directedSrc, "subadi": subroutineSrc}
	for _, e := range []string{"conflict", "quickstart"} {
		b, err := os.ReadFile(filepath.Join(c.root, "examples", e, "main.go"))
		if err != nil {
			return err
		}
		m := exampleSrc.FindSubmatch(b)
		if m == nil {
			return fmt.Errorf("examples/%s/main.go has no `const src` block", e)
		}
		srcs[e] = string(m[1])
	}
	for _, name := range []string{"conflict", "quickstart", "directed", "subadi"} {
		path := filepath.Join(c.tmp, name+".f")
		if err := os.WriteFile(path, []byte(srcs[name]), 0o644); err != nil {
			return err
		}
		files = append(files, path)
	}
	table, err := c.machineTable()
	if err != nil {
		return err
	}

	// autolayout: every flag set on every program.
	flagSets := [][]string{
		{"-procs", "8"},
		{"-procs", "16", "-machine", "paragon", "-cyclic", "-multidim", "-spaces"},
		{"-procs", "8", "-explain", "-verify", "-stats"},
		{"-procs", "8", "-json"},
		{"-procs", "8", "-dp", "-greedy-align", "-guess-probs", "-no-cache"},
		{"-procs", "8", "-timeout", "1ns"},
		{"-procs", "4", "-machine", "cluster2020"},
		{"-procs", "8", "-machine-file", table},
		{"-sweep", "2,4,8", "-stats"},
	}
	for _, f := range files {
		for _, fs := range flagSets {
			if _, err := c.exec(0, "", "autolayout", append(append([]string(nil), fs...), f)...); err != nil {
				return err
			}
		}
		store := filepath.Join(c.tmp, "store-"+filepath.Base(f))
		for i := 0; i < 2; i++ {
			if _, err := c.exec(0, "", "autolayout", "-procs", "8", "-store", store, "-stats", f); err != nil {
				return err
			}
		}
	}
	src, err := os.ReadFile(files[0])
	if err != nil {
		return err
	}
	// Standard input, and the user-facing failures.
	steps := []struct {
		want  int
		stdin string
		args  []string
	}{
		{0, string(src), []string{"-procs", "8"}},
		{0, "", []string{"-procs", "8", "-store", "/dev/null/x", files[0]}},
		{1, "", []string{"-procs", "8", "-timeout", "1ns", "-strict", filepath.Join(c.tmp, "conflict.f")}},
		{1, "", []string{"-procs", "1", files[0]}},
		{1, "program p\n  x = (\nend\n", []string{"-procs", "8"}},
		{1, "", []string{"-procs", "8", "-machine", "cm5", files[0]}},
		{1, "", []string{"-procs", "8", "-machine-file", files[0], files[0]}},
		{1, "", []string{"-watch"}},
		{1, "", []string{"-server", "http://127.0.0.1:1", "-sweep", "2,4", files[0]}},
	}
	for _, s := range steps {
		if _, err := c.exec(s.want, s.stdin, "autolayout", s.args...); err != nil {
			return err
		}
	}
	if err := c.watch(); err != nil {
		return err
	}
	if err := c.daemon(files[0]); err != nil {
		return err
	}

	// hpfexp: every figure and table, the CSV series, the failures.
	for _, args := range [][]string{{"-all"}, {"-csv", "-fig", "4"}, {"-csv", "-fig", "6"}} {
		if _, err := c.exec(0, "", "hpfexp", args...); err != nil {
			return err
		}
	}
	for _, args := range [][]string{{"-fig", "9"}, {"-table", "nope"}} {
		if _, err := c.exec(1, "", "hpfexp", args...); err != nil {
			return err
		}
	}
	for _, e := range examples {
		if _, err := c.exec(0, "", e); err != nil {
			return err
		}
	}
	for _, w := range []string{"cold-golden", "scale-path", "scale-ring", "sweep-fill", "edit-chain", "layoutd-warm", "restart-store"} {
		// The harness's allocation determinism check jitters by a few
		// allocations on some ops and then fails the measurement;
		// coverage only needs one completed run, so retry that failure.
		for attempt := 1; ; attempt++ {
			out, err := c.exec(0, "", "layoutbench", "--workload", w, "--seed", "1", "--ops", "2", "--trace", "0")
			if err != nil && attempt < 3 && strings.Contains(err.Error(), "determinism:") {
				continue
			}
			if err != nil {
				return err
			}
			if !strings.Contains(out, `"failed":0`) {
				return fmt.Errorf("bench %s: %s", w, tail(out))
			}
			break
		}
	}
	return nil
}

// watch drives autolayout -watch through one accepted edit and one
// rejected save, then interrupts it.
func (c *corpus) watch() error {
	orig, err := os.ReadFile(filepath.Join(c.root, "testdata", "adi128.f"))
	if err != nil {
		return err
	}
	path := filepath.Join(c.tmp, "watch.f")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		return err
	}
	cmd := c.command("autolayout", "-procs", "8", "-stats", "-watch", path)
	pr, pw := io.Pipe()
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		return err
	}
	lines := make(chan string, 1024)
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	await := func(prefix string) error {
		deadline := time.After(60 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok {
					return fmt.Errorf("autolayout -watch ended before %q", prefix)
				}
				if strings.HasPrefix(l, prefix) {
					return nil
				}
			case <-deadline:
				return fmt.Errorf("autolayout -watch: no %q line within 60s", prefix)
			}
		}
	}
	fail := func(err error) error {
		cmd.Process.Kill()
		cmd.Wait()
		return err
	}
	if err := await("! watching"); err != nil {
		return fail(err)
	}
	edited := strings.Replace(string(orig), "0.125*b(i,j)", "0.25*b(i,j)", 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		return fail(err)
	}
	if err := await("! edit 2:"); err != nil {
		return fail(err)
	}
	if err := os.WriteFile(path, []byte("program p\n  x = (\nend\n"), 0o644); err != nil {
		return fail(err)
	}
	if err := await("! watch: edit rejected"); err != nil {
		return fail(err)
	}
	cmd.Process.Signal(os.Interrupt)
	if err := await("! watch: interrupted"); err != nil {
		return fail(err)
	}
	err = cmd.Wait()
	pw.Close()
	for range lines {
	}
	if err != nil {
		return fmt.Errorf("autolayout -watch after interrupt: %v", err)
	}
	return nil
}

// daemon serves a few requests from layoutd with a store, remote
// autolayout as the client, then drains it with SIGTERM.
func (c *corpus) daemon(file string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := c.command("layoutd", "-addr", addr, "-store", filepath.Join(c.tmp, "layoutd-store"))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return err
	}
	fail := func(err error) error {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("%v\nlayoutd: %s", err, tail(out.String()))
	}
	base := "http://" + addr
	ready := false
	for i := 0; i < 200 && !ready; i++ {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !ready {
		return fail(fmt.Errorf("layoutd at %s never became ready", addr))
	}
	for _, s := range []struct {
		want int
		args []string
	}{
		{0, []string{"-server", base, "-procs", "8", "-stats", file}},
		{0, []string{"-server", base, "-procs", "8", "-json", file}},
		{0, []string{"-server", base, "-procs", "8", "-verify", "-timeout", "10s", file}},
		{1, []string{"-server", base, "-procs", "1", file}},
	} {
		if _, err := c.exec(s.want, "", "autolayout", s.args...); err != nil {
			return fail(err)
		}
	}
	for _, p := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(base + p)
		if err != nil {
			return fail(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fail(fmt.Errorf("GET %s: status %d", p, resp.StatusCode))
		}
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("layoutd after SIGTERM: %v\n%s", err, tail(out.String()))
	}
	return nil
}
