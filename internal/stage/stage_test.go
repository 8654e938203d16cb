package stage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"
)

// outOfMatrix is the documented set of sites that are deliberately not
// in All: they only exist under a running server or on the Update path,
// and their own chaos suites sweep them (see the constants' comments).
var outOfMatrix = map[string]bool{
	ServiceFlight:         true,
	IncrementalInvalidate: true,
}

func TestAllHasNoDuplicatesAndOrderMatches(t *testing.T) {
	if len(order) != len(All) {
		t.Fatalf("order has %d entries for %d stages: All repeats a name", len(order), len(All))
	}
	for i, s := range All {
		if order[s] != i {
			t.Errorf("order[%q] = %d, want its index in All, %d", s, order[s], i)
		}
		if outOfMatrix[s] {
			t.Errorf("%q is both in All and in the out-of-matrix set", s)
		}
	}
}

// TestEverySiteIsPlaced reads the package's own source so a site
// constant added later fails here until it is put in All (swept by
// core's chaos matrix) or in outOfMatrix (swept by a dedicated suite).
func TestEverySiteIsPlaced(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "stage.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := 0
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !name.IsExported() || !ok || lit.Kind != token.STRING {
					continue
				}
				site, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				sites++
				if _, inAll := order[site]; !inAll && !outOfMatrix[site] {
					t.Errorf("%s = %q is neither in All nor in the out-of-matrix set", name.Name, site)
				}
			}
		}
	}
	if want := len(All) + len(outOfMatrix); sites != want {
		t.Errorf("found %d exported site constants, All + out-of-matrix name %d", sites, want)
	}
}

func TestNilTimingsAddIsNoOp(t *testing.T) {
	var tm Timings
	tm.Add(Parse, time.Second)
	if tm != nil || tm.String() != "" {
		t.Errorf("nil Timings after Add: %v", tm)
	}
}

func TestTimingsStringPipelineOrder(t *testing.T) {
	tm := Timings{}
	tm.Add("zeta", 2*time.Millisecond)
	tm.Add(Selection, time.Millisecond)
	tm.Add("alpha", 3*time.Millisecond)
	tm.Add(Parse, 1500*time.Microsecond)
	tm.Add(Selection, time.Millisecond) // a second selection accumulates
	tm.Add(Dep, 0)                      // zero buckets are not rendered
	const want = "parse 1.5ms, selection 2ms, alpha 3ms, zeta 2ms"
	if got := tm.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
