package machine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fortran"
)

func TestTableRoundTrip(t *testing.T) {
	orig := IPSC860()
	var buf bytes.Buffer
	if err := orig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != orig.Name() {
		t.Errorf("name = %q, want %q", loaded.Name(), orig.Name())
	}
	if len(loaded.Sets()) != len(orig.Sets()) {
		t.Errorf("sets = %d, want %d", len(loaded.Sets()), len(orig.Sets()))
	}
	// Identical lookups across a sample of queries.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		pat := []Pattern{Shift, SendRecv, Broadcast, Reduction, Transpose}[rng.Intn(5)]
		procs := 2 + rng.Intn(140)
		bytes := rng.Intn(1 << 18)
		str := Stride(rng.Intn(2))
		lat := Latency(rng.Intn(2))
		a := orig.MsgTime(pat, procs, bytes, str, lat)
		b := loaded.MsgTime(pat, procs, bytes, str, lat)
		if diff := a - b; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("MsgTime(%v,%d,%d,%v,%v) = %v vs %v", pat, procs, bytes, str, lat, a, b)
		}
	}
	for _, k := range opKinds {
		for _, dt := range []fortran.DataType{fortran.Real, fortran.Double} {
			if orig.OpTime(k, dt) != loaded.OpTime(k, dt) {
				t.Errorf("op %v/%v mismatch", k, dt)
			}
		}
	}
}

func TestTableRoundTripParagon(t *testing.T) {
	var buf bytes.Buffer
	if err := Paragon().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTable(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestReadTableComments(t *testing.T) {
	var buf bytes.Buffer
	if err := IPSC860().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	text := "# hand-tuned\n\n" + buf.String()
	if _, err := ReadTable(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
}

func TestReadTableErrors(t *testing.T) {
	base := func() string {
		var buf bytes.Buffer
		IPSC860().WriteTable(&buf)
		return buf.String()
	}()
	cases := []struct {
		name, text string
	}{
		{"empty", ""},
		{"garbage record", "wat 1 2 3\n"},
		{"bad op", "op frobnicate 1 2\n" + base},
		{"bad pattern", base + "set teleport 4 unit high 1 1\n"},
		{"bad procs", base + "set shift one unit high 1 1\n"},
		{"bad stride", base + "set shift 4 diagonal high 1 1\n"},
		{"bad latency", base + "set shift 4 unit warp 1 1\n"},
		{"negative cost", base + "set shift 256 unit high -1 1\n"},
		{"duplicate", base + "set shift 2 unit high 75 0.36\n"},
		{"missing combination", "machine m\nop addsub 1 1\nop mul 1 1\nop div 1 1\nop sqrt 1 1\nop intrinsic 1 1\nop pow 1 1\nop load 1 1\nop store 1 1\nset shift 4 unit high 1 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTable(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

// TestQuickUnsortedEntriesSorted: ReadTable must sort entries by procs
// regardless of input order, preserving lookups.
func TestQuickUnsortedEntriesSorted(t *testing.T) {
	var buf bytes.Buffer
	if err := IPSC860().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shuffled := append([]string(nil), lines...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m, err := ReadTable(strings.NewReader(strings.Join(shuffled, "\n")))
		if err != nil {
			return false
		}
		want := IPSC860().MsgTime(Broadcast, 24, 4096, UnitStride, HighLatency)
		got := m.MsgTime(Broadcast, 24, 4096, UnitStride, HighLatency)
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
