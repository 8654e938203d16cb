package artifact

import (
	"strings"
	"testing"

	"repro/internal/fortran"
	"repro/internal/machine"
)

const prog = `
program demo
  parameter (n = 16)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
end
`

func mustUnit(t *testing.T, src string) *fortran.Unit {
	t.Helper()
	u, err := fortran.Analyze(fortran.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUnitKeyDeterministicAndSensitive(t *testing.T) {
	a := UnitKey(mustUnit(t, prog))
	b := UnitKey(mustUnit(t, prog))
	if a != b {
		t.Fatalf("same source, different keys: %s vs %s", a, b)
	}
	changed := UnitKey(mustUnit(t, strings.Replace(prog, "n = 16", "n = 17", 1)))
	if changed == a {
		t.Fatal("changed program size, same key")
	}
	directive := UnitKey(mustUnit(t, strings.Replace(prog, "program demo\n",
		"program demo\n!hpf$ distribute a(block,*)\n", 1)))
	if directive == a {
		t.Fatal("added user directive, same key")
	}
	if !strings.HasPrefix(string(a), "unit:") {
		t.Fatalf("key = %q, want the unit: kind prefix", a)
	}
}

func TestMachineKeyDistinguishesModels(t *testing.T) {
	ipsc := MachineKey(machine.IPSC860())
	ipsc2 := MachineKey(machine.IPSC860())
	paragon := MachineKey(machine.Paragon())
	if ipsc != ipsc2 {
		t.Fatalf("same model, different keys: %s vs %s", ipsc, ipsc2)
	}
	if ipsc == paragon {
		t.Fatal("different machine models share a key")
	}
}

func TestHasherFieldBoundaries(t *testing.T) {
	// Concatenation must not collide: ("ab","c") vs ("a","bc").
	a := NewHasher("t").Str("ab").Str("c").Key()
	b := NewHasher("t").Str("a").Str("bc").Key()
	if a == b {
		t.Fatal("length-prefixing failed: concatenated fields collide")
	}
	// Type tags must not collide: Int(1) vs Bool(true).
	if NewHasher("t").Int(1).Key() == NewHasher("t").Bool(true).Key() {
		t.Fatal("type tagging failed: Int(1) == Bool(true)")
	}
	// Kinds partition the key space.
	if NewHasher("x").Str("v").Key() == NewHasher("y").Str("v").Key() {
		t.Fatal("kind prefix ignored")
	}
}

func TestCombineOrderMatters(t *testing.T) {
	k1, k2 := NewHasher("a").Int(1).Key(), NewHasher("a").Int(2).Key()
	if Combine("c", k1, k2) == Combine("c", k2, k1) {
		t.Fatal("Combine is order-insensitive")
	}
	if Combine("c", k1, k2) != Combine("c", k1, k2) {
		t.Fatal("Combine not deterministic")
	}
}
