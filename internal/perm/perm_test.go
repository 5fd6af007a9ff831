package perm

import (
	"math/rand/v2"
	"testing"
)

func TestIdentity(t *testing.T) {
	p := Identity(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N() != 8 {
		t.Fatal("N wrong")
	}
	for x := uint64(0); x < 8; x++ {
		if p.Apply(x) != x {
			t.Fatal("Apply wrong")
		}
	}
}

func TestValidate(t *testing.T) {
	bad := Perm{0, 1, 1}
	if bad.Validate() == nil {
		t.Error("duplicate image accepted")
	}
	bad = Perm{0, 3, 1}
	if bad.Validate() == nil {
		t.Error("out-of-range image accepted")
	}
	good := Perm{2, 0, 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
	var empty Perm
	if err := empty.Validate(); err != nil {
		t.Errorf("empty perm rejected: %v", err)
	}
}

func TestFromFunc(t *testing.T) {
	p, err := FromFunc(4, func(x uint64) uint64 { return 3 - x })
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(Perm{3, 2, 1, 0}) {
		t.Fatalf("FromFunc = %v", p)
	}
	if _, err := FromFunc(4, func(x uint64) uint64 { return 0 }); err == nil {
		t.Error("constant function accepted as permutation")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFromFunc did not panic on invalid input")
		}
	}()
	MustFromFunc(4, func(x uint64) uint64 { return 0 })
}

func TestComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(30) + 1
		p := Random(rng, n)
		q := Random(rng, n)
		// Compose order: (p.Compose(q))(x) = q(p(x)).
		for x := uint64(0); x < uint64(n); x++ {
			if p.Compose(q).Apply(x) != q.Apply(p.Apply(x)) {
				t.Fatal("compose order wrong")
			}
		}
		if id := Identity(n); !p.Compose(p.Inverse()).Equal(id) || !p.Inverse().Compose(p).Equal(id) {
			t.Fatal("inverse law fails")
		}
		if !p.Inverse().Inverse().Equal(p) {
			t.Fatal("double inverse != p")
		}
	}
}

func TestCycles(t *testing.T) {
	p := Perm{1, 2, 0, 3, 5, 4}
	cycles := p.Cycles()
	want := [][]uint64{{0, 1, 2}, {3}, {4, 5}}
	if len(cycles) != len(want) {
		t.Fatalf("cycles = %v", cycles)
	}
	for i := range want {
		if len(cycles[i]) != len(want[i]) {
			t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
		}
		for j := range want[i] {
			if cycles[i][j] != want[i][j] {
				t.Fatalf("cycle %d = %v, want %v", i, cycles[i], want[i])
			}
		}
	}
}

func TestString(t *testing.T) {
	if got := (Perm{1, 0, 2}).String(); got != "(0 1)(2)" {
		t.Errorf("String = %q", got)
	}
	var empty Perm
	if got := empty.String(); got != "()" {
		t.Errorf("empty String = %q", got)
	}
}

func TestRandomIsUniformish(t *testing.T) {
	// Sanity check: all 6 permutations of 3 symbols appear in 600 draws.
	rng := rand.New(rand.NewPCG(3, 0))
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		counts[Random(rng, 3).String()]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct perms of 3 symbols, want 6", len(counts))
	}
	for s, c := range counts {
		if c < 50 {
			t.Errorf("perm %s badly undersampled: %d/600", s, c)
		}
	}
}

// Property: Cycles partitions the symbol set.
func TestCyclesPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(40) + 1
		p := Random(rng, n)
		seen := make([]bool, n)
		total := 0
		for _, c := range p.Cycles() {
			for _, v := range c {
				if seen[v] {
					t.Fatal("symbol in two cycles")
				}
				seen[v] = true
				total++
			}
			// Each cycle is really a cycle of p.
			for i, v := range c {
				if p[v] != c[(i+1)%len(c)] {
					t.Fatal("cycle does not follow p")
				}
			}
		}
		if total != n {
			t.Fatal("cycles miss symbols")
		}
	}
}

func BenchmarkCompose(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 0))
	p := Random(rng, 1<<12)
	q := Random(rng, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Compose(q)
	}
}
