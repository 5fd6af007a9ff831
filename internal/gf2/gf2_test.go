package gf2

import (
	mrand "math/rand"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"minequiv/internal/bitops"
)

func TestDot(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0}, {1, 1, 1}, {0b11, 0b01, 1}, {0b11, 0b11, 0},
		{0b101, 0b111, 0}, {0b1011, 0b0110, 1},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%b,%b) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIdentityApply(t *testing.T) {
	id := Identity(6)
	for x := uint64(0); x < 64; x++ {
		if id.Apply(x) != x {
			t.Fatalf("Identity.Apply(%d) != %d", x, x)
		}
	}
	if !id.Invertible() || id.Rank() != 6 {
		t.Error("identity not invertible / wrong rank")
	}
}

func TestMatrixGetSet(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 1)
	m.Set(2, 3, 1)
	if m.Get(1, 2) != 1 || m.Get(2, 3) != 1 || m.Get(0, 0) != 0 {
		t.Error("Get/Set mismatch")
	}
	m.Set(1, 2, 0)
	if m.Get(1, 2) != 0 {
		t.Error("Set to 0 failed")
	}
	if len(m.Rows) != 3 || m.Cols != 4 {
		t.Error("shape wrong")
	}
}

func TestMulAssociativeAndIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 50; trial++ {
		k := rng.IntN(10) + 1
		a := RandomMatrix(rng, k)
		b := RandomMatrix(rng, k)
		c := RandomMatrix(rng, k)
		if !a.Mul(b.Mul(c)).Equal(a.Mul(b).Mul(c)) {
			t.Fatalf("k=%d: (ab)c != a(bc)", k)
		}
		if !a.Mul(Identity(k)).Equal(a) || !Identity(k).Mul(a).Equal(a) {
			t.Fatalf("k=%d: identity law fails", k)
		}
		// Mul agrees with composed Apply.
		x := rng.Uint64() & bitops.Mask(k)
		if a.Mul(b).Apply(x) != a.Apply(b.Apply(x)) {
			t.Fatalf("k=%d: (ab)x != a(bx)", k)
		}
	}
}

func TestRankKnown(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Rows[0] = 0b011
	m.Rows[1] = 0b110
	m.Rows[2] = 0b101 // = row0 ^ row1
	if got := m.Rank(); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
	if m.Invertible() {
		t.Error("singular matrix reported invertible")
	}
	z := NewMatrix(4, 4)
	if z.Rank() != 0 {
		t.Error("zero matrix rank != 0")
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	for trial := 0; trial < 60; trial++ {
		k := rng.IntN(14) + 1
		m := RandomInvertible(rng, k)
		inv, ok := m.Inverse()
		if !ok {
			t.Fatalf("k=%d: invertible matrix failed to invert", k)
		}
		if !m.Mul(inv).Equal(Identity(k)) || !inv.Mul(m).Equal(Identity(k)) {
			t.Fatalf("k=%d: m * m^-1 != I", k)
		}
	}
	// Singular matrices must be rejected.
	m := NewMatrix(2, 2)
	m.Rows[0] = 0b11
	m.Rows[1] = 0b11
	if _, ok := m.Inverse(); ok {
		t.Error("singular matrix inverted")
	}
	// Non-square matrices must be rejected.
	if _, ok := NewMatrix(2, 3).Inverse(); ok {
		t.Error("non-square matrix inverted")
	}
}

func TestInverseWide(t *testing.T) {
	// Force the wide path (2k > 64) with k = 40.
	rng := rand.New(rand.NewPCG(10, 0))
	m := RandomInvertible(rng, 40)
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("wide inverse failed")
	}
	if !m.Mul(inv).Equal(Identity(40)) {
		t.Fatal("wide m * m^-1 != I")
	}
}

func TestKernelBasis(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for trial := 0; trial < 60; trial++ {
		k := rng.IntN(10) + 1
		m := RandomMatrix(rng, k)
		basis := m.KernelBasis()
		if len(basis)+m.Rank() != k {
			t.Fatalf("rank-nullity violated: dim %d, rank %d, nullity %d",
				k, m.Rank(), len(basis))
		}
		for _, v := range basis {
			if m.Apply(v) != 0 {
				t.Fatalf("kernel vector %b not in kernel", v)
			}
			if v == 0 {
				t.Fatal("zero vector in kernel basis")
			}
		}
		if len(Echelonize(basis)) != len(basis) {
			t.Fatal("kernel basis not independent")
		}
	}
}

func TestSpan(t *testing.T) {
	basis := []uint64{0b001, 0b010}
	if !SpanContains(basis, 0b011) || !SpanContains(basis, 0) {
		t.Error("span membership false negative")
	}
	if SpanContains(basis, 0b100) {
		t.Error("span membership false positive")
	}
	if len(Echelonize([]uint64{0b11, 0b01, 0b10})) != 2 {
		t.Error("span dimension wrong")
	}
	if len(Echelonize(nil)) != 0 {
		t.Error("span dimension of nil != 0")
	}
}

// applyAffine evaluates a at x directly, the oracle Table and
// InferAffine are checked against.
func applyAffine(a Affine, x uint64) uint64 { return a.M.Apply(x) ^ a.C }

// equalAffine reports structural equality of two affine maps.
func equalAffine(a, b Affine) bool { return a.Dim == b.Dim && a.C == b.C && a.M.Equal(b.M) }

func TestAffineTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 0))
	for trial := 0; trial < 30; trial++ {
		k := rng.IntN(9) + 1
		a := Affine{M: RandomMatrix(rng, k), C: rng.Uint64() & bitops.Mask(k), Dim: k}
		tab := a.Table()
		if len(tab) != 1<<uint(k) {
			t.Fatal("table length wrong")
		}
		for x := uint64(0); x < uint64(len(tab)); x++ {
			if want := applyAffine(a, x); tab[x] != want {
				t.Fatalf("Table[%d] = %d, Mx^C = %d", x, tab[x], want)
			}
		}
	}
}

func TestInferAffineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0))
	for trial := 0; trial < 60; trial++ {
		k := rng.IntN(9) + 1
		a := Affine{M: RandomMatrix(rng, k), C: rng.Uint64() & bitops.Mask(k), Dim: k}
		got, ok := InferAffine(a.Table(), k)
		if !ok {
			t.Fatal("affine table not recognized")
		}
		if !equalAffine(got, a) {
			t.Fatalf("inferred map differs:\n%v\nvs\n%v", got, a)
		}
	}
}

func TestInferAffineRejectsNonAffine(t *testing.T) {
	// x -> x+1 mod 2^k is not GF(2)-affine for k >= 3 (for k = 2 the
	// single carry bit1' = x1^x0 happens to be linear).
	for k := 3; k <= 8; k++ {
		n := 1 << uint(k)
		f := make([]uint64, n)
		for x := 0; x < n; x++ {
			f[x] = uint64((x + 1) % n)
		}
		if _, ok := InferAffine(f, k); ok {
			t.Errorf("k=%d: x+1 mod 2^k accepted as affine", k)
		}
	}
	// A table with one corrupted entry must be rejected.
	rng := rand.New(rand.NewPCG(17, 0))
	a := Affine{M: RandomMatrix(rng, 5), C: 7, Dim: 5}
	tab := a.Table()
	tab[19] ^= 1
	if _, ok := InferAffine(tab, 5); ok {
		t.Error("corrupted affine table accepted")
	}
	// Wrong length tables are rejected.
	if _, ok := InferAffine(make([]uint64, 7), 3); ok {
		t.Error("wrong-length table accepted")
	}
}

func TestRandomInvertibleIsInvertible(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 0))
	for k := 1; k <= 16; k++ {
		if !RandomInvertible(rng, k).Invertible() {
			t.Errorf("k=%d: RandomInvertible returned singular matrix", k)
		}
	}
}

// Property: Apply is linear: m(x^y) == m(x)^m(y).
func TestApplyLinearityProperty(t *testing.T) {
	f := func(seed uint64, xr, yr uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		k := r.IntN(16) + 1
		m := RandomMatrix(rand.New(rand.NewPCG(seed+1, 0)), k)
		x := xr & bitops.Mask(k)
		y := yr & bitops.Mask(k)
		return m.Apply(x^y) == m.Apply(x)^m.Apply(y)
	}
	if err := quick.Check(f, &quick.Config{Rand: mrand.New(mrand.NewSource(1)), MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: rank is invariant under row swaps and row additions.
func TestRankInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0))
	for trial := 0; trial < 100; trial++ {
		k := rng.IntN(10) + 2
		m := RandomMatrix(rng, k)
		r0 := m.Rank()
		i, j := rng.IntN(k), rng.IntN(k)
		if i == j {
			continue
		}
		m2 := Matrix{Rows: slices.Clone(m.Rows), Cols: m.Cols}
		m2.Rows[i], m2.Rows[j] = m2.Rows[j], m2.Rows[i]
		if m2.Rank() != r0 {
			t.Fatal("rank changed under row swap")
		}
		m3 := Matrix{Rows: slices.Clone(m.Rows), Cols: m.Cols}
		m3.Rows[i] ^= m3.Rows[j]
		if m3.Rank() != r0 {
			t.Fatal("rank changed under row addition")
		}
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 1)
	if got := m.String(); got != "100\n001" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkApply(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 0))
	m := RandomMatrix(rng, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(uint64(i) & bitops.Mask(20))
	}
}

func BenchmarkInferAffine(b *testing.B) {
	rng := rand.New(rand.NewPCG(22, 0))
	a := Affine{M: RandomMatrix(rng, 12), C: 5, Dim: 12}
	tab := a.Table()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := InferAffine(tab, 12); !ok {
			b.Fatal("inference failed")
		}
	}
}
