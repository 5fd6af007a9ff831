package conn

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/gf2"
	"minequiv/internal/topology"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, []uint32{0, 1, 2, 3}, []uint32{3, 2, 1, 0}); err != nil {
		t.Errorf("valid connection rejected: %v", err)
	}
	if _, err := New(2, []uint32{0, 1, 2}, []uint32{3, 2, 1, 0}); err == nil {
		t.Error("short table accepted")
	}
	if _, err := New(2, []uint32{0, 1, 2, 9}, []uint32{3, 2, 1, 0}); err == nil {
		t.Error("out-of-range child accepted")
	}
}

func TestIsValid(t *testing.T) {
	// Identity/identity: every vertex has f-indegree 1 and g-indegree 1.
	c, _ := fromFuncs(2, func(x uint64) uint64 { return x }, func(x uint64) uint64 { return x })
	if !c.IsValid() {
		t.Error("double-link identity connection invalid")
	}
	if !c.HasParallelArcs() {
		t.Error("double links not flagged")
	}
	// f = g = constant: indegree 8 at one vertex.
	bad, _ := fromFuncs(2, func(x uint64) uint64 { return 0 }, func(x uint64) uint64 { return 0 })
	if bad.IsValid() {
		t.Error("constant connection valid")
	}
}

// TestIndependentIffAffine is the structural theorem behind the fast
// path: independence (by definition) holds exactly for affine pairs with
// a common linear part.
func TestIndependentIffAffine(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for trial := 0; trial < 60; trial++ {
		m := rng.IntN(5) + 2
		// Common linear part: independent.
		mat := gf2.RandomMatrix(rng, m)
		cf := rng.Uint64() & bitops.Mask(m)
		cg := rng.Uint64() & bitops.Mask(m)
		c, err := FromAffine(mat, cf, cg)
		if err != nil {
			t.Fatal(err)
		}
		if !c.IsIndependentDef() {
			t.Fatal("affine pair with common M not independent by definition")
		}
		if !c.IsIndependent() {
			t.Fatal("fast path disagrees (independent case)")
		}
		// Different linear parts: dependent.
		mat2 := gf2.RandomMatrix(rng, m)
		if mat2.Equal(mat) {
			continue
		}
		af := gf2.Affine{M: mat, C: cf, Dim: m}
		ag := gf2.Affine{M: mat2, C: cg, Dim: m}
		ftab, gtab := af.Table(), ag.Table()
		f := make([]uint32, len(ftab))
		g := make([]uint32, len(gtab))
		for i := range ftab {
			f[i], g[i] = uint32(ftab[i]), uint32(gtab[i])
		}
		c2 := Connection{M: m, F: f, G: g}
		if c2.IsIndependentDef() {
			t.Fatal("pair with different linear parts independent by definition")
		}
		if c2.IsIndependent() {
			t.Fatal("fast path disagrees (dependent case)")
		}
	}
}

func TestDefFastAgreeOnRandomTables(t *testing.T) {
	// Fully random tables are almost never independent; the two checks
	// must still agree everywhere.
	rng := rand.New(rand.NewPCG(2, 0))
	for trial := 0; trial < 200; trial++ {
		m := rng.IntN(4) + 2
		h := 1 << uint(m)
		f := make([]uint32, h)
		g := make([]uint32, h)
		for i := range f {
			f[i] = uint32(rng.IntN(h))
			g[i] = uint32(rng.IntN(h))
		}
		c := Connection{M: m, F: f, G: g}
		if c.IsIndependentDef() != c.IsIndependent() {
			t.Fatalf("definition and fast path disagree on %v / %v", f, g)
		}
	}
}

func TestPerturbedAffineDetected(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for trial := 0; trial < 100; trial++ {
		m := rng.IntN(4) + 2
		c := RandomIndependent(rng, m, true)
		// Corrupt one entry of F.
		idx := rng.IntN(c.H())
		c.F[idx] ^= 1
		if c.IsIndependentDef() || c.IsIndependent() {
			t.Fatal("corrupted connection still independent")
		}
	}
}

func TestBetaMatchesLinearPart(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	for trial := 0; trial < 50; trial++ {
		m := rng.IntN(5) + 2
		c := RandomIndependent(rng, m, trial%2 == 0)
		ar, ok := c.AffineForm()
		if !ok {
			t.Fatal("random independent connection lost its affine form")
		}
		for alpha := uint64(1); alpha < uint64(c.H()); alpha++ {
			beta, ok := c.Beta(alpha)
			if !ok {
				t.Fatalf("Beta(%d) rejected on independent connection", alpha)
			}
			if beta != ar.Mat.Apply(alpha) {
				t.Fatalf("Beta(%d) = %d, want M*alpha = %d", alpha, beta, ar.Mat.Apply(alpha))
			}
		}
		// Degenerate alphas.
		if _, ok := c.Beta(0); ok {
			t.Error("Beta(0) accepted")
		}
		if _, ok := c.Beta(uint64(c.H())); ok {
			t.Error("Beta(out of range) accepted")
		}
	}
}

func TestTypeDichotomy(t *testing.T) {
	// Proposition 1's proof: an independent valid connection has either
	// all vertices of type (f,g), or exactly half (f,f) and half (g,g).
	rng := rand.New(rand.NewPCG(5, 0))
	for trial := 0; trial < 80; trial++ {
		m := rng.IntN(5) + 2
		bijective := trial%2 == 0
		c := RandomIndependent(rng, m, bijective)
		ta := c.analyzeTypes()
		if !ta.valid {
			t.Fatal("RandomIndependent produced invalid connection")
		}
		h := c.H()
		if bijective {
			if ta.numFG != h || ta.numFF != 0 || ta.numGG != 0 {
				t.Fatalf("bijective case types: fg=%d ff=%d gg=%d", ta.numFG, ta.numFF, ta.numGG)
			}
		} else {
			if ta.numFG != 0 || ta.numFF != h/2 || ta.numGG != h/2 {
				t.Fatalf("singular case types: fg=%d ff=%d gg=%d", ta.numFG, ta.numFF, ta.numGG)
			}
		}
	}
}

func TestAnalyzeTypesInvalid(t *testing.T) {
	bad, _ := fromFuncs(2, func(x uint64) uint64 { return 0 }, func(x uint64) uint64 { return x })
	ta := bad.analyzeTypes()
	if ta.valid {
		t.Error("invalid connection typed as valid")
	}
}

// TestValidityTheorem: FromAffine(M, cf, cg) is a valid connection iff
// M is invertible, or rank(M) = m-1 and cf^cg is outside Im(M).
func TestValidityTheorem(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 0))
	for trial := 0; trial < 150; trial++ {
		m := rng.IntN(4) + 2
		mat := gf2.RandomMatrix(rng, m)
		cf := rng.Uint64() & bitops.Mask(m)
		cg := rng.Uint64() & bitops.Mask(m)
		c, err := FromAffine(mat, cf, cg)
		if err != nil {
			t.Fatal(err)
		}
		var image []uint64
		for i := 0; i < m; i++ {
			image = append(image, mat.Apply(1<<uint(i)))
		}
		rank := mat.Rank()
		want := rank == m || (rank == m-1 && !gf2.SpanContains(image, cf^cg))
		if got := c.IsValid(); got != want {
			t.Fatalf("m=%d rank=%d: IsValid=%v, theorem says %v", m, rank, got, want)
		}
	}
}

func TestReverseCase1(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for trial := 0; trial < 60; trial++ {
		m := rng.IntN(5) + 2
		c := RandomIndependent(rng, m, true)
		rev, err := c.Reverse()
		if err != nil {
			t.Fatal(err)
		}
		if !rev.IsValid() || !rev.IsIndependentDef() {
			t.Fatal("reverse of bijective connection not valid independent")
		}
		if !ReverseArcsMatch(c, rev) {
			t.Fatal("reverse arcs do not match (case 1)")
		}
		// phi = f^{-1}: check pointwise.
		for x := 0; x < c.H(); x++ {
			if rev.F[c.F[x]] != uint32(x) || rev.G[c.G[x]] != uint32(x) {
				t.Fatal("reverse is not the inverse pair")
			}
		}
	}
}

func TestReverseCase2(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 0))
	for trial := 0; trial < 60; trial++ {
		m := rng.IntN(5) + 2
		c := RandomIndependent(rng, m, false)
		rev, err := c.Reverse()
		if err != nil {
			t.Fatalf("case-2 reverse failed: %v", err)
		}
		if !rev.IsValid() {
			t.Fatal("case-2 reverse invalid")
		}
		if !rev.IsIndependentDef() {
			t.Fatal("case-2 reverse not independent (Proposition 1 violated)")
		}
		if !ReverseArcsMatch(c, rev) {
			t.Fatal("reverse arcs do not match (case 2)")
		}
	}
}

func TestReverseDouble(t *testing.T) {
	// Reversing twice preserves the arc multiset.
	rng := rand.New(rand.NewPCG(9, 0))
	for trial := 0; trial < 40; trial++ {
		m := rng.IntN(4) + 2
		c := RandomIndependent(rng, m, trial%2 == 0)
		rev, err := c.Reverse()
		if err != nil {
			t.Fatal(err)
		}
		back, err := rev.Reverse()
		if err != nil {
			t.Fatal(err)
		}
		if !ReverseArcsMatch(rev, back) {
			t.Fatal("double reverse arc mismatch")
		}
	}
}

func TestReverseRejectsDependent(t *testing.T) {
	// A valid but dependent connection: f = identity, g = +1 mod h.
	m := 3
	h := uint64(1) << uint(m)
	c, _ := fromFuncs(m,
		func(x uint64) uint64 { return x },
		func(x uint64) uint64 { return (x + 1) % h })
	if !c.IsValid() {
		t.Fatal("test premise: cycle connection should be valid")
	}
	if c.IsIndependentDef() {
		t.Fatal("test premise: cycle connection should be dependent")
	}
	if _, err := c.Reverse(); err == nil {
		t.Error("Reverse accepted a dependent connection")
	}
}

func TestBuildGraphBaseline(t *testing.T) {
	// Building a graph from baseline's per-stage connections reproduces
	// topology.Baseline exactly.
	for n := 2; n <= 8; n++ {
		want := topology.Baseline(n)
		conns := make([]Connection, n-1)
		for s := 0; s < n-1; s++ {
			conns[s] = fromGraphStage(want, s)
			if !conns[s].IsIndependentDef() {
				t.Fatalf("n=%d stage %d: baseline connection not independent", n, s)
			}
		}
		got, err := BuildGraph(conns)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d: rebuilt graph differs", n)
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := BuildGraph(nil); err == nil {
		t.Error("empty connection list accepted")
	}
	// Mismatched sizes.
	c2 := RandomIndependent(rand.New(rand.NewPCG(10, 0)), 2, true)
	c3 := RandomIndependent(rand.New(rand.NewPCG(11, 0)), 3, true)
	if _, err := BuildGraph([]Connection{c2, c3}); err == nil {
		t.Error("mismatched connection sizes accepted")
	}
	// Invalid connection.
	bad, _ := fromFuncs(2, func(x uint64) uint64 { return 0 }, func(x uint64) uint64 { return 0 })
	if _, err := BuildGraph([]Connection{bad, bad}); err == nil {
		t.Error("invalid connection accepted")
	}
}

func TestFromAffineErrors(t *testing.T) {
	if _, err := FromAffine(gf2.NewMatrix(2, 3), 0, 0); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := FromAffine(gf2.Identity(3), 0b11111, 0); err == nil {
		t.Error("oversized constant accepted")
	}
}

func TestRandomIndependentStructure(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 0))
	for m := 2; m <= 8; m++ {
		cb := RandomIndependent(rng, m, true)
		if !cb.IsValid() || !cb.IsIndependent() {
			t.Fatalf("m=%d bijective sample bad", m)
		}
		cs := RandomIndependent(rng, m, false)
		if !cs.IsValid() || !cs.IsIndependent() {
			t.Fatalf("m=%d singular sample bad", m)
		}
		ar, _ := cs.AffineForm()
		if ar.Mat.Rank() != m-1 {
			t.Fatalf("m=%d singular sample rank %d, want %d", m, ar.Mat.Rank(), m-1)
		}
	}
}

func BenchmarkIsIndependentDef(b *testing.B) {
	c := RandomIndependent(rand.New(rand.NewPCG(13, 0)), 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.IsIndependentDef() {
			b.Fatal("not independent")
		}
	}
}

func BenchmarkIsIndependentFast(b *testing.B) {
	c := RandomIndependent(rand.New(rand.NewPCG(13, 0)), 8, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.IsIndependent() {
			b.Fatal("not independent")
		}
	}
}

func BenchmarkReverse(b *testing.B) {
	c := RandomIndependent(rand.New(rand.NewPCG(14, 0)), 10, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reverse(); err != nil {
			b.Fatal(err)
		}
	}
}
