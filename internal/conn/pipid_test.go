package conn

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/pipid"
)

// TestPIPIDConnectionsIndependentExhaustive is the §4 theorem in full for
// small widths: EVERY index permutation theta induces an independent
// connection.
func TestPIPIDConnectionsIndependentExhaustive(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for _, theta := range pipid.All(n) {
			c := FromIndexPerm(theta)
			if !c.IsIndependentDef() {
				t.Fatalf("n=%d theta=%v: connection not independent", n, theta)
			}
			if !c.IsValid() {
				t.Fatalf("n=%d theta=%v: connection invalid", n, theta)
			}
		}
	}
}

func TestPIPIDConnectionsIndependentSampled(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for trial := 0; trial < 100; trial++ {
		n := rng.IntN(9) + 2
		theta := pipid.Random(rng, n)
		c := FromIndexPerm(theta)
		if !c.IsIndependent() {
			t.Fatalf("n=%d theta=%v: connection not independent", n, theta)
		}
	}
}

// TestPaperChildFormula checks the §4 bit-level formula for the children
// against the link-relabeling implementation, for every theta and cell.
func TestPaperChildFormula(t *testing.T) {
	for n := 2; n <= 5; n++ {
		h := 1 << uint(n-1)
		for _, theta := range pipid.All(n) {
			c := FromIndexPerm(theta)
			for x := 0; x < h; x++ {
				wantF := paperChildFormula(theta, uint64(x), 0)
				wantG := paperChildFormula(theta, uint64(x), 1)
				if uint64(c.F[x]) != wantF || uint64(c.G[x]) != wantG {
					t.Fatalf("n=%d theta=%v x=%d: children (%d,%d), paper formula (%d,%d)",
						n, theta, x, c.F[x], c.G[x], wantF, wantG)
				}
			}
		}
	}
}

// TestPaperBetaFormula checks that the beta of the induced connection is
// exactly the theta-image of the translated cell label.
func TestPaperBetaFormula(t *testing.T) {
	for n := 2; n <= 5; n++ {
		h := 1 << uint(n-1)
		for _, theta := range pipid.All(n) {
			c := FromIndexPerm(theta)
			for alpha := uint64(1); alpha < uint64(h); alpha++ {
				beta, ok := c.Beta(alpha)
				if !ok {
					t.Fatalf("n=%d theta=%v: Beta(%d) rejected", n, theta, alpha)
				}
				if want := PaperBeta(theta, alpha); beta != want {
					t.Fatalf("n=%d theta=%v alpha=%d: beta=%d, paper says %d",
						n, theta, alpha, beta, want)
				}
			}
		}
	}
}

// TestDoubleLinksIffPortFixed: the Fig 5 criterion. theta^{-1}(0) = 0
// if and only if the induced stage has parallel arcs, in which case f==g.
func TestDoubleLinksIffPortFixed(t *testing.T) {
	for n := 2; n <= 5; n++ {
		for _, theta := range pipid.All(n) {
			c := FromIndexPerm(theta)
			degenerate := indexPermDoubleLinks(theta)
			if degenerate != c.HasParallelArcs() {
				t.Fatalf("n=%d theta=%v: degenerate=%v parallel=%v",
					n, theta, degenerate, c.HasParallelArcs())
			}
			if degenerate {
				for x := 0; x < c.H(); x++ {
					if c.F[x] != c.G[x] {
						t.Fatalf("n=%d theta=%v: degenerate stage with f != g", n, theta)
					}
				}
				if _, ok := portDestination(theta); ok {
					t.Fatalf("portDestination accepted degenerate theta")
				}
			} else {
				// f and g differ exactly in bit k-1.
				k, ok := portDestination(theta)
				if !ok {
					t.Fatalf("portDestination rejected non-degenerate theta")
				}
				for x := 0; x < c.H(); x++ {
					if uint64(c.F[x]^c.G[x]) != uint64(1)<<uint(k) {
						t.Fatalf("n=%d theta=%v x=%d: f^g = %b, want bit %d",
							n, theta, x, c.F[x]^c.G[x], k)
					}
					if bitops.Bit(uint64(c.F[x]), k) != 0 || bitops.Bit(uint64(c.G[x]), k) != 1 {
						t.Fatalf("n=%d theta=%v: f must set port bit 0, g 1", n, theta)
					}
				}
			}
		}
	}
}

// TestBPCConnectionsIndependent extends §4 to bit-permute-complement
// permutations.
func TestBPCConnectionsIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	for trial := 0; trial < 150; trial++ {
		n := rng.IntN(6) + 2
		theta := pipid.Random(rng, n)
		mask := rng.Uint64() & bitops.Mask(n)
		c := fromBPC(bpc{theta: theta, mask: mask})
		if !c.IsIndependentDef() {
			t.Fatalf("BPC connection not independent: theta=%v mask=%b", theta, mask)
		}
		// The linear part is unchanged by the mask: beta values agree
		// with the plain PIPID connection.
		plain := FromIndexPerm(theta)
		for alpha := uint64(1); alpha < uint64(c.H()); alpha++ {
			b1, ok1 := c.Beta(alpha)
			b2, ok2 := plain.Beta(alpha)
			if !ok1 || !ok2 || b1 != b2 {
				t.Fatalf("BPC changed beta: alpha=%d %d vs %d", alpha, b1, b2)
			}
		}
		// The mask shifts both children's cell labels by mask>>1 (the
		// mask's port bit is dropped with the port position).
		wantShift := mask >> 1
		for x := 0; x < c.H(); x++ {
			if uint64(c.F[x]) != uint64(plain.F[x])^wantShift ||
				uint64(c.G[x]) != uint64(plain.G[x])^wantShift {
				t.Fatalf("BPC cell shift wrong: theta=%v mask=%b", theta, mask)
			}
		}
	}
}

// TestPIPIDGraphBanyan: composing non-degenerate PIPID stages whose port
// destinations cover all m cell bits yields a Banyan graph; if any stage
// is degenerate the graph cannot be Banyan (Fig 5).
func TestPIPIDGraphBanyan(t *testing.T) {
	n := 4
	// Butterfly stages beta_1..beta_3 cover port destinations 0,1,2.
	conns := []Connection{
		FromIndexPerm(pipid.Butterfly(n, 1)),
		FromIndexPerm(pipid.Butterfly(n, 2)),
		FromIndexPerm(pipid.Butterfly(n, 3)),
	}
	g, err := BuildGraph(conns)
	if err != nil {
		t.Fatal(err)
	}
	if ok, v := g.IsBanyan(); !ok {
		t.Fatalf("butterfly cascade not Banyan: %v", v)
	}
	// Replace the middle stage by the degenerate identity theta.
	conns[1] = FromIndexPerm(pipid.Identity(n))
	g2, err := BuildGraph(conns)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := g2.IsBanyan(); ok {
		t.Fatal("cascade with degenerate stage reported Banyan")
	}
}

func BenchmarkFromIndexPerm(b *testing.B) {
	theta := pipid.BitReversal(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromIndexPerm(theta)
	}
}
