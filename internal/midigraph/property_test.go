package midigraph

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/perm"
)

// randomValidGraph builds an arbitrary valid MI-digraph from two random
// permutations per stage (local helper; the randnet package cannot be
// imported here without a cycle).
func randomValidGraph(rng *rand.Rand, n int) *Graph {
	g := New(n)
	h := g.CellsPerStage()
	for s := 0; s < n-1; s++ {
		pf := perm.Random(rng, h)
		pg := perm.Random(rng, h)
		for x := 0; x < h; x++ {
			g.SetChildren(s, uint32(x), uint32(pf[x]), uint32(pg[x]))
		}
	}
	return g
}

// Property: window component counts are invariant under relabeling.
func TestComponentCountRelabelInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(100, 0))
	for trial := 0; trial < 60; trial++ {
		n := rng.IntN(5) + 2
		g := randomValidGraph(rng, n)
		perms := make([]perm.Perm, n)
		for s := range perms {
			perms[s] = perm.Random(rng, g.CellsPerStage())
		}
		r, err := g.Relabel(perms)
		if err != nil {
			t.Fatal(err)
		}
		lo := rng.IntN(n)
		hi := lo + rng.IntN(n-lo)
		if g.ComponentCount(lo, hi) != r.ComponentCount(lo, hi) {
			t.Fatalf("relabeling changed component count of window (%d,%d)", lo, hi)
		}
	}
}

// windowDuality checks the reversal symmetry of the window properties
// on g: the window (i..j) of G and the window (n+1-j .. n+1-i) of the
// reverse digraph are the same undirected subgraph, so their component
// counts must agree for every window. It returns the first disagreeing
// pair, or nil. This is the bridge between the paper's P(1,*) and
// P(*,n) families.
func windowDuality(g *Graph) *[2]WindowResult {
	r := g.Reverse()
	for i := 1; i <= g.n; i++ {
		for j := i; j <= g.n; j++ {
			a := g.windowResult(i, j, g.ComponentCount(i-1, j-1))
			ri, rj := g.n+1-j, g.n+1-i
			b := r.windowResult(ri, rj, r.ComponentCount(ri-1, rj-1))
			if a.Components != b.Components {
				return &[2]WindowResult{a, b}
			}
		}
	}
	return nil
}

// Property: window duality between G and its reverse holds for arbitrary
// valid MI-digraphs, not just equivalent ones.
func TestWindowDualityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 0))
	for trial := 0; trial < 60; trial++ {
		n := rng.IntN(5) + 2
		g := randomValidGraph(rng, n)
		if bad := windowDuality(g); bad != nil {
			t.Fatalf("duality violated: %v vs %v", bad[0], bad[1])
		}
	}
	// And on the structured graphs.
	g := buildBaseline(t, 6)
	if bad := windowDuality(g); bad != nil {
		t.Fatalf("baseline duality violated: %v", bad)
	}
}

// Property: Banyan is preserved by reversal (paths reverse bijectively).
func TestBanyanReverseProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(102, 0))
	for trial := 0; trial < 40; trial++ {
		n := rng.IntN(4) + 2
		g := randomValidGraph(rng, n)
		fwd, _ := g.IsBanyan()
		rev, _ := g.Reverse().IsBanyan()
		if fwd != rev {
			t.Fatalf("banyan not reverse-invariant (fwd=%v rev=%v)", fwd, rev)
		}
	}
}

// Property: total path counts from any source equal 2^(n-1) regardless of
// structure (each node always fans out by 2).
func TestPathCountTotalProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 0))
	for trial := 0; trial < 40; trial++ {
		n := rng.IntN(5) + 2
		g := randomValidGraph(rng, n)
		src := uint32(rng.IntN(g.CellsPerStage()))
		var sum uint64
		for _, c := range g.PathCountsFrom(src) {
			sum += c
		}
		if sum != uint64(g.CellsPerStage()) {
			t.Fatalf("path count total %d, want %d", sum, g.CellsPerStage())
		}
	}
}

// Property: the component id slices returned by Components are exactly
// the equivalence classes refined by ComponentCount: counting ids equals
// the count, for random windows of random graphs.
func TestComponentsCountAgreement(t *testing.T) {
	rng := rand.New(rand.NewPCG(104, 0))
	for trial := 0; trial < 60; trial++ {
		n := rng.IntN(5) + 2
		g := randomValidGraph(rng, n)
		lo := rng.IntN(n)
		hi := lo + rng.IntN(n-lo)
		ids, count := g.Components(lo, hi)
		if g.ComponentCount(lo, hi) != count {
			t.Fatal("Components and ComponentCount disagree")
		}
		maxID := int32(-1)
		for _, stage := range ids {
			for _, id := range stage {
				if id > maxID {
					maxID = id
				}
			}
		}
		if int(maxID)+1 != count {
			t.Fatalf("id range %d != count %d", maxID+1, count)
		}
	}
}
