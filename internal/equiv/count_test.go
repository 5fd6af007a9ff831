package equiv

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/midigraph"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// TestBaselineAutomorphismCount enumerates the full automorphism group of
// the Baseline network and checks it against the closed form
// 2^(2*(2^(n-1)-1)) derived from the window-split analysis. This is also
// the exhaustive proof that every side choice made by the merge-tree
// labeling corresponds to a distinct automorphism.
func TestBaselineAutomorphismCount(t *testing.T) {
	for n := 2; n <= 4; n++ {
		g := topology.Baseline(n)
		got, err := CountIsomorphisms(g, g)
		if err != nil {
			t.Fatal(err)
		}
		want := BaselineAutomorphismFormula(n)
		if got != want {
			t.Fatalf("n=%d: |Aut| = %d, formula says %d", n, got, want)
		}
	}
}

func TestIsomorphismCountInvariant(t *testing.T) {
	// The number of isomorphisms g -> h equals |Aut| for any isomorphic
	// pair, so scrambles and other classical networks give the same count.
	rng := rand.New(rand.NewPCG(1, 0))
	n := 3
	want := BaselineAutomorphismFormula(n)
	base := topology.Baseline(n)
	for _, name := range topology.Names() {
		g := topology.MustBuild(name, n).Graph
		got, err := CountIsomorphisms(g, base)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: %d isomorphisms onto baseline, want %d", name, got, want)
		}
	}
	sg, _ := randnet.Scramble(rng, base)
	got, err := CountIsomorphisms(sg, base)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("scramble: %d isomorphisms, want %d", got, want)
	}
}

func TestCountRejects(t *testing.T) {
	// Non-isomorphic graphs count zero.
	n := 4
	tail, err := randnet.TailCycleBanyan(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountIsomorphisms(tail, topology.Baseline(n))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("counterexample has %d isomorphisms onto baseline", got)
	}
	// Size mismatch counts zero without error.
	got, err = CountIsomorphisms(topology.Baseline(3), topology.Baseline(4))
	if err != nil || got != 0 {
		t.Fatalf("size mismatch: %d, %v", got, err)
	}
	// Oversized instances refused.
	big := topology.Baseline(OracleMaxStages + 1)
	if _, err := CountIsomorphisms(big, big); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestTailCycleAutomorphismsExist(t *testing.T) {
	// The tail-cycle graph has automorphisms of its own (rotating the
	// cycle is not one — the prefix pins it — but there is at least the
	// identity). Count must be >= 1 and finite.
	tail, err := randnet.TailCycleBanyan(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CountIsomorphisms(tail, tail)
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("graph has no automorphisms at all (identity missing?)")
	}
}

func TestBaselineAutomorphismFormulaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	BaselineAutomorphismFormula(7) // exponent 126
}

// TestCanonicalForm relabels baseline-equivalent graphs into Baseline
// coordinates through IsoToBaseline: the result is structurally equal
// (up to child slot order) to topology.Baseline(n), so two equivalent
// graphs always have identical canonical forms.
func TestCanonicalForm(t *testing.T) {
	canonicalForm := func(g *midigraph.Graph) (*midigraph.Graph, error) {
		iso, err := IsoToBaseline(g)
		if err != nil {
			return nil, err
		}
		return g.Relabel(iso.Maps)
	}
	rng := rand.New(rand.NewPCG(2, 0))
	n := 5
	base := topology.Baseline(n)
	for _, name := range topology.Names() {
		g := topology.MustBuild(name, n).Graph
		cf, err := canonicalForm(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !cf.EqualUnordered(base) {
			t.Fatalf("%s: canonical form differs from baseline", name)
		}
		// Scrambles canonicalize to the same graph.
		sg, _ := randnet.Scramble(rng, g)
		cf2, err := canonicalForm(sg)
		if err != nil {
			t.Fatal(err)
		}
		if !cf2.EqualUnordered(cf) {
			t.Fatalf("%s: scrambled canonical form differs", name)
		}
	}
	// Non-equivalent graphs are rejected.
	tail, _ := randnet.TailCycleBanyan(n)
	if _, err := canonicalForm(tail); err == nil {
		t.Fatal("canonical form of counterexample accepted")
	}
}

func BenchmarkCountAutomorphisms(b *testing.B) {
	g := topology.Baseline(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CountIsomorphisms(g, g); err != nil {
			b.Fatal(err)
		}
	}
}
