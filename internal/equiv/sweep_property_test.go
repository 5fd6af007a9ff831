package equiv

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/midigraph"
	"minequiv/internal/randnet"
)

// TestSweepMatchesNaiveOnRandomGraphs is the property test the sweep
// rewrite is gated on: on >= 100 random graphs — Banyan
// independent-connection networks (the paper's objects), arbitrary
// valid MI-digraphs (usually non-Banyan, often with parallel arcs), and
// tail-cycle counterexamples — every per-window component count from
// the sweep Analyzer must equal the naive per-window union-find's.
func TestSweepMatchesNaiveOnRandomGraphs(t *testing.T) {
	// The PCG seed pair engine.NewRand(113, 0) derives (see
	// gatherTestGraphs).
	rng := rand.New(rand.NewPCG(0xf453df4dcab47cdc, 0xb2958f2964fa8f62))
	a := midigraph.NewAnalyzer()
	checked := 0
	check := func(g *midigraph.Graph, kind string) {
		t.Helper()
		n := g.Stages()
		sweep := a.CheckAllWindows(g, nil)
		naive := g.CheckAllWindowsNaive()
		if len(sweep) != n*(n+1)/2 || len(naive) != len(sweep) {
			t.Fatalf("%s n=%d: window table sizes %d/%d", kind, n, len(sweep), len(naive))
		}
		for k := range sweep {
			if sweep[k] != naive[k] {
				t.Fatalf("%s n=%d: window %d: sweep %+v, naive %+v", kind, n, k, sweep[k], naive[k])
			}
		}
		// The families the characterization actually consumes.
		for idx, w := range a.CheckPrefix(g, nil) {
			if want := g.ComponentCountNaive(0, idx); w.Got != want {
				t.Fatalf("%s n=%d: prefix %d: sweep=%d naive=%d", kind, n, idx, w.Got, want)
			}
		}
		for idx, w := range a.CheckSuffix(g, nil) {
			if want := g.ComponentCountNaive(idx, n-1); w.Got != want {
				t.Fatalf("%s n=%d: suffix %d: sweep=%d naive=%d", kind, n, idx, w.Got, want)
			}
		}
		checked++
	}

	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(5)
		g, _, err := randnet.IndependentBanyan(rng, n, 500)
		if err != nil {
			t.Fatal(err)
		}
		check(g, "independent-banyan")
	}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(6)
		check(randnet.RandomValidGraph(rng, n), "random-valid")
	}
	for n := 3; n <= 8; n++ {
		g, err := randnet.TailCycleBanyan(n)
		if err != nil {
			t.Fatal(err)
		}
		check(g, "tail-cycle")
		scrambled, _ := randnet.Scramble(rng, g)
		check(scrambled, "tail-cycle-scrambled")
	}
	if checked < 100 {
		t.Fatalf("property test covered %d graphs, want >= 100", checked)
	}
}
