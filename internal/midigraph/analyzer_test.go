package midigraph

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/perm"
)

// randomGraph builds an arbitrary valid MI-digraph from random link
// permutations — usually non-Banyan, often with parallel arcs, which is
// exactly what the sweep must handle without assuming any property.
func randomGraph(t testing.TB, rng *rand.Rand, n int) *Graph {
	t.Helper()
	perms := make([]perm.Perm, n-1)
	for s := range perms {
		perms[s] = perm.Random(rng, 1<<uint(n))
	}
	g, err := FromLinkPerms(n, perms)
	if err != nil {
		t.Fatalf("FromLinkPerms: %v", err)
	}
	return g
}

// TestAnalyzerMatchesNaive pins the sweep recurrence against the naive
// per-window union-find on random graphs: every window's count, the
// family sweeps, and the full table must agree exactly.
func TestAnalyzerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 0))
	a := NewAnalyzer()
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(6)
		g := randomGraph(t, rng, n)
		for lo := 0; lo < n; lo++ {
			counts := a.SweepCounts(g, lo, nil)
			for hi := lo; hi < n; hi++ {
				want := g.ComponentCountNaive(lo, hi)
				if counts[hi-lo] != want {
					t.Fatalf("n=%d window [%d,%d]: sweep=%d naive=%d", n, lo, hi, counts[hi-lo], want)
				}
				if got := a.ComponentCount(g, lo, hi); got != want {
					t.Fatalf("n=%d window [%d,%d]: analyzer slow path=%d naive=%d", n, lo, hi, got, want)
				}
			}
		}
		suffix := a.SuffixSweepCounts(g, nil)
		for i := 0; i < n; i++ {
			if want := g.ComponentCountNaive(i, n-1); suffix[i] != want {
				t.Fatalf("n=%d suffix [%d,%d]: sweep=%d naive=%d", n, i, n-1, suffix[i], want)
			}
		}
		all := a.CheckAllWindows(g, nil)
		naive := g.CheckAllWindowsNaive()
		if len(all) != len(naive) {
			t.Fatalf("window table lengths differ: %d vs %d", len(all), len(naive))
		}
		for k := range all {
			if all[k] != naive[k] {
				t.Fatalf("window table entry %d differs: %+v vs %+v", k, all[k], naive[k])
			}
		}
	}
}

// TestAnalyzerComponentsMatchGraph pins the id assignment
// Graph.Components runs on the pooled Analyzer's flat root table to the
// documented contract: dense ids in first-seen order, constant along
// every arc of the window, as many as the naive count.
func TestAnalyzerComponentsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.IntN(5)
		g := randomGraph(t, rng, n)
		lo := rng.IntN(n)
		hi := lo + rng.IntN(n-lo)
		ids, count := g.Components(lo, hi)
		if want := g.ComponentCountNaive(lo, hi); count != want {
			t.Fatalf("count=%d naive=%d", count, want)
		}
		// Dense, first-seen order: scanning stages then labels, each id
		// must first appear as exactly the previous maximum plus one.
		next := int32(0)
		for t2 := range ids {
			for _, id := range ids[t2] {
				if id < 0 || id >= int32(count) {
					t.Fatalf("id %d out of range [0,%d)", id, count)
				}
				if id == next {
					next++
				} else if id > next {
					t.Fatalf("id %d seen before ids < %d", id, id)
				}
			}
		}
		if next != int32(count) {
			t.Fatalf("saw %d distinct ids, count=%d", next, count)
		}
		for s := lo; s < hi; s++ {
			for x := 0; x < g.CellsPerStage(); x++ {
				f, c := g.Children(s, uint32(x))
				if id := ids[s-lo][x]; ids[s+1-lo][f] != id || ids[s+1-lo][c] != id {
					t.Fatalf("arc out of (%d,%d) crosses components", s, x)
				}
			}
		}
	}
}

// TestAnalyzerReuseAcrossSizes verifies one Analyzer can serve graphs of
// different shapes back to back (the pool relies on this).
func TestAnalyzerReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 0))
	a := NewAnalyzer()
	for _, n := range []int{6, 3, 5, 2, 7, 4} {
		g := randomGraph(t, rng, n)
		counts := a.SweepCounts(g, 0, a.counts)
		for hi := 0; hi < n; hi++ {
			if want := g.ComponentCountNaive(0, hi); counts[hi] != want {
				t.Fatalf("n=%d prefix hi=%d: sweep=%d naive=%d", n, hi, counts[hi], want)
			}
		}
	}
}

// TestAnalyzerZeroAlloc pins the steady-state allocation contract of the
// sweep core and the Banyan verdict: reused buffers, zero allocations.
func TestAnalyzerZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 0))
	g := randomGraph(t, rng, 8)
	base := buildBaseline(t, 9)
	a := NewAnalyzer()
	buf := a.CheckAllWindows(g, nil)
	counts := a.SweepCounts(g, 0, nil)
	a.Banyan(base)
	allocs := testing.AllocsPerRun(20, func() {
		buf = a.CheckAllWindows(g, buf)
		counts = a.SweepCounts(g, 0, counts)
		_ = a.ComponentCount(g, 2, 5)
		if !a.Banyan(base) {
			t.Fatal("baseline not Banyan")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Analyzer allocations: got %v, want 0", allocs)
	}
}
