package equiv

import (
	"math/rand/v2"
	"sync"
	"testing"

	"minequiv/internal/midigraph"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// gatherTestGraphs builds a mixed population: the classical catalog, a
// scramble, the tail-cycle counterexample, and a random non-Banyan.
func gatherTestGraphs(t *testing.T, n int) []*midigraph.Graph {
	t.Helper()
	nets, err := topology.BuildAll(n)
	if err != nil {
		t.Fatal(err)
	}
	var gs []*midigraph.Graph
	for _, nw := range nets {
		gs = append(gs, nw.Graph)
	}
	// The PCG seed pair engine.NewRand(71, 0) derives; engine imports
	// sim, which imports this package, so the test cannot call it.
	rng := rand.New(rand.NewPCG(0xadf6110da440fe93, 0x476075d8e0f02675))
	scrambled, _ := randnet.Scramble(rng, gs[0])
	gs = append(gs, scrambled)
	tail, err := randnet.TailCycleBanyan(n)
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, tail, randnet.RandomValidGraph(rng, n))
	return gs
}

// TestPairwiseEquivalentMatchesSequential pins the parallel matrix to
// per-pair AreEquivalent for every worker count, including errors.
func TestPairwiseEquivalentMatchesSequential(t *testing.T) {
	gs := gatherTestGraphs(t, 5)
	want := make([][]bool, len(gs))
	for i := range gs {
		want[i] = make([]bool, len(gs))
		for j := range gs {
			eq, err := AreEquivalent(gs[i], gs[j])
			if err != nil {
				t.Fatalf("sequential AreEquivalent(%d,%d): %v", i, j, err)
			}
			want[i][j] = eq
		}
	}
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got, err := PairwiseEquivalent(gs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: matrix[%d][%d]=%v, sequential=%v", workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestPairwiseEquivalentOracleBound: a pair of non-equivalent graphs
// beyond the oracle bound must surface AreEquivalent's error, for any
// worker count.
func TestPairwiseEquivalentOracleBound(t *testing.T) {
	n := OracleMaxStages + 1
	a, err := randnet.TailCycleBanyan(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := randnet.TailCycleBanyan(n)
	if err != nil {
		t.Fatal(err)
	}
	wantEq, wantErr := AreEquivalent(a, b)
	if wantErr == nil || wantEq {
		t.Fatalf("expected oracle-bound error from sequential path, got eq=%v err=%v", wantEq, wantErr)
	}
	for _, workers := range []int{1, 3} {
		if _, err := PairwiseEquivalent([]*midigraph.Graph{a, b}, workers); err == nil {
			t.Fatalf("workers=%d: expected oracle-bound error", workers)
		} else if err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, wantErr)
		}
	}
}

// TestPairwiseEquivalentMixedStages: differing stage counts are simply
// non-equivalent, never an error.
func TestPairwiseEquivalentMixedStages(t *testing.T) {
	gs := []*midigraph.Graph{
		topology.Baseline(4),
		topology.Baseline(5),
		topology.MustBuild(topology.NameOmega, 4).Graph,
	}
	got, err := PairwiseEquivalent(gs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][1] || got[1][0] || got[1][2] || got[2][1] {
		t.Fatal("graphs of different sizes reported equivalent")
	}
	if !got[0][2] || !got[2][0] {
		t.Fatal("baseline(4) and omega(4) must be equivalent")
	}
	for i := range gs {
		if !got[i][i] {
			t.Fatalf("diagonal [%d][%d] not true", i, i)
		}
	}
}

// TestForEachPairCoversAllPairsOnce: the shard loop must visit every
// unordered pair exactly once regardless of worker count.
func TestForEachPairCoversAllPairsOnce(t *testing.T) {
	const k = 7
	for _, workers := range []int{1, 3, 16} {
		seen := make([][]int32, k)
		for i := range seen {
			seen[i] = make([]int32, k)
		}
		var mu sync.Mutex
		err := ForEachPair(k, workers, func(i, j int) error {
			mu.Lock()
			seen[i][j]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				want := int32(0)
				if j >= i {
					want = 1
				}
				if seen[i][j] != want {
					t.Fatalf("workers=%d: pair (%d,%d) visited %d times, want %d", workers, i, j, seen[i][j], want)
				}
			}
		}
	}
}
