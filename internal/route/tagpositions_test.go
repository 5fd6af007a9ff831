package route

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/equiv"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// tagVerdicts builds the PIPID network of one θ tuple and checks that
// three independent verdicts agree on it: TagPositions succeeds iff the
// MI-digraph is Banyan iff the paper's characterization calls it
// Baseline-equivalent. It returns the network, its schedule (nil when
// there is none) and whether it is Banyan.
func tagVerdicts(t testing.TB, thetas []pipid.IndexPerm) (topology.Network, []int, bool) {
	t.Helper()
	nw, err := topology.FromIndexPerms("theta-tuple", len(thetas)+1, thetas)
	if err != nil {
		t.Fatal(err)
	}
	tags, tagErr := TagPositions(thetas)
	banyan, _ := nw.Graph.IsBanyan()
	equivalent := equiv.IsBaselineEquivalent(nw.Graph)
	if (tagErr == nil) != banyan || banyan != equivalent {
		t.Fatalf("thetas %v: TagPositions err %v, IsBanyan %t, IsBaselineEquivalent %t", thetas, tagErr, banyan, equivalent)
	}
	return nw, tags, banyan
}

// TestTagPositionsIffBanyan checks the tag schedule against the
// theorem: over every θ tuple at n = 2..4 (2 + 36 + 13,824 tuples), and
// over a seeded sample at n = 5..8, a PIPID network has a schedule iff
// it is Banyan iff it is Baseline-equivalent.
func TestTagPositionsIffBanyan(t *testing.T) {
	// Banyan θ tuples per stage count.
	wantBanyan := map[int]int{2: 1, 3: 8, 4: 1296}
	tuples := 0
	for n := 2; n <= 4; n++ {
		all := pipid.All(n)
		idx := make([]int, n-1)
		banyan := 0
		for {
			thetas := make([]pipid.IndexPerm, n-1)
			for s, i := range idx {
				thetas[s] = all[i]
			}
			if _, _, ok := tagVerdicts(t, thetas); ok {
				banyan++
			}
			tuples++
			s := 0
			for ; s < len(idx); s++ {
				if idx[s]++; idx[s] < len(all) {
					break
				}
				idx[s] = 0
			}
			if s == len(idx) {
				break
			}
		}
		if banyan != wantBanyan[n] {
			t.Errorf("n=%d: %d Banyan θ tuples, want %d", n, banyan, wantBanyan[n])
		}
	}
	if tuples != 13862 {
		t.Fatalf("enumerated %d θ tuples, want 13862", tuples)
	}
	rng := rand.New(rand.NewPCG(5, 0))
	for n := 5; n <= 8; n++ {
		seen := map[bool]int{}
		for trial := 0; trial < 100; trial++ {
			thetas := make([]pipid.IndexPerm, n-1)
			for s := range thetas {
				thetas[s] = pipid.Random(rng, n)
			}
			_, _, ok := tagVerdicts(t, thetas)
			seen[ok]++
		}
		for trial := 0; trial < 3; trial++ {
			nw, err := randnet.PIPIDNetwork(rng, n, 2000)
			if err != nil {
				t.Fatal(err)
			}
			_, _, ok := tagVerdicts(t, nw.IndexPerms)
			seen[ok]++
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Errorf("n=%d: sample covers only one side (Banyan %d, not %d)", n, seen[true], seen[false])
		}
	}
}

// FuzzTagPositions draws random θ tuples at n = 2..8, half of them with
// no degenerate stage so that Banyan tuples come up often, and checks
// the three-way agreement of tagVerdicts. On a Banyan tuple the tag
// router's path for the fuzzed pair must equal the reachability
// router's.
func FuzzTagPositions(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(0), uint16(3))
	f.Add(uint8(2), uint64(7), uint16(5), uint16(9))
	f.Add(uint8(3), uint64(42), uint16(31), uint16(2))
	f.Add(uint8(6), uint64(1<<40+3), uint16(200), uint16(77))
	f.Fuzz(func(t *testing.T, nb uint8, seed uint64, src, dst uint16) {
		n := 2 + int(nb)%7
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		thetas := make([]pipid.IndexPerm, n-1)
		for s := range thetas {
			thetas[s] = pipid.Random(rng, n)
			for seed&1 == 1 && thetas[s].PortSource() == 0 {
				thetas[s] = pipid.Random(rng, n)
			}
		}
		nw, tags, banyan := tagVerdicts(t, thetas)
		if !banyan {
			return
		}
		oracle := &Router{n: n, thetas: thetas, tagPos: tags}
		dp, err := NewFaultyRouter(nw.LinkPerms, nil)
		if err != nil {
			t.Fatal(err)
		}
		N := dp.N()
		a, err := oracle.Route(int(src)%N, int(dst)%N)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dp.Route(int(src)%N, int(dst)%N)
		if err != nil {
			t.Fatal(err)
		}
		if !pathsEqual(a, b) {
			t.Fatalf("thetas %v pair (%d,%d): tag path %v, reachability path %v", thetas, a.Src, a.Dst, a.Hops, b.Hops)
		}
	})
}
