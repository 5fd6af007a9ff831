package route

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/topology"
)

// randomBanyanBPCStages samples BPC stages whose underlying thetas form a
// Banyan PIPID network, with random complement masks.
func randomBanyanBPCStages(t testing.TB, rng *rand.Rand, n int) []pipid.BPC {
	t.Helper()
	for try := 0; try < 2000; try++ {
		stages := make([]pipid.BPC, n-1)
		ok := true
		for s := range stages {
			theta := pipid.Random(rng, n)
			if theta.PortSource() == 0 {
				ok = false
				break
			}
			b, err := pipid.NewBPC(theta, rng.Uint64()&bitops.Mask(n))
			if err != nil {
				t.Fatal(err)
			}
			stages[s] = b
		}
		if !ok {
			continue
		}
		// Banyan check on the induced cell graph.
		lps := make([]perm.Perm, n-1)
		for s, st := range stages {
			lps[s] = st.ToPerm()
		}
		g, err := midigraph.FromLinkPerms(n, lps)
		if err != nil {
			continue
		}
		if banyan, _ := g.IsBanyan(); banyan {
			return stages
		}
	}
	t.Fatal("no Banyan BPC network found")
	return nil
}

func TestBPCRouterMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 5; trial++ {
			stages := randomBanyanBPCStages(t, rng, n)
			r, err := NewBPCRouter(stages)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			lps := make([]perm.Perm, n-1)
			for s, st := range stages {
				lps[s] = st.ToPerm()
			}
			dp, err := NewFaultyRouter(lps, nil)
			if err != nil {
				t.Fatal(err)
			}
			N := uint64(r.N())
			for src := uint64(0); src < N; src++ {
				for dst := uint64(0); dst < N; dst++ {
					pt, err := r.Route(src, dst)
					if err != nil {
						t.Fatalf("n=%d (%d,%d): %v", n, src, dst, err)
					}
					pd, err := dp.Route(src, dst)
					if err != nil {
						t.Fatalf("n=%d (%d,%d): dp: %v", n, src, dst, err)
					}
					if !PathsEqual(pt, pd) {
						t.Fatalf("n=%d (%d,%d): paths differ", n, src, dst)
					}
				}
			}
		}
	}
}

func TestBPCRouterZeroMaskEqualsPlain(t *testing.T) {
	// With all-zero masks the BPC router must agree with the PIPID
	// router exactly, including tag positions.
	for _, name := range topology.Names() {
		nw := topology.MustBuild(name, 4)
		plain, err := NewRouter(nw.IndexPerms)
		if err != nil {
			t.Fatal(err)
		}
		stages := make([]pipid.BPC, len(nw.IndexPerms))
		for s, th := range nw.IndexPerms {
			stages[s] = pipid.BPC{Theta: th}
		}
		bpc, err := NewBPCRouter(stages)
		if err != nil {
			t.Fatal(err)
		}
		for s := range plain.TagPositions() {
			if plain.TagPositions()[s] != bpc.TagPositions()[s] {
				t.Fatalf("%s: tag positions differ at stage %d", name, s)
			}
		}
		for src := uint64(0); src < uint64(plain.N()); src += 3 {
			for dst := uint64(0); dst < uint64(plain.N()); dst += 5 {
				pp, err1 := plain.Route(src, dst)
				pb, err2 := bpc.Route(src, dst)
				if err1 != nil || err2 != nil || !PathsEqual(pp, pb) {
					t.Fatalf("%s (%d,%d): plain and zero-mask BPC differ", name, src, dst)
				}
			}
		}
	}
}

func TestBPCRouterAllPairs(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	stages := randomBanyanBPCStages(t, rng, 5)
	r, err := NewBPCRouter(stages)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := r.VerifyAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if pairs != 32*32 {
		t.Fatalf("pairs = %d", pairs)
	}
}

func TestBPCRouterRejectsDegenerate(t *testing.T) {
	n := 3
	stages := []pipid.BPC{
		{Theta: pipid.Identity(n), Mask: 0b101},
		{Theta: pipid.PerfectShuffle(n)},
	}
	if _, err := NewBPCRouter(stages); err == nil {
		t.Fatal("degenerate BPC network accepted (masks cannot fix double links)")
	}
	// Width mismatch.
	bad := []pipid.BPC{{Theta: pipid.Identity(2)}, {Theta: pipid.Identity(3)}}
	if _, err := NewBPCRouter(bad); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestBPCRouterRangeErrors(t *testing.T) {
	stages := []pipid.BPC{
		{Theta: pipid.PerfectShuffle(3), Mask: 0b010},
		{Theta: pipid.PerfectShuffle(3), Mask: 0b001},
	}
	r, err := NewBPCRouter(stages)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(8, 0); err == nil {
		t.Error("src out of range accepted")
	}
	if _, err := r.Route(0, 8); err == nil {
		t.Error("dst out of range accepted")
	}
}

func BenchmarkBPCRouteAllPairs(b *testing.B) {
	stages := make([]pipid.BPC, 7)
	for s := range stages {
		stages[s] = pipid.BPC{Theta: pipid.PerfectShuffle(8), Mask: uint64(s * 13 % 256)}
	}
	r, err := NewBPCRouter(stages)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.VerifyAllPairs(); err != nil {
			b.Fatal(err)
		}
	}
}
