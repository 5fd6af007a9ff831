package route

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/randnet"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// TestRandomPIPIDNetworksRoute ties §4 together end to end: random
// Banyan PIPID networks admit bit-directed routing whose paths agree
// with the reachability reference on every pair.
func TestRandomPIPIDNetworksRoute(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for n := 2; n <= 6; n++ {
		for trial := 0; trial < 3; trial++ {
			nw, err := randnet.PIPIDNetwork(rng, n, 2000)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			r, err := NewRouter(nw.IndexPerms)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, nw.Name, err)
			}
			dp, err := NewFaultyRouter(nw.LinkPerms, nil)
			if err != nil {
				t.Fatal(err)
			}
			N := r.N()
			step := 1
			if n >= 5 {
				step = 3 // sample pairs at larger sizes
			}
			for src := 0; src < N; src += step {
				for dst := 0; dst < N; dst += step {
					pt, err := r.Route(src, dst)
					if err != nil {
						t.Fatalf("n=%d (%d,%d): %v", n, src, dst, err)
					}
					pd, err := dp.Route(src, dst)
					if err != nil {
						t.Fatalf("n=%d (%d,%d): dp: %v", n, src, dst, err)
					}
					if !pathsEqual(pt, pd) {
						t.Fatalf("n=%d (%d,%d): paths differ", n, src, dst)
					}
				}
			}
		}
	}
}

// TestRouterRejectsNonBanyanPIPID: a PIPID cascade that repeats a
// butterfly is not Banyan; the tag construction must detect it.
func TestRouterRejectsNonBanyanPIPID(t *testing.T) {
	n := 4
	nw, err := topology.ButterflyCascade(n, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TagPositions(nw.IndexPerms); err != nil {
		t.Fatalf("valid cascade rejected: %v", err)
	}
	// Repeat beta_1 twice: destination bit 0 is set twice, bit 2 never —
	// collision in tag positions.
	bad := nw.IndexPerms
	bad[2] = bad[0]
	if _, err := TagPositions(bad); err == nil {
		t.Fatal("repeated butterfly accepted (not Banyan)")
	}
}

// TestRoutingAgreesWithSimulator: a single packet simulated through the
// fabric lands where the router says it should.
func TestRoutingAgreesWithSimulator(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 0))
	for _, name := range topology.Names() {
		nw := topology.MustBuild(name, 5)
		r, err := NewRouter(nw.IndexPerms)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sim.NewFabric(nw.LinkPerms)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			src := rng.IntN(f.N)
			dst := rng.IntN(f.N)
			if _, err := r.Route(src, dst); err != nil {
				t.Fatal(err)
			}
			dsts := make([]int, f.N)
			for i := range dsts {
				dsts[i] = -1
			}
			dsts[src] = dst
			res, err := f.NewWaveRunner().RunWave(dsts, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered != 1 {
				t.Fatalf("%s: lone packet (%d->%d) not delivered: %+v", name, src, dst, res)
			}
		}
	}
}
