package route

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/topology"
)

func routersFor(t testing.TB, name string, n int) (*Router, *FaultyRouter) {
	t.Helper()
	nw := topology.MustBuild(name, n)
	r, err := NewRouter(nw.IndexPerms)
	if err != nil {
		t.Fatalf("%s n=%d: %v", name, n, err)
	}
	dp, err := NewFaultyRouter(nw.LinkPerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, dp
}

func TestOmegaTagPositions(t *testing.T) {
	// Classic result: Omega consumes destination bits most significant
	// first: stage s reads bit n-1-s.
	for n := 2; n <= 8; n++ {
		tags, err := TagPositions(topology.MustBuild(topology.NameOmega, n).IndexPerms)
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range tags {
			if p != n-1-s {
				t.Fatalf("n=%d: omega stage %d tag %d, want %d", n, s, p, n-1-s)
			}
		}
	}
}

func TestTagVsDPAllNetworks(t *testing.T) {
	// The closed-form tag router and the reachability router must agree
	// on every pair for every catalog network.
	for n := 2; n <= 6; n++ {
		for _, name := range topology.Names() {
			r, dp := routersFor(t, name, n)
			N := r.N()
			for src := 0; src < N; src++ {
				for dst := 0; dst < N; dst++ {
					pt, err := r.Route(src, dst)
					if err != nil {
						t.Fatalf("%s n=%d (%d,%d): tag: %v", name, n, src, dst, err)
					}
					pd, err := dp.Route(src, dst)
					if err != nil {
						t.Fatalf("%s n=%d (%d,%d): dp: %v", name, n, src, dst, err)
					}
					if !pathsEqual(pt, pd) {
						t.Fatalf("%s n=%d (%d,%d): tag and DP paths differ:\n%v\nvs\n%v",
							name, n, src, dst, pt, pd)
					}
				}
			}
		}
	}
}

func TestPathShape(t *testing.T) {
	r, _ := routersFor(t, topology.NameBaseline, 5)
	p, err := r.Route(11, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hops) != 5 {
		t.Fatalf("path has %d steps, want 5", len(p.Hops))
	}
	if p.Hops[0].Cell != 11>>1 || p.Hops[0].InPort != 11&1 {
		t.Fatal("path does not start at source terminal")
	}
	last := p.Hops[len(p.Hops)-1]
	if last.Cell != 23>>1 || last.OutPort != 23&1 {
		t.Fatal("path does not end at destination terminal")
	}
	// Consecutive steps must be linked by the stage permutations.
	nw := topology.MustBuild(topology.NameBaseline, 5)
	for i := 0; i+1 < len(p.Hops); i++ {
		out := p.Hops[i].Cell<<1 | p.Hops[i].OutPort
		in := int(nw.LinkPerms[i].Apply(uint64(out)))
		if in>>1 != p.Hops[i+1].Cell || in&1 != p.Hops[i+1].InPort {
			t.Fatalf("step %d -> %d not consistent with link permutation", i, i+1)
		}
	}
}

func TestVerifyAllPairs(t *testing.T) {
	for _, name := range topology.Names() {
		r, _ := routersFor(t, name, 5)
		pairs, err := r.VerifyAllPairs()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pairs != 32*32 {
			t.Fatalf("%s: %d pairs", name, pairs)
		}
	}
}

func TestRouterRejectsDegenerate(t *testing.T) {
	// A stage with theta fixing position 0 overwrites its own choice:
	// routing must refuse (Fig 5 network).
	n := 3
	thetas := []pipid.IndexPerm{pipid.Identity(n), pipid.PerfectShuffle(n)}
	if _, err := TagPositions(thetas); err == nil {
		t.Fatal("degenerate network accepted")
	}
	// Wrong widths rejected.
	if _, err := TagPositions([]pipid.IndexPerm{pipid.Identity(2), pipid.Identity(3)}); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestRouteRangeErrors(t *testing.T) {
	r, dp := routersFor(t, topology.NameOmega, 3)
	if _, err := r.Route(8, 0); err == nil {
		t.Error("src out of range accepted")
	}
	if _, err := r.Route(0, 8); err == nil {
		t.Error("dst out of range accepted")
	}
	if _, err := dp.Route(9, 0); err == nil {
		t.Error("dp src out of range accepted")
	}
}

func TestFaultyRouterIntactFailsOnUnreachable(t *testing.T) {
	// Two disjoint halves: identity link permutations keep a packet in
	// its source cell pair forever.
	perms := []perm.Perm{perm.Identity(8), perm.Identity(8)}
	dp, err := NewFaultyRouter(perms, nil)
	if err != nil {
		t.Fatal(err)
	}
	// From terminal 0 only terminals 0,1 are reachable.
	if _, err := dp.Route(0, 1); err != nil {
		t.Errorf("reachable pair rejected: %v", err)
	}
	// The intact fabric reports plain "no path"; "fault-free" is for
	// fault states only.
	const want = "route: no path from 0 to 5 (stuck at stage 0 cell 0)"
	if _, err := dp.Route(0, 5); err == nil || err.Error() != want {
		t.Errorf("unreachable pair: err %v, want %q", err, want)
	}
}

func TestRealizedPermutationsAdmissible(t *testing.T) {
	// Any permutation realized by explicit switch settings is admissible,
	// on every catalog network; and distinct settings realize distinct
	// permutations (Banyan property at the terminal level).
	rng := rand.New(rand.NewPCG(7, 0))
	for _, name := range topology.Names() {
		r, _ := routersFor(t, name, 4)
		h := r.N() / 2
		seen := map[string]bool{}
		for trial := 0; trial < 30; trial++ {
			settings := make([][]uint64, 4)
			for s := range settings {
				settings[s] = make([]uint64, h)
				for c := range settings[s] {
					settings[s][c] = uint64(rng.IntN(2))
				}
			}
			pi, err := r.realizedPermutation(settings)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ok, err := r.admissible(pi)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s: realized permutation %v not admissible", name, pi)
			}
			seen[pi.String()] = true
		}
		if len(seen) < 25 {
			t.Errorf("%s: only %d distinct permutations from 30 random settings", name, len(seen))
		}
	}
	// Shape errors.
	r, _ := routersFor(t, topology.NameOmega, 3)
	if _, err := r.realizedPermutation(nil); err == nil {
		t.Error("nil settings accepted")
	}
	if _, err := r.realizedPermutation([][]uint64{{0}, {0}, {0}}); err == nil {
		t.Error("short stage settings accepted")
	}
}

func TestOmegaIdentityBlockedInThisModel(t *testing.T) {
	// In the MI-digraph terminal model (no input shuffle — I/O wiring is
	// invisible to topological equivalence), inputs 2c and 2c+1 share
	// cell c, and under identity traffic their destinations agree on the
	// first tag bit: Omega blocks the identity here. This differs from
	// textbook statements that assume the extra input shuffle; the count
	// of admissible permutations (2^#switches) is wiring-invariant.
	r, _ := routersFor(t, topology.NameOmega, 3)
	ok, err := r.admissible(perm.Identity(r.N()))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("identity unexpectedly admissible for omega in the direct-attachment model")
	}
}

func TestOmegaBlocksSomePermutation(t *testing.T) {
	// Banyan networks cannot realize all permutations in one pass; find
	// a blocked one for Omega N=8 (bit-reversal of 3 bits is the classic
	// non-admissible example for Omega... verify by search to be safe).
	_, dp := routersFor(t, topology.NameOmega, 3)
	adm, total, err := dp.CountAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	if total != 40320 { // 8!
		t.Fatalf("total = %d, want 40320", total)
	}
	// Exactly 2^(#switches) = 2^(4*3) = 4096 admissible permutations.
	if adm != 4096 {
		t.Fatalf("admissible = %d, want 4096", adm)
	}
}

func TestCountAdmissibleMatchesSwitchCount(t *testing.T) {
	// The 2^(switches) law holds for every classical network at N=4:
	// 2^(2*2) = 16 of 24 permutations. The reachability router's count
	// must also equal the tag router's conflict-free count.
	var all []perm.Perm
	for code := 0; code < 4*4*4*4; code++ {
		pi := perm.Perm{uint64(code & 3), uint64(code >> 2 & 3), uint64(code >> 4 & 3), uint64(code >> 6)}
		if pi.Validate() == nil {
			all = append(all, pi)
		}
	}
	for _, name := range topology.Names() {
		r, dp := routersFor(t, name, 2)
		adm, total, err := dp.CountAdmissible()
		if err != nil {
			t.Fatal(err)
		}
		if total != 24 || adm != 16 {
			t.Errorf("%s: adm/total = %d/%d, want 16/24", name, adm, total)
		}
		tagAdm := uint64(0)
		for _, pi := range all {
			ok, err := r.admissible(pi)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				tagAdm++
			}
		}
		if tagAdm != adm || uint64(len(all)) != total {
			t.Errorf("%s: tag router admits %d of %d, reachability router %d of %d", name, tagAdm, len(all), adm, total)
		}
	}
	// Oversized enumeration rejected.
	_, dp := routersFor(t, topology.NameOmega, 4)
	if _, _, err := dp.CountAdmissible(); err == nil {
		t.Error("N=16 enumeration accepted")
	}
}

func TestConflictDetectionDetail(t *testing.T) {
	r, _ := routersFor(t, topology.NameOmega, 3)
	// Inputs 0 and 1 share cell 0; Omega's first tag is destination bit
	// 2, so sending them to destinations that agree on bit 2 must be
	// reported as a stage-0 conflict at cell 0.
	pi := perm.Perm{0, 1, 3, 2, 5, 4, 7, 6}
	cs, err := r.permutationConflicts(pi)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cs {
		if c.Stage == 0 && c.Cell == 0 && c.SrcA == 0 && c.SrcB == 1 {
			found = true
			if c.String() == "" {
				t.Error("empty conflict string")
			}
		}
	}
	if !found {
		t.Fatalf("conflict (0,1)@stage0 not reported: %v", cs)
	}
	// A realized permutation reports zero conflicts.
	h := r.N() / 2
	settings := make([][]uint64, 3)
	for s := range settings {
		settings[s] = make([]uint64, h)
		for c := range settings[s] {
			settings[s][c] = uint64((s + c) % 2)
		}
	}
	clean, err := r.realizedPermutation(settings)
	if err != nil {
		t.Fatal(err)
	}
	cs, err = r.permutationConflicts(clean)
	if err != nil || len(cs) != 0 {
		t.Fatalf("realized permutation has conflicts: %v %v", cs, err)
	}
	// Errors.
	if _, err := r.permutationConflicts(perm.Identity(4)); err == nil {
		t.Error("wrong-size permutation accepted")
	}
	if _, err := r.permutationConflicts(perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
		t.Error("non-bijection accepted")
	}
}

func TestRandomPermutationAdmissibilityAgreesWithSim(t *testing.T) {
	// Cross-check admissible against brute-force path overlap: pi is
	// admissible iff no two routed paths share an outlink.
	rng := rand.New(rand.NewPCG(1, 0))
	r, _ := routersFor(t, topology.NameBaseline, 4)
	for trial := 0; trial < 50; trial++ {
		pi := perm.Random(rng, r.N())
		ok, err := r.admissible(pi)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: collect (stage, cell, port) per input.
		used := map[[3]int]bool{}
		clash := false
		for src := 0; src < r.N(); src++ {
			p, err := r.Route(src, int(pi[src]))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range p.Hops {
				key := [3]int{st.Stage, st.Cell, st.OutPort}
				if used[key] {
					clash = true
				}
				used[key] = true
			}
		}
		if ok == clash {
			t.Fatalf("admissible=%v but clash=%v", ok, clash)
		}
	}
}
