package equiv

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// Property (testing/quick): for random seeds, a scrambled classical
// network still canonicalizes onto the Baseline and the composed
// isomorphism verifies. This exercises the whole positive pipeline.
func TestQuickScrambleCanonicalize(t *testing.T) {
	names := topology.Names()
	f := func(seed uint64, nRaw, nameRaw uint8) bool {
		n := int(nRaw%5) + 2 // 2..6
		rng := rand.New(rand.NewPCG(seed, 0))
		g := topology.MustBuild(names[int(nameRaw)%len(names)], n).Graph
		sg, _ := randnet.Scramble(rng, g)
		iso, err := IsoToBaseline(sg)
		if err != nil {
			return false
		}
		return iso.Verify(sg, topology.Baseline(n)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): IsoBetween is symmetric — the inverse of the
// returned isomorphism verifies in the opposite direction.
func TestQuickIsoBetweenSymmetric(t *testing.T) {
	names := topology.Names()
	f := func(seed uint64, aRaw, bRaw uint8) bool {
		n := 4
		a := topology.MustBuild(names[int(aRaw)%len(names)], n).Graph
		b := topology.MustBuild(names[int(bRaw)%len(names)], n).Graph
		iso, err := IsoBetween(a, b)
		if err != nil {
			return false
		}
		return iso.Inverse().Verify(b, a) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Check never panics and is consistent on arbitrary valid
// graphs (the predicate equals the conjunction of its parts).
func TestQuickCheckConsistency(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%5) + 2
		rng := rand.New(rand.NewPCG(seed, 0))
		g := randnet.RandomValidGraph(rng, n)
		r := Check(g)
		banyan, _ := g.IsBanyan()
		if r.Banyan != banyan {
			return false
		}
		want := banyan
		for _, wr := range r.Prefix {
			if !wr.OK() {
				want = false
			}
		}
		for _, wr := range r.Suffix {
			if !wr.OK() {
				want = false
			}
		}
		return r.Equivalent() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: random valid graphs that happen to pass the characterization
// must admit a verified isomorphism (the theorem, fuzz-style); those
// that do not must be rejected by IsoToBaseline.
func TestQuickTheoremOnRandomGraphs(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%4) + 2
		rng := rand.New(rand.NewPCG(seed, 0))
		g := randnet.RandomValidGraph(rng, n)
		iso, err := IsoToBaseline(g)
		if Check(g).Equivalent() {
			return err == nil && iso.Verify(g, topology.Baseline(n)) == nil
		}
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// FuzzCertifyMatchesCheck checks the invariant the theorem gives every
// caller of Certify: on graphs built from the fuzz bytes, Certify(g,
// nil) agrees with the characterization, Check(g).Equivalent(), and
// every map it certifies passes Isomorphism.Verify against the
// Baseline. Three bytes make one graph: stage count n = 2..8, a shape
// and a seed. The shapes are a random wiring, a relabeled Baseline, the
// same given a double arc, and the tail cycle relabeled.
//
// A certified map is then folded: clearing the low n-1-s bits of every
// stage-s label is an endomorphism of the Baseline, so the folded
// labels still carry every arc of g onto a Baseline arc, but stage 0
// all maps to 0. verifyArcs must reject them for that alone, as Verify
// does.
func FuzzCertifyMatchesCheck(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{6, 1, 3, 2, 2, 9})
	f.Add([]byte{5, 3, 1, 6, 2, 4, 1, 1, 0})
	f.Add([]byte{3, 1, 7, 6, 3, 1, 4, 3, 2, 6, 0, 5})
	f.Add([]byte{50, 48, 173})
	f.Fuzz(func(t *testing.T, data []byte) {
		for k := 0; k+3 <= len(data) && k < 12; k += 3 {
			n, shape, seed := 2+int(data[k])%7, data[k+1]%4, uint64(data[k+2])
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			var g *midigraph.Graph
			switch shape {
			case 0:
				g = randnet.RandomValidGraph(rng, n)
			case 1:
				g = relabeledGraph(t, rng, topology.BaselineLinkPerms(n))
			case 2:
				g = relabeledGraph(t, rng, topology.BaselineLinkPerms(n))
				g = doubleArc(g, rng.IntN(n-1), uint32(rng.IntN(g.CellsPerStage())))
			case 3:
				n = max(n, 3)
				tail, err := randnet.TailCycleLinkPerms(n)
				if err != nil {
					t.Fatal(err)
				}
				g = relabeledGraph(t, rng, tail)
			}
			h := g.CellsPerStage()
			var iso Isomorphism
			certified := Certify(g, func(labels []uint64) {
				for s := 0; s < n; s++ {
					iso.Maps = append(iso.Maps, slices.Clone(labels[s*h:(s+1)*h]))
				}
			})
			if want := Check(g).Equivalent(); certified != want {
				t.Fatalf("n=%d shape %d seed %d: Certify %t, Check(g).Equivalent() %t", n, shape, seed, certified, want)
			}
			if !certified {
				continue
			}
			base := topology.Baseline(n)
			if err := iso.Verify(g, base); err != nil {
				t.Fatalf("n=%d shape %d seed %d: certified map: %v", n, shape, seed, err)
			}
			folded := Isomorphism{Maps: make([]perm.Perm, n)}
			for s, m := range iso.Maps {
				folded.Maps[s] = make(perm.Perm, h)
				for x, l := range m {
					folded.Maps[s][x] = l &^ (1<<uint(n-1-s) - 1)
				}
			}
			if newBuilder().verifyArcs(slices.Concat(folded.Maps...), g, base) || folded.Verify(g, base) == nil {
				t.Fatalf("n=%d shape %d seed %d: a folded map that is no bijection verified", n, shape, seed)
			}
		}
	})
}

// relabeledGraph is a seeded link-level relabeling of perms as a graph.
func relabeledGraph(tb testing.TB, rng *rand.Rand, perms []perm.Perm) *midigraph.Graph {
	g, err := midigraph.FromLinkPerms(len(perms)+1, randnet.RelabelLinks(rng, perms))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// doubleArc rewires node (s, x) of a copy of g so both of its arcs
// enter its f-child, handing that child's other in-arc to the freed
// g-child so every indegree stays 2.
func doubleArc(g *midigraph.Graph, s int, x uint32) *midigraph.Graph {
	g = g.Clone()
	f, c := g.Children(s, x)
	if f == c {
		return g
	}
	for z := uint32(0); z < uint32(g.CellsPerStage()); z++ {
		if z == x {
			continue
		}
		if zf, zc := g.Children(s, z); zf == f {
			g.SetChildren(s, z, c, zc)
			break
		} else if zc == f {
			g.SetChildren(s, z, zf, c)
			break
		}
	}
	g.SetChildren(s, x, f, f)
	return g
}
