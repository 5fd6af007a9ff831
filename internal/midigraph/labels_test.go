package midigraph_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// labelPair runs BaselineLabels and the union-find reference on one
// graph, each on its own Analyzer and buffer.
type labelPair struct {
	a, ref     *midigraph.Analyzer
	got, want  []uint64
	refRejects int // graphs the reference itself rejects
}

func newLabelPair() *labelPair {
	return &labelPair{a: midigraph.NewAnalyzer(), ref: midigraph.NewAnalyzer()}
}

// verifies reports whether labels, flat by stage, are an isomorphism
// from g onto the Baseline.
func verifies(g *midigraph.Graph, labels []uint64) bool {
	n, h := g.Stages(), g.CellsPerStage()
	iso := equiv.Isomorphism{Maps: make([]perm.Perm, n)}
	for s := range iso.Maps {
		iso.Maps[s] = labels[s*h : (s+1)*h]
	}
	return iso.Verify(g, topology.Baseline(n)) == nil
}

// compare fails tb unless BaselineLabels certifies g exactly when the
// reference's labels verify, with the same labels, and returns whether
// they do.
func (p *labelPair) compare(tb testing.TB, name string, g *midigraph.Graph) bool {
	tb.Helper()
	if err := g.Validate(); err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	size := g.Stages() * g.CellsPerStage()
	p.got, p.want = slices.Grow(p.got[:0], size)[:size], slices.Grow(p.want[:0], size)[:size]
	labeled := p.a.BaselineLabels(g, p.got)
	refLabeled := p.ref.ReferenceBaselineLabels(g, p.want)
	want := refLabeled && verifies(g, p.want)
	if got := labeled && verifies(g, p.got); got != want {
		tb.Fatalf("%s: pairing labels certified=%t, reference labels certified=%t", name, got, want)
	}
	if !refLabeled {
		p.refRejects++
	}
	if want && !slices.Equal(p.got, p.want) {
		tb.Fatalf("%s: labels differ from the reference\n got %v\nwant %v", name, p.got, p.want)
	}
	return want
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

// relabeled is a seeded link-level relabeling of perms as a graph: new
// cell names and independently swapped outlinks and inlinks.
func relabeled(tb testing.TB, rng *rand.Rand, perms []perm.Perm) *midigraph.Graph {
	g, err := midigraph.FromLinkPerms(len(perms)+1, randnet.RelabelLinks(rng, perms))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// randomLinkPerms is a wiring of n stages from uniform link
// permutations.
func randomLinkPerms(tb testing.TB, rng *rand.Rand, n int) *midigraph.Graph {
	perms := make([]perm.Perm, n-1)
	for s := range perms {
		perms[s] = perm.Random(rng, 1<<uint(n))
	}
	g, err := midigraph.FromLinkPerms(n, perms)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestBaselineLabelsMatchReference holds the pairing labeler to the
// union-find labeler it replaced: it must certify exactly the graphs
// whose reference labels verify against the Baseline, with the same
// labels. The graphs are every catalog network at n = 2..14 as built
// and under seeded link-level relabelings, the tail cycle relabeled,
// relabeled Baselines with a double arc, random link permutations, and
// random wirings at n <= 6, where a component often meets a second
// mate.
func TestBaselineLabelsMatchReference(t *testing.T) {
	p := newLabelPair()
	for n := 2; n <= 14; n++ {
		nets, err := topology.BuildAll(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(n), 37))
		for _, nw := range nets {
			equivalent := p.compare(t, fmt.Sprintf("%s n=%d", nw.Name, n), nw.Graph)
			for seed := 0; seed < 3; seed++ {
				name := fmt.Sprintf("%s n=%d relabeling %d", nw.Name, n, seed)
				if !p.compare(t, name, relabeled(t, rng, nw.LinkPerms)) {
					equivalent = false
				}
			}
			if !equivalent {
				t.Fatalf("%s n=%d or a relabeling of it is not certified", nw.Name, n)
			}
		}
		if n >= 3 {
			tail, err := randnet.TailCycleLinkPerms(n)
			if err != nil {
				t.Fatal(err)
			}
			p.compare(t, fmt.Sprintf("tail cycle n=%d", n), relabeled(t, rng, tail))
		}
		if n > 10 {
			continue
		}
		base := topology.Baseline(n)
		for s := 0; s < n-1; s++ {
			x := uint32(rng.IntN(base.CellsPerStage()))
			p.compare(t, fmt.Sprintf("double arc n=%d stage %d", n, s), doubleArc(relabeled(t, rng, topology.BaselineLinkPerms(n)), s, x))
		}
		for seed := 0; seed < 4; seed++ {
			p.compare(t, fmt.Sprintf("random link perms n=%d seed %d", n, seed), randomLinkPerms(t, rng, n))
		}
		for seed := 0; n <= 6 && seed < 512; seed++ {
			p.compare(t, fmt.Sprintf("random wiring n=%d seed %d", n, seed), randnet.RandomValidGraph(rng, n))
		}
	}
	if p.refRejects == 0 {
		t.Error("the reference rejected no graph, so no rejection was compared")
	}
}

// FuzzBaselineLabels compares the pairing labeler with the union-find
// reference on graphs built from the fuzz bytes, three bytes per graph:
// stage count n = 2..8, a shape and a seed. The shapes are a random
// wiring, a relabeled Baseline, the same given a double arc, and the
// tail cycle relabeled. One Analyzer per side serves every graph
// whatever its size.
func FuzzBaselineLabels(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{6, 1, 3, 2, 2, 9})
	f.Add([]byte{5, 3, 1, 6, 2, 4, 1, 1, 0})
	f.Add([]byte{3, 1, 7, 6, 3, 1, 4, 3, 2, 6, 0, 5})
	f.Add([]byte{50, 48, 173}) // a component of W_1 meets a second mate
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newLabelPair()
		for k := 0; k+3 <= len(data) && k < 12; k += 3 {
			n, shape, seed := 2+int(data[k])%7, data[k+1]%4, uint64(data[k+2])
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			var g *midigraph.Graph
			switch shape {
			case 0:
				g = randnet.RandomValidGraph(rng, n)
			case 1:
				g = relabeled(t, rng, topology.BaselineLinkPerms(n))
			case 2:
				g = relabeled(t, rng, topology.BaselineLinkPerms(n))
				g = doubleArc(g, rng.IntN(n-1), uint32(rng.IntN(g.CellsPerStage())))
			case 3:
				if n < 3 {
					n = 3
				}
				tail, err := randnet.TailCycleLinkPerms(n)
				if err != nil {
					t.Fatal(err)
				}
				g = relabeled(t, rng, tail)
			}
			p.compare(t, fmt.Sprintf("n=%d shape %d seed %d", n, shape, seed), g)
		}
	})
}
