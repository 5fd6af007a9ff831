package midigraph

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/perm"
)

func TestBaselineIsBanyan(t *testing.T) {
	for n := 2; n <= 10; n++ {
		g := buildBaseline(t, n)
		ok, v := g.IsBanyan()
		if !ok {
			t.Fatalf("n=%d: baseline not Banyan: %v", n, v)
		}
	}
}

func TestParallelArcsBreakBanyan(t *testing.T) {
	// Fig 5: a stage with double links cannot be Banyan. Build a 3-stage
	// graph whose middle connection doubles every arc.
	g := buildBaseline(t, 3)
	h := uint32(g.CellsPerStage())
	for y := uint32(0); y < h; y++ {
		// Double arc to a single child; pair consecutive nodes so
		// indegree stays 2.
		g.SetChildren(1, y, y^1, y^1)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("double-link graph should validate: %v", err)
	}
	ok, v := g.IsBanyan()
	if ok {
		t.Fatal("double-link graph reported Banyan")
	}
	if v == nil || v.Paths == 1 {
		t.Fatalf("violation should report a count != 1, got %+v", v)
	}
	if v.Error() == "" {
		t.Error("violation has empty error text")
	}
}

func TestZeroPathViolation(t *testing.T) {
	// A graph where some input cannot reach some output: two disjoint
	// column pairs. Stage connections map each pair onto itself.
	g := New(3)
	for y := uint32(0); y < 4; y++ {
		pairBase := y &^ 1
		g.SetChildren(0, y, pairBase, pairBase|1)
		g.SetChildren(1, y, pairBase, pairBase|1)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, v := g.IsBanyan()
	if ok {
		t.Fatal("disconnected graph reported Banyan")
	}
	if v.Paths != 0 && v.Paths != 2 {
		t.Fatalf("unexpected violation %+v", v)
	}
}

func TestBanyanInvariantUnderRelabel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	g := buildBaseline(t, 5)
	for trial := 0; trial < 10; trial++ {
		perms := make([]perm.Perm, g.Stages())
		for s := range perms {
			perms[s] = perm.Random(rng, g.CellsPerStage())
		}
		r, err := g.Relabel(perms)
		if err != nil {
			t.Fatal(err)
		}
		if ok, v := r.IsBanyan(); !ok {
			t.Fatalf("relabeled baseline not Banyan: %v", v)
		}
		// P properties are isomorphism-invariant too.
		if !AllOK(r.CheckPrefix()) || !AllOK(r.CheckSuffix()) {
			t.Fatal("relabeled baseline lost P properties")
		}
	}
}

func BenchmarkPathCountsFrom(b *testing.B) {
	g := buildBaseline(b, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PathCountsFrom(uint32(i % g.CellsPerStage()))
	}
}

// forceParallelArc rewires node (s, x) so both of its arcs enter its
// f-child, handing the displaced in-arc of that child to the freed
// g-child so every indegree stays 2.
func forceParallelArc(g *Graph, s int, x uint32) {
	f, c := g.Children(s, x)
	if f == c {
		return
	}
	row := g.children[s]
	for i, y := range row {
		if y == f && i != int(2*x) {
			row[i] = c
			break
		}
	}
	row[2*x+1] = f
}

// pairClosed wires stage s so each node pair {2k, 2k+1} feeds only
// itself, cutting every path between different pairs.
func pairClosed(g *Graph, s int) {
	for x := uint32(0); x < uint32(g.h); x++ {
		g.SetChildren(s, x, x&^1, x|1)
	}
}

// FuzzBanyanVerdict checks Analyzer.Banyan and IsBanyan against the
// path counts on graphs built from the fuzz bytes, three bytes per
// graph: stage count n = 2..8, a shape and a seed. The shapes are a
// random wiring, and a relabeled Baseline left intact, given one forced
// parallel arc, or given pair-closed stages that cut paths; a defect
// planted in a Banyan graph may touch only some 64-target blocks. The
// verdict must equal "every path count is 1", the witness the first
// (src, dst) pair in row-major order whose count is not 1, and one
// Analyzer serves every graph whatever its size.
func FuzzBanyanVerdict(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{6, 1, 3, 2, 2, 9})
	f.Add([]byte{5, 3, 1, 6, 2, 4, 1, 1, 0})
	f.Add([]byte{3, 1, 7, 6, 2, 1, 4, 3, 2, 6, 0, 5})
	f.Add([]byte{6, 2, 28}) // a parallel arc seen only by the second block
	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewAnalyzer()
		for k := 0; k+3 <= len(data) && k < 12; k += 3 {
			n, shape, seed := 2+int(data[k])%7, data[k+1]%4, uint64(data[k+2])
			rng := rand.New(rand.NewPCG(seed, uint64(k)))
			g := randomValidGraph(rng, n)
			if shape > 0 {
				perms := make([]perm.Perm, n)
				for s := range perms {
					perms[s] = perm.Random(rng, g.h)
				}
				g, _ = buildBaseline(t, n).Relabel(perms)
			}
			switch shape {
			case 2:
				forceParallelArc(g, rng.IntN(n-1), uint32(rng.IntN(g.h)))
			case 3:
				for s := 0; s < n-1; s++ {
					if seed>>uint(s)&1 == 1 {
						pairClosed(g, s)
					}
				}
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			var want *BanyanViolation
			for src := 0; src < g.h && want == nil; src++ {
				for dst, c := range g.PathCountsFrom(uint32(src)) {
					if c != 1 {
						want = &BanyanViolation{Src: uint32(src), Dst: uint32(dst), Paths: c}
						break
					}
				}
			}
			if got := a.Banyan(g); got != (want == nil) {
				t.Fatalf("n=%d shape %d: Analyzer.Banyan = %t, path counts say %t", n, shape, got, want == nil)
			}
			ok, v := g.IsBanyan()
			if ok != (want == nil) || (want != nil && (v == nil || *v != *want)) {
				t.Fatalf("n=%d shape %d: IsBanyan = %t, %+v; path counts say %+v", n, shape, ok, v, want)
			}
		}
	})
}
