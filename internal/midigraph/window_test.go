package midigraph

import (
	"math/rand/v2"
	"testing"

	"minequiv/internal/perm"
)

func TestBaselinePropertiesExact(t *testing.T) {
	// The Baseline network satisfies P(i,j) for EVERY window — the
	// strongest form, from which P(1,*) and P(*,n) follow.
	for n := 2; n <= 9; n++ {
		g := buildBaseline(t, n)
		for _, r := range g.CheckAllWindows() {
			if !r.OK {
				t.Errorf("n=%d: %v", n, r)
			}
		}
	}
}

func TestComponentsSingleStage(t *testing.T) {
	g := buildBaseline(t, 4)
	// A one-stage window has no arcs: every node is its own component.
	ids, count := g.Components(2, 2)
	if count != g.CellsPerStage() {
		t.Fatalf("single-stage components = %d, want %d", count, g.CellsPerStage())
	}
	seen := map[int32]bool{}
	for _, id := range ids[0] {
		if seen[id] {
			t.Fatal("repeated component id in single-stage window")
		}
		seen[id] = true
	}
}

func TestComponentsFullWindow(t *testing.T) {
	g := buildBaseline(t, 5)
	_, count := g.Components(0, g.Stages()-1)
	if count != 1 {
		t.Fatalf("whole baseline has %d components, want 1", count)
	}
}

func TestComponentIDsDense(t *testing.T) {
	g := buildBaseline(t, 5)
	ids, count := g.Components(1, 3)
	present := make([]bool, count)
	for _, stage := range ids {
		for _, id := range stage {
			if id < 0 || int(id) >= count {
				t.Fatalf("component id %d out of range [0,%d)", id, count)
			}
			present[id] = true
		}
	}
	for id, ok := range present {
		if !ok {
			t.Fatalf("component id %d unused", id)
		}
	}
}

func TestComponentsRespectArcs(t *testing.T) {
	// Every arc inside the window joins nodes of the same component; this
	// is the defining property, checked on a scrambled baseline.
	rng := rand.New(rand.NewPCG(2, 0))
	g := buildBaseline(t, 6)
	perms := make([]perm.Perm, g.Stages())
	for s := range perms {
		perms[s] = perm.Random(rng, g.CellsPerStage())
	}
	g, err := g.Relabel(perms)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1, 4
	ids, _ := g.Components(lo, hi)
	for s := lo; s < hi; s++ {
		for x := 0; x < g.CellsPerStage(); x++ {
			f, c := g.Children(s, uint32(x))
			if ids[s-lo][x] != ids[s-lo+1][f] || ids[s-lo][x] != ids[s-lo+1][c] {
				t.Fatalf("arc crosses components at stage %d node %d", s, x)
			}
		}
	}
}

func TestExpectedComponents(t *testing.T) {
	g := buildBaseline(t, 5) // n=5
	cases := []struct{ i, j, want int }{
		{1, 5, 1}, {1, 1, 16}, {2, 5, 2}, {1, 4, 2}, {3, 4, 8}, {2, 3, 8},
	}
	for _, c := range cases {
		if got := g.ExpectedComponents(c.i, c.j); got != c.want {
			t.Errorf("ExpectedComponents(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
	}
}

func TestPropertyPOneBased(t *testing.T) {
	g := buildBaseline(t, 4)
	if !g.PropertyP(1, 4) || !g.PropertyP(2, 4) || !g.PropertyP(1, 2) {
		t.Error("baseline P properties false")
	}
	defer func() {
		if recover() == nil {
			t.Error("PropertyP(0,2) did not panic (0-based misuse)")
		}
	}()
	g.PropertyP(0, 2)
}

func TestPrefixSuffixFamilies(t *testing.T) {
	g := buildBaseline(t, 6)
	pre := g.CheckPrefix()
	suf := g.CheckSuffix()
	if len(pre) != 6 || len(suf) != 6 {
		t.Fatalf("family sizes %d/%d, want 6/6", len(pre), len(suf))
	}
	if !AllOK(pre) || !AllOK(suf) {
		t.Error("baseline prefix/suffix violated")
	}
	// Prefix windows are (1,j).
	for idx, r := range pre {
		if r.I != 1 || r.J != idx+1 {
			t.Errorf("prefix window %d = (%d,%d)", idx, r.I, r.J)
		}
	}
	for idx, r := range suf {
		if r.I != idx+1 || r.J != 6 {
			t.Errorf("suffix window %d = (%d,%d)", idx, r.I, r.J)
		}
	}
}

// nonEquivalentBanyan builds the tail-cycle counterexample of DESIGN.md
// §5.5: a Baseline whose LAST connection is replaced by the 2h-cycle
// y -> {y, (y+1) mod h}. The prefix stages deliver, from any input node
// u, exactly the last-but-one-stage nodes of one parity, once each; the
// cycle then hits every output node exactly once (via y = z or y = z-1),
// so the graph stays Banyan. But the last two-stage window is a single
// cycle: one connected component instead of 2^(n-2), so P(n-1, n) — and
// with it P(*, n) — fails, and by the characterization the graph is not
// baseline-equivalent. Requires n >= 3 (for n = 2 the cycle IS K_{2,2}).
func nonEquivalentBanyan(t testing.TB, n int) *Graph {
	t.Helper()
	if n < 3 {
		t.Fatal("need n >= 3")
	}
	g := buildBaseline(t, n)
	h := uint32(g.CellsPerStage())
	for y := uint32(0); y < h; y++ {
		g.SetChildren(n-2, y, y, (y+1)%h)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("tail-cycle graph invalid: %v", err)
	}
	return g
}

func TestNonEquivalentBanyanProperties(t *testing.T) {
	for n := 3; n <= 8; n++ {
		g := nonEquivalentBanyan(t, n)
		// Banyan holds...
		if ok, v := g.IsBanyan(); !ok {
			t.Fatalf("n=%d: tail-cycle graph not Banyan: %v", n, v)
		}
		// ...the prefix family holds in full...
		if !AllOK(g.CheckPrefix()) {
			t.Fatalf("n=%d: prefix family unexpectedly violated", n)
		}
		// ...but P(n-1, n) fails with exactly one component.
		if got := g.ComponentCount(n-2, n-1); got != 1 {
			t.Fatalf("n=%d: last window has %d components, want 1", n, got)
		}
		if g.PropertyP(n-1, n) {
			t.Fatalf("n=%d: P(n-1,n) unexpectedly holds", n)
		}
		if AllOK(g.CheckSuffix()) {
			t.Fatalf("n=%d: suffix family unexpectedly holds", n)
		}
	}
}

func TestUnionFindBasics(t *testing.T) {
	uf := newUnionFind(5)
	if uf.count != 5 {
		t.Fatal("initial count wrong")
	}
	uf.union(0, 1)
	uf.union(3, 4)
	uf.union(1, 3)
	if uf.count != 2 {
		t.Fatalf("count = %d, want 2", uf.count)
	}
	if uf.find(0) != uf.find(4) || uf.find(2) == uf.find(0) {
		t.Fatal("find wrong")
	}
	uf.union(0, 4) // already joined: no change
	if uf.count != 2 {
		t.Fatal("redundant union changed count")
	}
}

func TestComponentStageTable(t *testing.T) {
	// For baseline suffix window (i..n), every component meets every
	// stage in the same number of nodes: 2^(n-1)/2^(i-1) — Fig 3's
	// uniform intersection counts.
	for n := 3; n <= 7; n++ {
		g := buildBaseline(t, n)
		for i := 1; i <= n; i++ {
			table := g.ComponentStageTable(i-1, n-1)
			wantComponents := 1 << uint(i-1)
			if len(table) != wantComponents {
				t.Fatalf("n=%d i=%d: %d components, want %d", n, i, len(table), wantComponents)
			}
			wantPerStage := g.CellsPerStage() / wantComponents
			for _, si := range table {
				for tIdx, cnt := range si.PerStage {
					if cnt != wantPerStage {
						t.Fatalf("n=%d i=%d comp %d stage-offset %d: |C∩V| = %d, want %d",
							n, i, si.Component, tIdx, cnt, wantPerStage)
					}
				}
			}
		}
	}
}

func TestWindowResultString(t *testing.T) {
	g := New(3)
	ok, bad := g.windowResult(1, 2, 2), g.windowResult(1, 2, 3)
	if !ok.OK || bad.OK {
		t.Errorf("OK = %t, %t for 2 and 3 components of 2 expected", ok.OK, bad.OK)
	}
	if got, want := ok.String(), "P(1,2): components=2 expected=2 ok"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if got, want := bad.String(), "P(1,2): components=3 expected=2 VIOLATED"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestComponentsPanicsOnBadWindow(t *testing.T) {
	g := buildBaseline(t, 3)
	for _, w := range [][2]int{{-1, 1}, {1, 3}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Components(%d,%d) did not panic", w[0], w[1])
				}
			}()
			g.Components(w[0], w[1])
		}()
	}
}

func BenchmarkComponentCountFull(b *testing.B) {
	g := buildBaseline(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ComponentCount(0, g.Stages()-1)
	}
}

func BenchmarkCheckPrefixSuffix(b *testing.B) {
	g := buildBaseline(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !AllOK(g.CheckPrefix()) || !AllOK(g.CheckSuffix()) {
			b.Fatal("baseline violated P")
		}
	}
}
