package midigraph

import (
	"math/rand/v2"
	"strings"
	"testing"

	"minequiv/internal/perm"
)

// buildBaseline constructs the Baseline network without importing
// topology (which would be a cycle); the closed-form connection is small
// enough to restate here and is itself cross-validated in topology's
// tests against the paper's recursive definition.
func buildBaseline(t testing.TB, n int) *Graph {
	t.Helper()
	m := n - 1
	fs := make([]func(uint64) uint64, n-1)
	gs := make([]func(uint64) uint64, n-1)
	for s := 0; s < n-1; s++ {
		low := uint64(1)<<uint(m-s) - 1
		high := (uint64(1)<<uint(m) - 1) &^ low
		bit := uint64(1) << uint(m-1-s)
		fs[s] = func(x uint64) uint64 { return (x & high) | ((x & low) >> 1) }
		gs[s] = func(x uint64) uint64 { return (x&high | ((x & low) >> 1)) | bit }
	}
	g, err := FromChildFuncs(n, fs, gs)
	if err != nil {
		t.Fatalf("baseline build failed: %v", err)
	}
	return g
}

func TestNewShape(t *testing.T) {
	g := New(4)
	if g.Stages() != 4 || g.CellsPerStage() != 8 || g.LabelBits() != 3 || g.Terminals() != 16 {
		t.Fatalf("shape wrong: %d stages, %d cells, %d bits, %d terminals",
			g.Stages(), g.CellsPerStage(), g.LabelBits(), g.Terminals())
	}
	// Unset graph fails validation.
	if err := g.Validate(); err == nil {
		t.Error("unset graph validated")
	}
	for _, bad := range []int{0, -1, MaxStages + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestSetGetChildren(t *testing.T) {
	g := New(2)
	g.SetChildren(0, 0, 1, 0)
	g.SetChildren(0, 1, 0, 1)
	f, c := g.Children(0, 0)
	if f != 1 || c != 0 {
		t.Fatalf("Children(0,0) = %d,%d", f, c)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
}

func TestValidateDegrees(t *testing.T) {
	// Node with indegree 4 / another with 0.
	g := New(2)
	g.SetChildren(0, 0, 0, 0)
	g.SetChildren(0, 1, 0, 0)
	if err := g.Validate(); err == nil {
		t.Error("indegree-4 graph validated")
	}
	// Out-of-range child.
	g2 := New(2)
	g2.SetChildren(0, 0, 5, 0)
	g2.SetChildren(0, 1, 0, 1)
	if err := g2.Validate(); err == nil {
		t.Error("out-of-range child validated")
	}
	// Parallel arcs validate (they are legal MI-digraphs, Fig 5).
	g3 := New(2)
	g3.SetChildren(0, 0, 0, 0)
	g3.SetChildren(0, 1, 1, 1)
	if err := g3.Validate(); err != nil {
		t.Errorf("parallel-arc graph rejected: %v", err)
	}
	if !g3.HasParallelArcs() {
		t.Error("parallel arcs not detected")
	}
	if buildBaseline(t, 4).HasParallelArcs() {
		t.Error("baseline reported parallel arcs")
	}
}

func TestParents(t *testing.T) {
	g := buildBaseline(t, 4)
	// Check ParentTable against a full scan of the previous stage's
	// children for every node of stages 1..3.
	for s := 1; s < g.Stages(); s++ {
		table := g.ParentTable(s)
		scan := make([][]uint32, g.CellsPerStage())
		for p := uint32(0); p < uint32(g.CellsPerStage()); p++ {
			f, c := g.Children(s-1, p)
			scan[f] = append(scan[f], p)
			scan[c] = append(scan[c], p)
		}
		for x, ps := range scan {
			a, b := table[x][0], table[x][1]
			if len(ps) != 2 || !(ps[0] == a && ps[1] == b || ps[0] == b && ps[1] == a) {
				t.Fatalf("ParentTable disagrees with the children at (%d,%d): %v vs %v", s, x, table[x], ps)
			}
		}
	}
}

func TestCloneEqual(t *testing.T) {
	g := buildBaseline(t, 5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.SetChildren(0, 0, 0, 1)
	if g.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
	if g.Equal(buildBaseline(t, 4)) {
		t.Fatal("different sizes equal")
	}
}

func TestEqualUnordered(t *testing.T) {
	g := buildBaseline(t, 4)
	// Swap the (f,g) slots of every node: unordered-equal, not equal.
	sw := g.Clone()
	for s := 0; s < sw.Stages()-1; s++ {
		for x := uint32(0); x < uint32(sw.CellsPerStage()); x++ {
			f, c := sw.Children(s, x)
			sw.SetChildren(s, x, c, f)
		}
	}
	if g.Equal(sw) {
		t.Fatal("slot-swapped graph Equal")
	}
	if !g.EqualUnordered(sw) {
		t.Fatal("slot-swapped graph not EqualUnordered")
	}
	// A genuinely different graph is not EqualUnordered. (Baseline nodes
	// 0 and 1 are buddies with identical children, so use nodes 0 and 2,
	// whose g-children differ; swapping them preserves indegrees.)
	other := g.Clone()
	f0, c0 := other.Children(0, 0)
	f2, c2 := other.Children(0, 2)
	if c0 == c2 {
		t.Fatal("test premise wrong: nodes 0 and 2 share g-child")
	}
	other.SetChildren(0, 0, f0, c2)
	other.SetChildren(0, 2, f2, c0)
	if err := other.Validate(); err != nil {
		t.Fatalf("swapped graph invalid: %v", err)
	}
	if g.EqualUnordered(other) {
		t.Fatal("different graph EqualUnordered")
	}
}

func TestReverseInvolution(t *testing.T) {
	g := buildBaseline(t, 5)
	r := g.Reverse()
	if err := r.Validate(); err != nil {
		t.Fatalf("reverse invalid: %v", err)
	}
	// Reversing twice restores the digraph (up to slot order).
	rr := r.Reverse()
	if !g.EqualUnordered(rr) {
		t.Fatal("double reverse != original")
	}
	// Arc sets correspond: x->y in g iff y->x' position in r.
	n := g.Stages()
	for s := 0; s < n-1; s++ {
		for x := uint32(0); x < uint32(g.CellsPerStage()); x++ {
			f, c := g.Children(s, x)
			for _, y := range []uint32{f, c} {
				rf, rc := r.Children(n-2-s, y)
				if rf != x && rc != x {
					t.Fatalf("arc (%d,%d)->(%d,%d) missing in reverse", s, x, s+1, y)
				}
			}
		}
	}
}

func TestRelabelIsomorphic(t *testing.T) {
	g := buildBaseline(t, 4)
	rng := rand.New(rand.NewPCG(1, 0))
	perms := make([]perm.Perm, g.Stages())
	for s := range perms {
		perms[s] = perm.Random(rng, g.CellsPerStage())
	}
	r, err := g.Relabel(perms)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("relabeled graph invalid: %v", err)
	}
	// Adjacency transported: x->y in g iff perm(x)->perm(y) in r.
	for s := 0; s < g.Stages()-1; s++ {
		for x := uint32(0); x < uint32(g.CellsPerStage()); x++ {
			f, c := g.Children(s, x)
			rf, rc := r.Children(s, uint32(perms[s][x]))
			if rf != uint32(perms[s+1][f]) || rc != uint32(perms[s+1][c]) {
				t.Fatalf("relabel broke adjacency at (%d,%d)", s, x)
			}
		}
	}
	// Identity relabel is the identity.
	id := make([]perm.Perm, g.Stages())
	for s := range id {
		id[s] = perm.Identity(g.CellsPerStage())
	}
	same, err := g.Relabel(id)
	if err != nil || !g.Equal(same) {
		t.Fatal("identity relabel changed graph")
	}
	// Shape errors.
	if _, err := g.Relabel(perms[:2]); err == nil {
		t.Error("short perm list accepted")
	}
	bad := make([]perm.Perm, g.Stages())
	for s := range bad {
		bad[s] = perm.Identity(3)
	}
	if _, err := g.Relabel(bad); err == nil {
		t.Error("wrong-size perms accepted")
	}
}

func TestFromChildFuncsErrors(t *testing.T) {
	if _, err := FromChildFuncs(3, nil, nil); err == nil {
		t.Error("missing funcs accepted")
	}
	// Function returning out-of-range child.
	fs := []func(uint64) uint64{func(x uint64) uint64 { return 99 }}
	gs := []func(uint64) uint64{func(x uint64) uint64 { return 0 }}
	if _, err := FromChildFuncs(2, fs, gs); err == nil {
		t.Error("out-of-range child func accepted")
	}
	// Non-2-regular indegree rejected by the validation pass.
	fs = []func(uint64) uint64{func(x uint64) uint64 { return 0 }}
	gs = []func(uint64) uint64{func(x uint64) uint64 { return 0 }}
	if _, err := FromChildFuncs(2, fs, gs); err == nil {
		t.Error("indegree-4 construction accepted")
	}
}

func TestFromLinkPerms(t *testing.T) {
	// 2-stage network with identity link permutation: cell x connects to
	// cells of link labels 2x and 2x+1, i.e. children (x? ...). Identity:
	// outlink 2x -> inlink 2x -> cell x; outlink 2x+1 -> cell x: parallel!
	id := perm.Identity(4)
	g, err := FromLinkPerms(2, []perm.Perm{id})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasParallelArcs() {
		t.Error("identity link perm should give double links (Fig 5)")
	}
	// Shuffle on 4 links: outlink y -> rotate-left(y,2).
	sh, _ := perm.FromFunc(4, func(x uint64) uint64 { return ((x << 1) | (x >> 1)) & 3 })
	g2, err := FromLinkPerms(2, []perm.Perm{sh})
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0: outlinks 0,1 -> links 0,2 -> cells 0,1. No parallel arcs.
	f, c := g2.Children(0, 0)
	if f != 0 || c != 1 {
		t.Fatalf("shuffle children of 0 = %d,%d", f, c)
	}
	if g2.HasParallelArcs() {
		t.Error("shuffle stage has no double links")
	}
	// Errors: wrong count, wrong size, invalid permutation.
	if _, err := FromLinkPerms(3, []perm.Perm{id}); err == nil {
		t.Error("wrong perm count accepted")
	}
	if _, err := FromLinkPerms(2, []perm.Perm{perm.Identity(8)}); err == nil {
		t.Error("wrong perm size accepted")
	}
	if _, err := FromLinkPerms(2, []perm.Perm{{0, 0, 1, 2}}); err == nil {
		t.Error("non-bijection accepted")
	}
}

func TestString(t *testing.T) {
	g := New(2)
	g.SetChildren(0, 0, 0, 1)
	g.SetChildren(0, 1, 1, 0)
	s := g.String()
	if !strings.Contains(s, "stage 0:") || !strings.Contains(s, "0->(0,1)") {
		t.Errorf("String = %q", s)
	}
}

func TestChildSlice(t *testing.T) {
	g := buildBaseline(t, 3)
	row := g.ChildSlice(0)
	if len(row) != 2*g.CellsPerStage() {
		t.Fatalf("ChildSlice length %d", len(row))
	}
	for x := 0; x < g.CellsPerStage(); x++ {
		f, c := g.Children(0, uint32(x))
		if row[2*x] != f || row[2*x+1] != c {
			t.Fatalf("ChildSlice disagrees with Children at %d", x)
		}
	}
}

func TestBuddyStagePanicsOutOfRange(t *testing.T) {
	g := buildBaseline(t, 3)
	if !g.BuddyProperty() {
		t.Fatal("baseline should have buddy property")
	}
	defer func() {
		if recover() == nil {
			t.Error("BuddyStage out of range did not panic")
		}
	}()
	g.BuddyStage(2) // only stages 0..1 have connections for n=3
}
