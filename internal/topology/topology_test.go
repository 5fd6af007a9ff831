package topology

import (
	"testing"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
)

// baselineRecursive builds the n-stage Baseline network exactly as the
// paper defines it: the subnetwork between stages 2 and n consists of two
// (n-1)-stage Baseline networks laid out top (labels with high bit 0) and
// bottom (high bit 1), and stage-1 nodes 2i and 2i+1 are both connected
// to the i-th node of each subnetwork. Slot 0 (the f-child) is the node
// in the top subnetwork.
func baselineRecursive(n int) *midigraph.Graph {
	g := midigraph.New(n)
	buildBaselineInto(g, 0, 0, n)
	return g
}

// buildBaselineInto writes an s-stage baseline into g occupying stages
// stage..stage+s-1, using labels base..base+2^(s-1)-1 at each stage.
func buildBaselineInto(g *midigraph.Graph, stage int, base uint32, s int) {
	if s == 1 {
		return // a single cell: no connection to build
	}
	half := uint32(1) << uint(s-2) // cells per stage of each subnetwork
	for i := uint32(0); i < half; i++ {
		top := base + i
		bottom := base + half + i
		g.SetChildren(stage, base+2*i, top, bottom)
		g.SetChildren(stage, base+2*i+1, top, bottom)
	}
	buildBaselineInto(g, stage+1, base, s-1)
	buildBaselineInto(g, stage+1, base+half, s-1)
}

// TestBaselineThreeWays is the anchor of the whole construction layer:
// the paper's recursive definition, the closed-form connection and the
// inverse-subshuffle link permutations must produce the identical
// digraph, including the (f,g) slot order.
func TestBaselineThreeWays(t *testing.T) {
	for n := 2; n <= 10; n++ {
		rec := baselineRecursive(n)
		conn := Baseline(n)
		lp, err := midigraph.FromLinkPerms(n, BaselineLinkPerms(n))
		if err != nil {
			t.Fatalf("n=%d: link-perm baseline failed: %v", n, err)
		}
		if !rec.Equal(conn) {
			t.Fatalf("n=%d: recursive != closed-form baseline\n%v\nvs\n%v", n, rec, conn)
		}
		if !conn.Equal(lp) {
			t.Fatalf("n=%d: closed-form != link-perm baseline\n%v\nvs\n%v", n, conn, lp)
		}
	}
}

func TestBaselineMatchesFig1(t *testing.T) {
	// The paper's Fig 1 shows the 4-stage (N=16) Baseline: stage-1 nodes
	// 2i and 2i+1 both connect to node i of the top subnetwork (labels
	// 0..3) and node i of the bottom one (labels 4..7).
	g := Baseline(4)
	for i := uint32(0); i < 4; i++ {
		for _, x := range []uint32{2 * i, 2*i + 1} {
			f, c := g.Children(0, x)
			if f != i || c != i+4 {
				t.Fatalf("stage-1 node %d children (%d,%d), want (%d,%d)", x, f, c, i, i+4)
			}
		}
	}
	// Last stage: K_{2,2} blocks on pairs {2j, 2j+1}.
	for y := uint32(0); y < 8; y++ {
		f, c := g.Children(2, y)
		if f != y&^1 || c != (y&^1)|1 {
			t.Fatalf("last-stage node %d children (%d,%d)", y, f, c)
		}
	}
}

func TestReverseBaselineIsReverse(t *testing.T) {
	for n := 2; n <= 9; n++ {
		rb := MustBuild(NameReverseBaseline, n)
		rev := Baseline(n).Reverse()
		if !rb.Graph.EqualUnordered(rev) {
			t.Fatalf("n=%d: reverse-baseline != Reverse(baseline)", n)
		}
	}
}

func TestCatalogNetworksAreValidBanyans(t *testing.T) {
	for n := 2; n <= 9; n++ {
		nets, err := BuildAll(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(nets) != 6 {
			t.Fatalf("catalog has %d networks, want 6", len(nets))
		}
		for _, nw := range nets {
			if err := nw.Graph.Validate(); err != nil {
				t.Errorf("n=%d %s: invalid: %v", n, nw.Name, err)
			}
			if ok, v := nw.Graph.IsBanyan(); !ok {
				t.Errorf("n=%d %s: not Banyan: %v", n, nw.Name, v)
			}
			if nw.Graph.HasParallelArcs() {
				t.Errorf("n=%d %s: has parallel arcs", n, nw.Name)
			}
			if len(nw.IndexPerms) != n-1 || len(nw.LinkPerms) != n-1 {
				t.Errorf("n=%d %s: definition slices wrong length", n, nw.Name)
			}
		}
	}
}

func TestCatalogNetworksSatisfyCharacterization(t *testing.T) {
	// Direct check of the paper's theorem hypotheses on all six networks.
	for n := 2; n <= 8; n++ {
		nets, err := BuildAll(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range nets {
			if !midigraph.AllOK(nw.Graph.CheckPrefix()) {
				t.Errorf("n=%d %s: P(1,*) violated", n, nw.Name)
			}
			if !midigraph.AllOK(nw.Graph.CheckSuffix()) {
				t.Errorf("n=%d %s: P(*,n) violated", n, nw.Name)
			}
		}
	}
}

func TestOmegaStructure(t *testing.T) {
	// Omega's cell-level connection is the shuffle-exchange: cell x
	// connects to cells (2x mod h + 0/1 with the top bit wrapped into
	// bit 1 of the link)... concretely, children of x are obtained from
	// the shuffle of link 2x and 2x+1. For n=3 (h=4, links 8):
	// sigma((x2,x1,x0)) = (x1,x0,x2). Cell 0 (links 000,001):
	// images 000, 010 -> cells 0, 1.
	g := MustBuild(NameOmega, 3).Graph
	f, c := g.Children(0, 0)
	if f != 0 || c != 1 {
		t.Fatalf("omega children of 0 = (%d,%d), want (0,1)", f, c)
	}
	// Cell 2 (links 100,101): images 001, 011 -> cells 0, 1.
	f, c = g.Children(0, 2)
	if f != 0 || c != 1 {
		t.Fatalf("omega children of 2 = (%d,%d), want (0,1)", f, c)
	}
	// Cell 1 (links 010,011): images 100,110 -> cells 2,3.
	f, c = g.Children(0, 1)
	if f != 2 || c != 3 {
		t.Fatalf("omega children of 1 = (%d,%d), want (2,3)", f, c)
	}
}

func TestFlipIsOmegaReverse(t *testing.T) {
	// Flip (inverse shuffles) is the reverse network of Omega.
	for n := 2; n <= 8; n++ {
		flip := MustBuild(NameFlip, n).Graph
		omegaRev := MustBuild(NameOmega, n).Graph.Reverse()
		if !flip.EqualUnordered(omegaRev) {
			t.Fatalf("n=%d: flip != Reverse(omega)", n)
		}
	}
}

func TestModifiedDMIsCubeReverse(t *testing.T) {
	// The butterfly stages are involutions, so reversing the cube's
	// stage order gives the modified data manipulator.
	for n := 2; n <= 8; n++ {
		mdm := MustBuild(NameModifiedDM, n).Graph
		cubeRev := MustBuild(NameIndirectCube, n).Graph.Reverse()
		if !mdm.EqualUnordered(cubeRev) {
			t.Fatalf("n=%d: mdm != Reverse(cube)", n)
		}
	}
}

func TestIndirectCubeStructure(t *testing.T) {
	// Stage s of the cube network links cells differing in bit s: cell x
	// and x^2^s both connect to {x with bit s = 0, = 1}... at the cell
	// level stage s uses beta_{s+1}, so children of x are x with bit s
	// set to 0 and 1.
	g := MustBuild(NameIndirectCube, 4).Graph
	for s := 0; s < 3; s++ {
		for x := uint32(0); x < 8; x++ {
			f, c := g.Children(s, x)
			want0 := x &^ (1 << uint(s))
			want1 := x | (1 << uint(s))
			if f != want0 || c != want1 {
				t.Fatalf("cube stage %d node %d children (%d,%d), want (%d,%d)",
					s, x, f, c, want0, want1)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("no-such-network", 4); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Build(NameOmega, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Build(NameOmega, midigraph.MaxStages+1); err == nil {
		t.Error("oversized n accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	MustBuild("no-such-network", 4)
}

func TestFromIndexPermsErrors(t *testing.T) {
	if _, err := FromIndexPerms("x", 4, nil); err == nil {
		t.Error("nil index perms accepted")
	}
	bad := []pipid.IndexPerm{pipid.Identity(3), pipid.Identity(3), pipid.Identity(3)}
	if _, err := FromIndexPerms("x", 4, bad); err == nil {
		t.Error("wrong-width thetas accepted")
	}
	// Identity theta produces double links, which still validates as an
	// MI-digraph — it is the Fig 5 degenerate network.
	idNet, err := FromIndexPerms("fig5", 3, []pipid.IndexPerm{pipid.Identity(3), pipid.PerfectShuffle(3)})
	if err != nil {
		t.Fatalf("identity-theta network rejected: %v", err)
	}
	if !idNet.Graph.HasParallelArcs() {
		t.Error("identity theta should produce parallel arcs")
	}
	if ok, _ := idNet.Graph.IsBanyan(); ok {
		t.Error("Fig 5 network reported Banyan")
	}
}

func TestFromLinkPermsDetectsPIPID(t *testing.T) {
	n := 4
	// Build from explicit link perms of a PIPID network: IndexPerms must
	// be recovered.
	lps := MustBuild(NameOmega, n).LinkPerms
	nw, err := FromLinkPerms("omega-lp", n, lps)
	if err != nil {
		t.Fatal(err)
	}
	if nw.IndexPerms == nil {
		t.Fatal("PIPID link perms not detected")
	}
	for s, ip := range nw.IndexPerms {
		if !ip.Equal(pipid.PerfectShuffle(n)) {
			t.Fatalf("stage %d detected %v, want sigma", s, ip)
		}
	}
	// Non-PIPID link perms leave IndexPerms nil. Swapping two non-unit,
	// even-valued entries keeps a valid bijection whose cell-level graph
	// still validates (both 6 and 10 map into distinct cells).
	mod := make([]perm.Perm, n-1)
	for s := range lps {
		mod[s] = lps[s].Clone()
	}
	mod[1][6], mod[1][10] = mod[1][10], mod[1][6]
	nw2, err := FromLinkPerms("scrambled", n, mod)
	if err != nil {
		t.Fatal(err)
	}
	if nw2.IndexPerms != nil {
		t.Error("non-PIPID stage still reported IndexPerms")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() = %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func BenchmarkBuildOmega(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustBuild(NameOmega, 12)
	}
}
