package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"testing"

	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// compileGolden pins the compiled fabric's behaviour byte for byte: per
// case family, the SHA-256 of the logical port function over every
// (stage, cell, dst) in table order, Banyan(), BitSliceable() and, for
// a sliceable (relabeled) fabric, every path tag, over the family's
// stage counts. A change to how NewFabric compiles must leave every
// digest where it is.
var compileGolden = map[string]string{
	"baseline":                  "9fd6af08129026b3a84061f9b9407b8a73fb9113a9a7312d915be1af53810dbd",
	"double-arc":                "783a2e9c4d1bf09935e73d03f5cda49b1a736bc2ecc27850e022384b52b9bed7",
	"flip":                      "2e7d15b7a54cd912891eafac8d3d71b612e71169cab0ca4cfdaf003eaaa0c801",
	"indirect-binary-cube":      "858efed7e39dd3d6ed5372754b35b7b7cd3ccb5fa7ac82794aa56cf9ec171723",
	"modified-data-manipulator": "bbc3c7cb622d7765c20c734b6163c5b0305eac9cdc2ce12525b1a47c5aa6c39e",
	"multi-path":                "ca86cee3650b698f9f3f74455ea36feb5ae5d17d9930426ba1d6b8c739860ad0",
	"omega":                     "edf435baf0996bc2e5b09377b9c35ec5a9a1db15884fe01cb9734cb795b07b52",
	"reverse-baseline":          "8c01e1e87b9012aae91fd7d1084adc38d355b36e6ca8dd3d975a0860c68550c5",
	"tail-cycle":                "cdd5b2dbc761d428de17b73f85afef89717070093c6c5afd5a46d34c95e63e15",
	"unreachable":               "1e0d46b459f819a37989a5dcf06c3bcbf1cdc1dbe77ba1b01acf902f78a68c6a",
}

// hashFabric writes everything a compiled fabric exposes to the
// kernels into h, through the logical accessors.
func hashFabric(h hash.Hash, name string, f *Fabric) {
	fmt.Fprintf(h, "%s n=%d banyan=%t sliceable=%t\n", name, f.Spans, f.Banyan(), f.BitSliceable())
	row := make([]byte, f.H*f.N)
	for s := 0; s < f.Spans; s++ {
		fmt.Fprintf(h, "stage %d\n", s)
		for i := range row {
			row[i] = f.port(s, i/f.N, i%f.N)
		}
		h.Write(row)
	}
	if !f.BitSliceable() {
		fmt.Fprintln(h, "no path tags")
		return
	}
	fmt.Fprintln(h, "path tags")
	var b [2]byte
	for src := 0; src < f.N; src++ {
		for dst := 0; dst < f.N; dst++ {
			binary.LittleEndian.PutUint16(b[:], tagOf(f, src, dst))
			h.Write(b[:])
		}
	}
}

// tagOf returns the path tag of the intact (src, dst) flight on a
// BitSliceable fabric — bit s is the output port taken at stage s —
// from what the bit kernel reads: the rtag slots walked through the
// slot-space wires, each slot mapped back to a port through its
// switch's swap bit.
func tagOf(f *Fabric, src, dst int) uint16 {
	slots := f.rtag[dst]
	var tag uint16
	cell := src >> 1
	for s := 0; s < f.Spans; s++ {
		v := int(slots >> uint(s) & 1)
		tag |= uint16(v^int(f.swapped(s*f.H+cell))) << uint(s)
		if s < f.Spans-1 {
			cell = int(f.stages[s].slotNext[cell<<1|v] >> 1)
		}
	}
	return tag
}

// walkTag packs the port schedule the logical port function steers from
// src toward dst, one port per stage; false when a stage reports
// portUnreachable.
func walkTag(f *Fabric, src, dst int) (uint16, bool) {
	link := uint64(src)
	var tag uint16
	for s := 0; s < f.Spans; s++ {
		cell := link >> 1
		pt := f.port(s, int(cell), dst)
		if pt == portUnreachable {
			return 0, false
		}
		tag |= uint16(pt) << uint(s)
		link = cell<<1 | uint64(pt)
		if s < f.Spans-1 {
			link = f.forward(s, link)
		}
	}
	return tag, true
}

// xorButterfly wires every stage so cell x's port p enters cell x^p:
// no parallel arcs, yet each cell only ever reaches itself and its
// buddy, by two paths each once there are three stages.
func xorButterfly(n int) []perm.Perm {
	N := 1 << uint(n)
	perms := make([]perm.Perm, n-1)
	for s := range perms {
		perms[s] = perm.MustFromFunc(N, func(x uint64) uint64 { return x ^ (x&1)<<1 })
	}
	return perms
}

// doubleArcPerms rewires one cell of a Baseline so both of its outlinks
// enter the same next-stage cell.
func doubleArcPerms(n, stage, cell int) []perm.Perm {
	perms := topology.BaselineLinkPerms(n)
	p := perms[stage].Clone()
	target := p[2*cell] ^ 1 // the sibling inlink of 2·cell's destination
	for x, y := range p {
		if y == target {
			p[x], p[2*cell+1] = p[2*cell+1], p[x]
			break
		}
	}
	perms[stage] = p
	return perms
}

var nonBanyanFamilies = map[string]bool{"double-arc": true, "multi-path": true, "unreachable": true}

// compileCases lists the golden's wirings by family.
func compileCases(t *testing.T) map[string][][]perm.Perm {
	t.Helper()
	cases := map[string][][]perm.Perm{}
	for _, name := range topology.Names() {
		for n := 2; n <= 8; n++ {
			cases[name] = append(cases[name], topology.MustBuild(name, n).LinkPerms)
		}
	}
	for n := 3; n <= 6; n++ {
		perms, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		cases["tail-cycle"] = append(cases["tail-cycle"], perms)
	}
	cases["double-arc"] = [][]perm.Perm{doubleArcPerms(4, 1, 3), doubleArcPerms(6, 0, 5), doubleArcPerms(6, 4, 0)}
	cases["multi-path"] = [][]perm.Perm{xorButterfly(3), xorButterfly(5)}
	cases["unreachable"] = [][]perm.Perm{identityPerms(3), identityPerms(6)}
	return cases
}

func identityPerms(n int) []perm.Perm {
	perms := make([]perm.Perm, n-1)
	for s := range perms {
		perms[s] = perm.Identity(1 << uint(n))
	}
	return perms
}

// TestFabricCompileGolden hashes the compiled fabrics of the catalog
// networks (n = 2..8), the tail cycle (n = 3..6) and three kinds of
// non-Banyan wiring against committed digests, and checks each case's
// Banyan verdict against the path-count oracle.
func TestFabricCompileGolden(t *testing.T) {
	for family, wirings := range compileCases(t) {
		h := sha256.New()
		for _, perms := range wirings {
			f, err := NewFabric(perms)
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			if want := pathCountBanyan(t, perms); f.Banyan() != want {
				t.Errorf("%s n=%d: Banyan() = %t, path counts say %t", family, f.Spans, f.Banyan(), want)
			}
			if f.Banyan() == nonBanyanFamilies[family] {
				t.Errorf("%s n=%d: Banyan() = %t, against the family's intent", family, f.Spans, f.Banyan())
			}
			hashFabric(h, family, f)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != compileGolden[family] {
			t.Errorf("%s: compile digest %s, want %s", family, got, compileGolden[family])
		}
	}
}

// pathCountBanyan is the independent Banyan oracle: it counts the paths
// between every first- and last-stage cell of the wiring's MI-digraph
// and requires exactly one for each pair.
func pathCountBanyan(t *testing.T, perms []perm.Perm) bool {
	t.Helper()
	g, err := midigraph.FromLinkPerms(len(perms)+1, perms)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.CellsPerStage(); src++ {
		for _, c := range g.PathCountsFrom(uint32(src)) {
			if c != 1 {
				return false
			}
		}
	}
	return true
}

// TestTablePortsMatchReachability checks the table path where its
// reach rows span several words (N > 64): at n = 7, 8 and 9, the tail
// cycle, double arcs at the first, a middle and the last stage, the
// XOR butterfly and the identity wiring must compile to the table path,
// with every (s, c, dst) port equal to brute-force reachability and
// Banyan() equal to the path-count oracle.
func TestTablePortsMatchReachability(t *testing.T) {
	for n := 7; n <= 9; n++ {
		tail, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		wirings := map[string][]perm.Perm{
			"tail-cycle":        tail,
			"double-arc/first":  doubleArcPerms(n, 0, 1),
			"double-arc/middle": doubleArcPerms(n, n/2, 3),
			"double-arc/last":   doubleArcPerms(n, n-2, 5),
			"multi-path":        xorButterfly(n),
			"unreachable":       identityPerms(n),
		}
		for name, perms := range wirings {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				t.Parallel()
				f, err := NewFabric(perms)
				if err != nil {
					t.Fatal(err)
				}
				if f.BitSliceable() {
					t.Fatal("wiring compiled relabeled, want the table path")
				}
				if want := pathCountBanyan(t, perms); f.Banyan() != want {
					t.Fatalf("Banyan() = %t, path counts say %t", f.Banyan(), want)
				}
				checkReachPorts(t, name, f, perms)
			})
		}
	}
}

// reachRow is the brute-force port oracle for one (stage s, cell): it
// walks every port sequence from the cell and, per destination, returns
// the lowest first port some sequence takes there, or portUnreachable.
func reachRow(perms []perm.Perm, s, cell int) []uint8 {
	n := len(perms) + 1
	row := make([]uint8, 1<<uint(n))
	for i := range row {
		row[i] = portUnreachable
	}
	for ports := 0; ports < 1<<uint(n-s); ports++ {
		link := uint64(cell<<1 | ports&1)
		for t := s + 1; t < n; t++ {
			link = perms[t-1].Apply(link)
			link = link&^1 | uint64(ports>>uint(t-s)&1)
		}
		row[link] = min(row[link], uint8(ports&1))
	}
	return row
}

// checkReachPorts requires every (s, c, dst) port of f to equal the
// brute-force reachability oracle on its wiring.
func checkReachPorts(t *testing.T, label string, f *Fabric, perms []perm.Perm) {
	t.Helper()
	for s := 0; s < f.Spans; s++ {
		for c := 0; c < f.H; c++ {
			for dst, want := range reachRow(perms, s, c) {
				if got := f.port(s, c, dst); got != want {
					t.Fatalf("%s stage %d cell %d dst %d: port %#x, reachability says %#x", label, s, c, dst, got, want)
				}
			}
		}
	}
}

// checkTags requires a BitSliceable fabric's path tag of every
// (src, dst) to be the port schedule the logical port function steers,
// walked one lookup per stage.
func checkTags(t *testing.T, label string, f *Fabric) {
	t.Helper()
	for src := 0; src < f.N; src++ {
		for dst := 0; dst < f.N; dst++ {
			want, ok := walkTag(f, src, dst)
			if !ok {
				t.Fatalf("%s (src %d, dst %d): sliceable fabric has no path", label, src, dst)
			}
			if got := tagOf(f, src, dst); got != want {
				t.Fatalf("%s (src %d, dst %d): tag %#x, walk says %#x", label, src, dst, got, want)
			}
		}
	}
}

// sameFabric requires two compiled forms of one wiring to agree on
// Banyan() and on every (s, c, dst) port.
func sameFabric(t *testing.T, label string, got, want *Fabric) {
	t.Helper()
	if got.Banyan() != want.Banyan() {
		t.Fatalf("%s: banyan %t, tables say %t", label, got.Banyan(), want.Banyan())
	}
	for s := 0; s < got.Spans; s++ {
		for c := 0; c < got.H; c++ {
			for dst := 0; dst < got.N; dst++ {
				if g, w := got.port(s, c, dst), want.port(s, c, dst); g != w {
					t.Fatalf("%s stage %d cell %d dst %d: port %#x, tables say %#x", label, s, c, dst, g, w)
				}
			}
		}
	}
}

// TestRelabeledMatchesTables is the table oracle for the relabeled
// form: every catalog network at n = 2..10 and three seeded relabelings
// of each must compile relabeled and agree with compileTables on the
// same wiring on Banyan() and at every (s, c, dst) port —
// portUnreachable included — and every (src, dst) tag must be the port
// schedule those ports walk. The catalog compiles with no swap bit set;
// the relabelings must set some, or the test would not reach the swap
// algebra.
func TestRelabeledMatchesTables(t *testing.T) {
	for i, name := range topology.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			swaps := 0
			for n := 2; n <= 10; n++ {
				base := topology.MustBuild(name, n).LinkPerms
				wirings := [][]perm.Perm{base}
				for k := 0; k < 3; k++ {
					wirings = append(wirings, randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), uint64(3*i+k))), base))
				}
				for k, perms := range wirings {
					label := fmt.Sprintf("n=%d relabeling %d", n, k)
					f, err := NewFabric(perms)
					if err != nil {
						t.Fatal(err)
					}
					if f.key == nil {
						t.Fatalf("%s: equivalent wiring took the table path", label)
					}
					for j := range f.key {
						if f.swapped(j) == 1 {
							if k == 0 {
								t.Fatalf("%s: catalog wiring has swap bit at switch %d", label, j)
							}
							swaps++
						}
					}
					sameFabric(t, label, f, compileTables(perms))
					checkTags(t, label, f)
				}
			}
			if swaps == 0 {
				t.Fatal("no relabeling set a swap bit")
			}
		})
	}
}

// equivalentWiring is the paper's characterization of a wiring, run by
// equiv.IsBaselineEquivalent (Banyan and P(1,*) and P(*,n)), with no
// code shared with NewFabric's verdict. A wiring that is not a valid
// MI-digraph is not equivalent.
func equivalentWiring(t *testing.T, perms []perm.Perm) bool {
	t.Helper()
	g, err := midigraph.FromLinkPerms(len(perms)+1, perms)
	return err == nil && equiv.IsBaselineEquivalent(g)
}

// TestBitSliceableIsCharacterization: the bit kernel admits exactly the
// Baseline-equivalent wirings. BitSliceable() must equal the paper's
// characterization on the catalog at n = 2..10 and two seeded
// relabelings of each, on the tail cycles at n = 3..10 and a relabeling
// of each (Banyan, not equivalent), and on double-arc wirings (not
// Banyan). FuzzFabricCompile checks the same on the wirings it draws.
func TestBitSliceableIsCharacterization(t *testing.T) {
	var wirings [][]perm.Perm
	for i, name := range topology.Names() {
		for n := 2; n <= 10; n++ {
			base := topology.MustBuild(name, n).LinkPerms
			wirings = append(wirings, base)
			for k := 0; k < 2; k++ {
				wirings = append(wirings, randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), uint64(2*i+k+100))), base))
			}
		}
	}
	for n := 3; n <= 10; n++ {
		tc, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		wirings = append(wirings, tc, randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(n), 7)), tc))
	}
	for n := 3; n <= 8; n++ {
		wirings = append(wirings, doubleArcPerms(n, n/2, 1), doubleArcPerms(n, 0, n))
	}
	var sliceable, refused int
	for _, perms := range wirings {
		f, err := NewFabric(perms)
		if err != nil {
			t.Fatal(err)
		}
		want := equivalentWiring(t, perms)
		if f.BitSliceable() != want {
			t.Fatalf("n=%d: BitSliceable() = %t, the characterization says %t", f.Spans, f.BitSliceable(), want)
		}
		if _, err := f.NewBitWaveRunner(); (err == nil) != want {
			t.Fatalf("n=%d: NewBitWaveRunner error %v, equivalent %t", f.Spans, err, want)
		}
		if want {
			sliceable++
		} else {
			refused++
		}
	}
	if want := len(topology.Names()) * 9 * 3; sliceable != want {
		t.Fatalf("%d wirings sliceable, want the %d catalog wirings", sliceable, want)
	}
	if refused != 8*2+6*2 {
		t.Fatalf("%d wirings refused, want %d", refused, 8*2+6*2)
	}
}

// FuzzFabricCompile compiles wirings seeded by the fuzz bytes — random
// link permutations, or a catalog network, possibly relabeled, with
// random link swaps — at n = 2..8 and checks the compiled fabric against
// an oracle: Banyan() against midigraph path counts, BitSliceable()
// against the paper's characterization (equiv.IsBaselineEquivalent),
// each port (read through the logical accessor) against brute-force
// reachability, and on a sliceable fabric each path tag against a
// per-pair walk of the ports. Whenever the wiring compiled relabeled,
// the table compiler's form of the same wiring must agree with it on
// Banyan() and every port.
func FuzzFabricCompile(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{4, 1, 0, 9})
	f.Add([]byte{3, 1, 2, 7, 7})
	f.Add([]byte{2, 0, 5, 1, 2, 3})
	f.Add([]byte{4, 3, 4})
	f.Add([]byte{5, 5, 6, 1})
	f.Add([]byte{6, 1, 4})
	f.Add([]byte{5, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [3]byte
		copy(hdr[:], data)
		n := 2 + int(hdr[0])%7
		var seed uint64
		for _, b := range data {
			seed = seed*131 + uint64(b)
		}
		rng := rand.New(rand.NewPCG(seed, uint64(len(data))))
		N := 1 << uint(n)
		var perms []perm.Perm
		if hdr[1]&1 == 1 {
			names := topology.Names()
			for _, p := range topology.MustBuild(names[int(hdr[1]>>1)%len(names)], n).LinkPerms {
				perms = append(perms, p.Clone())
			}
			if hdr[2]&4 != 0 {
				perms = randnet.RelabelLinks(rng, perms)
			}
			for k := int(hdr[2] % 4); k > 0; k-- {
				p := perms[rng.IntN(n-1)]
				i, j := rng.IntN(N), rng.IntN(N)
				p[i], p[j] = p[j], p[i]
			}
		} else {
			perms = make([]perm.Perm, n-1)
			for s := range perms {
				perms[s] = perm.Random(rng, N)
			}
		}
		fab, err := NewFabric(perms)
		if err != nil {
			t.Fatal(err)
		}
		if want := pathCountBanyan(t, perms); fab.Banyan() != want {
			t.Fatalf("n=%d: Banyan() = %t, path counts say %t", n, fab.Banyan(), want)
		}
		checkReachPorts(t, fmt.Sprintf("n=%d", n), fab, perms)
		if want := equivalentWiring(t, perms); fab.BitSliceable() != want {
			t.Fatalf("n=%d: BitSliceable() = %t, the characterization says %t", n, fab.BitSliceable(), want)
		}
		if fab.BitSliceable() {
			label := fmt.Sprintf("n=%d", n)
			checkTags(t, label, fab)
			sameFabric(t, label, fab, compileTables(perms))
		}
	})
}
