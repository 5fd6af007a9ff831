package min

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"minequiv/internal/equiv"
)

// checkGolden pins Check byte for byte: per case family, the SHA-256 of
// json.Marshal(Check(nw)) over the family's wirings. Every window count
// and the exact banyanViolation witness text feed the digest, so a
// change to how the characterization is decided must leave each digest
// where it is.
var checkGolden = map[string]string{
	"baseline":                  "1754178ba35e09e3a7b1f5b5a30b52e38c02320107cfe8e01070e1e76a2b893f",
	"double-arc":                "eb22eeffc296b4cea541c2ace60f4534d9f42561b22d77284616ba2639283b48",
	"flip":                      "e92a14f2a87772351264554b6719534e22ab10ef5cd1b7e44f416c7009f92369",
	"indirect-binary-cube":      "e6c33e9072124d387c1947e5f606229be9d2735c9a33523d2144fbf00e7e3b58",
	"modified-data-manipulator": "39088ac94bedd2e78ebf3487cde218f59f3ec07b7e2368514e9035f43f4a65ba",
	"multi-path":                "97bd4021c96b52e2f33b34513db87525645d3716e61866473d096f1c32a02a60",
	"omega":                     "0154f02e38f7209d0579e216e512f82962a45e032df1ac6d15135a67cc543eab",
	"reverse-baseline":          "66978dfcbe01e114ca14bd0f08c6dba85fc7a5933325e996f5abe9e40791736e",
	"tail-cycle":                "51e06bdd48be971f4923375573e7cf59f3a202c9e81d96272606ffeda2a891f3",
	"unreachable":               "335d93ed58cd10330dbf2874d0ba17b8e345405ed36c1f2845ed4ab5abfcae8b",
}

// doubleArcWiring rewires one cell of a Baseline so both of its
// outlinks enter the same next-stage cell.
func doubleArcWiring(stages, stage, cell int) [][]int {
	perms := MustBuild(Baseline, stages).LinkPerms()
	p := perms[stage]
	target := p[2*cell] ^ 1 // the sibling inlink of 2·cell's destination
	for x, y := range p {
		if y == target {
			p[x], p[2*cell+1] = p[2*cell+1], p[x]
			break
		}
	}
	return perms
}

// xorButterflyWiring wires every stage so cell x's port p enters cell
// x^p: no parallel arcs, yet each cell only ever reaches itself and its
// buddy, by two paths each once there are three stages.
func xorButterflyWiring(stages int) [][]int {
	perms := identityWiring(stages)
	for _, p := range perms {
		for x := range p {
			p[x] = x ^ (x&1)<<1
		}
	}
	return perms
}

// checkGoldenNets lists the golden's networks by family: the catalog at
// n = 2..8, the tail cycle at n = 3..7, and three kinds of non-Banyan
// wiring at n = 3..6.
func checkGoldenNets(t *testing.T) map[string][]*Network {
	t.Helper()
	nets := map[string][]*Network{}
	for _, name := range CatalogNames() {
		for n := 2; n <= 8; n++ {
			nets[name] = append(nets[name], MustBuild(name, n))
		}
	}
	for n := 3; n <= 7; n++ {
		nw, err := TailCycle(n)
		if err != nil {
			t.Fatal(err)
		}
		nets["tail-cycle"] = append(nets["tail-cycle"], nw)
	}
	for n := 3; n <= 6; n++ {
		h := 1 << uint(n-1)
		for family, perms := range map[string][][][]int{
			"double-arc":  {doubleArcWiring(n, 0, h-1), doubleArcWiring(n, n-2, 0)},
			"multi-path":  {xorButterflyWiring(n)},
			"unreachable": {identityWiring(n)},
		} {
			for _, p := range perms {
				nw, err := FromLinkPerms(family, n, p)
				if err != nil {
					t.Fatalf("%s n=%d: %v", family, n, err)
				}
				nets[family] = append(nets[family], nw)
			}
		}
	}
	return nets
}

// TestCheckReportGolden hashes the JSON report of Check on every golden
// network against a committed digest per family, and checks each
// report's verdicts against the family's intent.
func TestCheckReportGolden(t *testing.T) {
	nonBanyan := map[string]bool{"double-arc": true, "multi-path": true, "unreachable": true}
	for family, nets := range checkGoldenNets(t) {
		h := sha256.New()
		for _, nw := range nets {
			rep := Check(nw)
			if rep.Banyan == nonBanyan[family] || (rep.BanyanViolation == "") != rep.Banyan {
				t.Errorf("%s n=%d: banyan=%t violation=%q, against the family's intent", family, nw.Stages(), rep.Banyan, rep.BanyanViolation)
			}
			if want := !nonBanyan[family] && family != "tail-cycle"; rep.Equivalent != want {
				t.Errorf("%s n=%d: equivalent=%t, want %t", family, nw.Stages(), rep.Equivalent, want)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\n", b)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != checkGolden[family] {
			t.Errorf("%s: check digest %s, want %s", family, got, checkGolden[family])
		}
	}
}

// TestReportText pins the report's text exactly, in both renderings:
// Check's, headed by the network name, and the one IsoToBaseline's
// error carries, headed by the stage count alone. The n = 4 tail cycle
// is Banyan and fails two suffix windows; the double arc fails the
// Banyan property and one prefix window.
func TestReportText(t *testing.T) {
	tail, err := TailCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	arc, err := FromLinkPerms("double-arc", 4, doubleArcWiring(4, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	const (
		tailWindows = "  banyan: ok\n" +
			"  P(2,4): components=1 expected=2 VIOLATED\n" +
			"  P(3,4): components=1 expected=4 VIOLATED\n"
		arcWindows = "  banyan: violated (midigraph: banyan violated: 0 paths from input node 6 to output node 0)\n" +
			"  P(1,2): components=5 expected=4 VIOLATED\n"
	)
	for _, c := range []struct {
		nw      *Network
		windows string
	}{{tail, tailWindows}, {arc, arcWindows}} {
		want := fmt.Sprintf("characterization check (%s, n=4): NOT baseline-equivalent\n", c.nw.Name()) + c.windows
		if got := Check(c.nw).String(); got != want {
			t.Errorf("%s: Check text\n%q\nwant\n%q", c.nw.Name(), got, want)
		}
		_, err := equiv.IsoToBaseline(c.nw.graph())
		want = "equiv: graph is not baseline-equivalent:\n" +
			"characterization check (n=4): NOT baseline-equivalent\n" + c.windows
		if err == nil || err.Error() != want {
			t.Errorf("%s: IsoToBaseline error\n%q\nwant\n%q", c.nw.Name(), err, want)
		}
	}
}
