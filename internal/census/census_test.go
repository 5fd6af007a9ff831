package census

import (
	"testing"

	"minequiv/internal/conn"
	"minequiv/internal/midigraph"
	"minequiv/internal/topology"
)

func TestConnectionsCount(t *testing.T) {
	// (2h)!/(2!)^h arc arrangements: h=2 -> 4!/4 = 6; h=4 -> 8!/16 = 2520.
	if got := len(Connections(1)); got != 6 {
		t.Fatalf("m=1: %d connections, want 6", got)
	}
	if got := len(Connections(2)); got != 2520 {
		t.Fatalf("m=2: %d connections, want 2520", got)
	}
}

func TestConnectionsAreValid(t *testing.T) {
	for _, m := range []int{1, 2} {
		for _, c := range Connections(m) {
			f := make([]uint32, len(c[0]))
			g := make([]uint32, len(c[1]))
			for i := range c[0] {
				f[i], g[i] = uint32(c[0][i]), uint32(c[1][i])
			}
			cc, err := conn.New(m, f, g)
			if err != nil {
				t.Fatal(err)
			}
			if !cc.IsValid() {
				t.Fatalf("m=%d: enumerated connection invalid: %v %v", m, f, g)
			}
		}
	}
}

func TestConnectionsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Connections(2) {
		key := string(c[0]) + "|" + string(c[1])
		if seen[key] {
			t.Fatal("duplicate connection enumerated")
		}
		seen[key] = true
	}
}

func TestRunN2Exact(t *testing.T) {
	// Hand-verified: 6 valid 2-stage graphs; 4 are Banyan (the K_{2,2}
	// patterns); all 4 Banyan ones are baseline-equivalent.
	res, err := Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 6 || res.Banyan != 4 || res.Equivalent != 4 || res.BanyanNotEquiv != 0 {
		t.Fatalf("n=2 census: %+v", res)
	}
	if res.SignatureClasses != 1 {
		t.Fatalf("n=2: %d signature classes, want 1", res.SignatureClasses)
	}
}

func TestRunN3Consistency(t *testing.T) {
	if testing.Short() {
		t.Skip("full n=3 census is a few seconds")
	}
	res, err := Run(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2520^2 valid graphs; the other tallies are the exhaustive n=3
	// census T13 reports, pinned so any change to how the Banyan or
	// window verdicts are decided must reproduce it exactly.
	if res.Valid != 2520*2520 || res.Banyan != 276480 || res.Equivalent != 55296 ||
		res.BanyanNotEquiv != 221184 || res.SignatureClasses != 3 {
		t.Fatalf("n=3 census: valid=%d banyan=%d equivalent=%d banyan-not-equiv=%d classes=%d, "+
			"want 6350400 276480 55296 221184 3",
			res.Valid, res.Banyan, res.Equivalent, res.BanyanNotEquiv, res.SignatureClasses)
	}
	if res.Equivalent > res.Banyan || res.Banyan > res.Valid {
		t.Fatalf("inconsistent tallies: %+v", res)
	}
	if res.BanyanNotEquiv != res.Banyan-res.Equivalent {
		t.Fatalf("remainder wrong: %+v", res)
	}
	// The equivalent graphs form exactly one signature class — the
	// Baseline's — and it must be present.
	base := topology.Baseline(3)
	baseSig := signature(base)
	if res.SignatureCounts[baseSig] == 0 {
		t.Fatal("baseline signature missing from census")
	}
	// Every baseline-equivalent graph carries the baseline signature
	// (window counts are isomorphism invariants), so the class count of
	// that signature is at least the equivalent tally.
	if res.SignatureCounts[baseSig] < res.Equivalent {
		t.Fatalf("baseline signature class %d smaller than equivalent count %d",
			res.SignatureCounts[baseSig], res.Equivalent)
	}
	// Signature counts add up to the Banyan tally.
	var sum uint64
	for _, v := range res.SignatureCounts {
		sum += v
	}
	if sum != res.Banyan {
		t.Fatalf("signature counts sum %d != banyan %d", sum, res.Banyan)
	}
	// Determinism across worker counts.
	res2, err := Run(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Banyan != res.Banyan || res2.Equivalent != res.Equivalent {
		t.Fatalf("worker count changed tallies: %+v vs %+v", res, res2)
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if _, err := Run(4, 1); err == nil {
		t.Error("n=4 accepted")
	}
	if _, err := Run(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestTopSignatures(t *testing.T) {
	res, err := Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopSignatures(5)
	if len(top) != 1 || top[0].Count != 4 {
		t.Fatalf("top signatures wrong: %+v", top)
	}
}

// signature is the census key of g's window table.
func signature(g *midigraph.Graph) string {
	return string(appendSignature(nil, g.CheckAllWindows()))
}

func TestSignatureMatchesWindows(t *testing.T) {
	g := topology.Baseline(3)
	sig := signature(g)
	// Baseline windows: (1,1):4 (1,2):2 (1,3):1 (2,2):4 (2,3):2 (3,3):4.
	if want := "11:4,12:2,13:1,22:4,23:2,33:4,"; sig != want {
		t.Fatalf("baseline signature %q, want %q", sig, want)
	}
	for _, r := range g.CheckAllWindows() {
		if !r.OK {
			t.Fatal("baseline window violated")
		}
	}
	other, err := randTail()
	if err != nil {
		t.Fatal(err)
	}
	if signature(other) == sig {
		t.Fatal("counterexample shares baseline signature")
	}
}

func randTail() (*midigraph.Graph, error) {
	g := topology.Baseline(3)
	h := uint32(g.CellsPerStage())
	for y := uint32(0); y < h; y++ {
		g.SetChildren(1, y, y, (y+1)%h)
	}
	return g, g.Validate()
}
