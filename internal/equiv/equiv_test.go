package equiv

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"minequiv/internal/census"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

func TestBaselineEquivalentToItself(t *testing.T) {
	for n := 2; n <= 9; n++ {
		g := topology.Baseline(n)
		r := Check(g)
		if !r.Equivalent {
			t.Fatalf("n=%d: baseline fails its own characterization:\n%v", n, r)
		}
		iso, err := IsoToBaseline(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := iso.Verify(g, topology.Baseline(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSixClassicalNetworksEquivalent(t *testing.T) {
	// The paper's main corollary (and Wu & Feng's theorem): all six
	// classical networks are baseline-equivalent. We verify with
	// explicit constructed isomorphisms, not just the predicate.
	for n := 2; n <= 8; n++ {
		nets, err := topology.BuildAll(n)
		if err != nil {
			t.Fatal(err)
		}
		base := topology.Baseline(n)
		for _, nw := range nets {
			if !Check(nw.Graph).Equivalent {
				t.Errorf("n=%d %s: characterization fails", n, nw.Name)
				continue
			}
			iso, err := IsoToBaseline(nw.Graph)
			if err != nil {
				t.Errorf("n=%d %s: no isomorphism: %v", n, nw.Name, err)
				continue
			}
			if err := iso.Verify(nw.Graph, base); err != nil {
				t.Errorf("n=%d %s: isomorphism invalid: %v", n, nw.Name, err)
			}
		}
		// And pairwise.
		for i := range nets {
			for j := i + 1; j < len(nets); j++ {
				iso, err := IsoBetween(nets[i].Graph, nets[j].Graph)
				if err != nil {
					t.Errorf("n=%d %s~%s: %v", n, nets[i].Name, nets[j].Name, err)
					continue
				}
				if err := iso.Verify(nets[i].Graph, nets[j].Graph); err != nil {
					t.Errorf("n=%d %s~%s: %v", n, nets[i].Name, nets[j].Name, err)
				}
			}
		}
	}
}

func TestTheorem3OnRandomIndependentBanyans(t *testing.T) {
	// Theorem 3: Banyan + independent connections => isomorphic to
	// Baseline. Construct the isomorphism explicitly for random samples.
	rng := rand.New(rand.NewPCG(1, 0))
	for n := 2; n <= 8; n++ {
		for trial := 0; trial < 4; trial++ {
			g, _, err := randnet.IndependentBanyan(rng, n, 1000)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			iso, err := IsoToBaseline(g)
			if err != nil {
				t.Fatalf("n=%d: Theorem 3 violated: %v", n, err)
			}
			if err := iso.Verify(g, topology.Baseline(n)); err != nil {
				t.Fatalf("n=%d: bad isomorphism: %v", n, err)
			}
		}
	}
}

func TestScrambledNetworksStillEquivalent(t *testing.T) {
	// Isomorphism is invariant under arbitrary per-stage relabeling.
	rng := rand.New(rand.NewPCG(2, 0))
	for n := 2; n <= 8; n++ {
		g := topology.MustBuild(topology.NameOmega, n).Graph
		for trial := 0; trial < 3; trial++ {
			sg, _ := randnet.Scramble(rng, g)
			iso, err := IsoToBaseline(sg)
			if err != nil {
				t.Fatalf("n=%d: scrambled omega not equivalent: %v", n, err)
			}
			if err := iso.Verify(sg, topology.Baseline(n)); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	}
}

func TestLabelingAgreesWithOracle(t *testing.T) {
	// For small n, the constructive labeling and the exhaustive oracle
	// must agree on both positive and negative instances.
	rng := rand.New(rand.NewPCG(3, 0))
	for n := 2; n <= 4; n++ {
		base := topology.Baseline(n)
		// Positive: scrambled classical networks.
		for _, name := range topology.Names() {
			g := topology.MustBuild(name, n).Graph
			sg, _ := randnet.Scramble(rng, g)
			_, labelOK := isoErrNil(IsoToBaseline(sg))
			_, oracleOK := FindIsomorphism(sg, base)
			if labelOK != oracleOK || !labelOK {
				t.Errorf("n=%d %s: labeling=%v oracle=%v (want both true)", n, name, labelOK, oracleOK)
			}
		}
		// Negative: tail-cycle counterexample.
		if n >= 3 {
			g, err := randnet.TailCycleBanyan(n)
			if err != nil {
				t.Fatal(err)
			}
			if Check(g).Equivalent {
				t.Errorf("n=%d: counterexample passes characterization", n)
			}
			if _, ok := FindIsomorphism(g, base); ok {
				t.Errorf("n=%d: oracle found isomorphism for counterexample", n)
			}
		}
	}
}

func isoErrNil(iso Isomorphism, err error) (Isomorphism, bool) { return iso, err == nil }

func TestCounterexamplesRejectedWithDiagnosis(t *testing.T) {
	for n := 3; n <= 7; n++ {
		g, err := randnet.TailCycleBanyan(n)
		if err != nil {
			t.Fatal(err)
		}
		r := Check(g)
		if r.Equivalent {
			t.Fatalf("n=%d: tail cycle accepted", n)
		}
		if !r.Banyan {
			t.Fatalf("n=%d: tail cycle should be Banyan", n)
		}
		if len(r.Violations()) == 0 {
			t.Fatalf("n=%d: no violations reported", n)
		}
		for _, w := range r.Violations() {
			if w.J != n {
				t.Fatalf("n=%d: %v violated, want only suffix windows", n, w)
			}
		}
		if !strings.Contains(r.String(), "NOT baseline-equivalent") {
			t.Errorf("report text missing verdict: %q", r.String())
		}
		_, err = IsoToBaseline(g)
		if err == nil {
			t.Fatalf("n=%d: IsoToBaseline accepted counterexample", n)
		}
		var neErr *NotEquivalentError
		if !asNotEquivalent(err, &neErr) {
			t.Fatalf("n=%d: error type %T, want *NotEquivalentError", n, err)
		}
		if neErr.Report.Equivalent {
			t.Fatal("error carries an equivalent report")
		}
	}
}

func asNotEquivalent(err error, target **NotEquivalentError) bool {
	ne, ok := err.(*NotEquivalentError)
	if ok {
		*target = ne
	}
	return ok
}

func TestNonBanyanRejected(t *testing.T) {
	for n := 3; n <= 6; n++ {
		g, err := randnet.NonBanyan(n)
		if err != nil {
			t.Fatal(err)
		}
		r := Check(g)
		if r.Equivalent || r.Banyan {
			t.Fatalf("n=%d: non-banyan graph accepted", n)
		}
		if r.BanyanViolation == "" {
			t.Fatalf("n=%d: missing violation detail", n)
		}
	}
}

func TestAreEquivalent(t *testing.T) {
	n := 4
	omega := topology.MustBuild(topology.NameOmega, n).Graph
	flip := topology.MustBuild(topology.NameFlip, n).Graph
	tail, _ := randnet.TailCycleBanyan(n)
	head, _ := randnet.HeadCycleBanyan(n)

	if ok, err := AreEquivalent(omega, flip); err != nil || !ok {
		t.Errorf("omega~flip = %v,%v", ok, err)
	}
	if ok, err := AreEquivalent(omega, tail); err != nil || ok {
		t.Errorf("omega~tail = %v,%v", ok, err)
	}
	// tail vs head: both non-equivalent to baseline; oracle decides.
	// They are reverses of each other; for n=4 the tail cycle violates
	// P(3,4) while head violates P(1,2) — they are NOT isomorphic
	// (stage-respecting isomorphisms preserve window properties).
	if ok, err := AreEquivalent(tail, head); err != nil || ok {
		t.Errorf("tail~head = %v,%v (want false)", ok, err)
	}
	// tail vs itself (scrambled): isomorphic, decided by oracle.
	sg, _ := randnet.Scramble(rand.New(rand.NewPCG(4, 0)), tail)
	if ok, err := AreEquivalent(tail, sg); err != nil || !ok {
		t.Errorf("tail~scrambled(tail) = %v,%v (want true)", ok, err)
	}
	// Mismatched sizes: not equivalent, no error.
	if ok, err := AreEquivalent(omega, topology.Baseline(5)); err != nil || ok {
		t.Errorf("size mismatch = %v,%v", ok, err)
	}
	// Oversized undecidable case errors out.
	bigTail, _ := randnet.TailCycleBanyan(OracleMaxStages + 1)
	bigHead, _ := randnet.HeadCycleBanyan(OracleMaxStages + 1)
	if _, err := AreEquivalent(bigTail, bigHead); err == nil {
		t.Error("oversized oracle case should error")
	}
}

func TestOracleFindsAutomorphismsAndRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	for n := 2; n <= 4; n++ {
		g := topology.Baseline(n)
		// Identity case.
		iso, ok := FindIsomorphism(g, g)
		if !ok {
			t.Fatalf("n=%d: no automorphism found", n)
		}
		if err := iso.Verify(g, g); err != nil {
			t.Fatal(err)
		}
		// Scramble case.
		sg, _ := randnet.Scramble(rng, g)
		if _, ok := FindIsomorphism(g, sg); !ok {
			t.Fatalf("n=%d: scramble not matched", n)
		}
		// Different graphs rejected.
		if n >= 3 {
			tail, _ := randnet.TailCycleBanyan(n)
			if _, ok := FindIsomorphism(g, tail); ok {
				t.Fatalf("n=%d: oracle matched baseline to counterexample", n)
			}
		}
	}
	// Size mismatch.
	if _, ok := FindIsomorphism(topology.Baseline(3), topology.Baseline(4)); ok {
		t.Error("size mismatch matched")
	}
	// Oversized instances refused.
	big := topology.Baseline(OracleMaxStages + 1)
	if _, ok := FindIsomorphism(big, big); ok {
		t.Error("oversized instance accepted")
	}
}

func TestIsomorphismAlgebra(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 0))
	n := 5
	g := topology.MustBuild(topology.NameIndirectCube, n).Graph
	sg, _ := randnet.Scramble(rng, g)
	isoG, err := IsoToBaseline(g)
	if err != nil {
		t.Fatal(err)
	}
	isoS, err := IsoToBaseline(sg)
	if err != nil {
		t.Fatal(err)
	}
	// g -> baseline -> sg.
	cross := isoG.Compose(isoS.Inverse())
	if err := cross.Verify(g, sg); err != nil {
		t.Fatalf("composed isomorphism invalid: %v", err)
	}
	// Inverse round trip.
	back := cross.Compose(cross.Inverse())
	id := Identity(n, g.CellsPerStage())
	for s := range back.Maps {
		if !back.Maps[s].Equal(id.Maps[s]) {
			t.Fatal("iso ∘ iso^-1 != identity")
		}
	}
}

func TestVerifyCatchesBadMaps(t *testing.T) {
	n := 3
	g := topology.Baseline(n)
	iso, err := IsoToBaseline(g)
	if err != nil {
		t.Fatal(err)
	}
	base := topology.Baseline(n)
	// Corrupt one stage map by swapping two entries whose images have
	// different children (buddies 0/1 share children, so swap 0 and 2).
	bad := Isomorphism{Maps: make([]perm.Perm, len(iso.Maps))}
	for s := range iso.Maps {
		bad.Maps[s] = iso.Maps[s].Clone()
	}
	bad.Maps[0][0], bad.Maps[0][2] = bad.Maps[0][2], bad.Maps[0][0]
	if err := bad.Verify(g, base); err == nil {
		t.Error("corrupted isomorphism verified")
	}
	// Wrong shapes.
	short := Isomorphism{Maps: iso.Maps[:2]}
	if err := short.Verify(g, base); err == nil {
		t.Error("short map list verified")
	}
	if err := iso.Verify(g, topology.Baseline(4)); err == nil {
		t.Error("size-mismatched verify passed")
	}
	// Non-bijection map.
	nb := Isomorphism{Maps: make([]perm.Perm, len(iso.Maps))}
	for s := range iso.Maps {
		nb.Maps[s] = iso.Maps[s].Clone()
	}
	nb.Maps[1][0] = nb.Maps[1][1]
	if err := nb.Verify(g, base); err == nil {
		t.Error("non-bijective map verified")
	}
}

func TestReportStages(t *testing.T) {
	r := Check(topology.Baseline(4))
	if r.Stages != 4 {
		t.Errorf("Stages = %d", r.Stages)
	}
	if len(r.Prefix) != 4 || len(r.Suffix) != 4 {
		t.Errorf("family lengths %d/%d", len(r.Prefix), len(r.Suffix))
	}
}

func BenchmarkCheckCharacterization(b *testing.B) {
	g := topology.MustBuild(topology.NameOmega, 10).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Check(g).Equivalent {
			b.Fatal("omega rejected")
		}
	}
}

func BenchmarkOracle(b *testing.B) {
	g := topology.Baseline(4)
	sg, _ := randnet.Scramble(rand.New(rand.NewPCG(7, 0)), g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindIsomorphism(g, sg); !ok {
			b.Fatal("not found")
		}
	}
}

func TestNotEquivalentErrorText(t *testing.T) {
	tail, err := randnet.TailCycleBanyan(4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = IsoToBaseline(tail)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "not baseline-equivalent") ||
		!strings.Contains(err.Error(), "VIOLATED") {
		t.Errorf("error text uninformative: %q", err.Error())
	}
}

func TestIsoBetweenErrors(t *testing.T) {
	// Size mismatch.
	if _, err := IsoBetween(topology.Baseline(3), topology.Baseline(4)); err == nil {
		t.Error("size mismatch accepted")
	}
	// Non-equivalent operand.
	tail, _ := randnet.TailCycleBanyan(4)
	if _, err := IsoBetween(topology.Baseline(4), tail); err == nil {
		t.Error("non-equivalent second operand accepted")
	}
	if _, err := IsoBetween(tail, topology.Baseline(4)); err == nil {
		t.Error("non-equivalent first operand accepted")
	}
}

// wiring builds the n-stage graph whose stage-s node x has the
// children conns[s][x].
func wiring(n int, conns ...[][2]uint32) *midigraph.Graph {
	g := midigraph.New(n)
	for s, c := range conns {
		for x, ch := range c {
			g.SetChildren(s, uint32(x), ch[0], ch[1])
		}
	}
	return g
}

// TestCertifyVerdictOnly pins the verdict-only decision: Certify(g,
// nil) rejects a non-Banyan graph, a tail cycle (Banyan, but failing
// P(*,n)) and a non-Banyan n = 3 wiring that passes both P families,
// whose rejection runs the labels and their failed verification, and
// the builder it runs on rejects each without allocating once warm, so
// no diagnostic report is built. (The pin holds a builder rather than
// drawing from the pool, which the race detector empties at random.) On
// an equivalent graph the map it certifies is the one IsoToBaseline
// returns.
func TestCertifyVerdictOnly(t *testing.T) {
	b := newBuilder()
	nonBanyan, err := randnet.NonBanyan(6)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := randnet.TailCycleBanyan(6)
	if err != nil {
		t.Fatal(err)
	}
	bothP := wiring(3,
		[][2]uint32{{0, 0}, {1, 2}, {1, 3}, {2, 3}},
		[][2]uint32{{0, 1}, {0, 1}, {2, 3}, {2, 3}})
	if err := bothP.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep := Check(bothP); rep.Banyan || !midigraph.AllOK(rep.Prefix) || !midigraph.AllOK(rep.Suffix) {
		t.Fatalf("both-P wiring fails a P family or is Banyan:\n%v", rep)
	}
	for name, g := range map[string]*midigraph.Graph{"non-banyan": nonBanyan, "tail-cycle": tail, "both-p-non-banyan": bothP} {
		if Certify(g, nil) {
			t.Fatalf("%s accepted", name)
		}
		if allocs := testing.AllocsPerRun(20, func() { b.certify(g) }); allocs != 0 {
			t.Errorf("%s: rejection allocates %v times", name, allocs)
		}
	}
	g := topology.MustBuild(topology.NameOmega, 6).Graph
	var got []uint64
	if !Certify(g, func(labels []uint64) { got = slices.Clone(labels) }) {
		t.Fatal("omega rejected")
	}
	want, err := IsoToBaseline(g)
	if err != nil {
		t.Fatal(err)
	}
	h := g.CellsPerStage()
	for s := range want.Maps {
		if !slices.Equal(got[s*h:(s+1)*h], want.Maps[s]) {
			t.Fatalf("stage %d: Certify %v, IsoToBaseline %v", s, got[s*h:(s+1)*h], want.Maps[s])
		}
	}
}

// TestBaselineLabelsExhaustiveN3 runs the labeler on every n = 3 graph
// whose connections are valid (2520² of them). BaselineLabels plus
// verifyArcs, with no oracle, must accept exactly the graphs that are
// Banyan and pass P(1,*) and P(*,n) (55,296), every accepted map must
// pass Isomorphism.Verify, and no Banyan graph may have labels that pair
// but fail verifyArcs: the theorem rules that case out, so nothing
// outside the labels decides it.
func TestBaselineLabelsExhaustiveN3(t *testing.T) {
	if testing.Short() {
		t.Skip("6.35M graphs take a few seconds")
	}
	conns := census.Connections(2)
	b := newBuilder()
	ref := midigraph.NewAnalyzer()
	base := topology.Baseline(3)
	g := midigraph.New(3)
	labels := make([]uint64, 3*4)
	var prefix, suffix []midigraph.WindowResult
	accepted, banyanUnverified := 0, 0
	for _, c0 := range conns {
		for x := range c0[0] {
			g.SetChildren(0, uint32(x), uint32(c0[0][x]), uint32(c0[1][x]))
		}
		for _, c1 := range conns {
			for x := range c1[0] {
				g.SetChildren(1, uint32(x), uint32(c1[0][x]), uint32(c1[1][x]))
			}
			prefix, suffix = ref.CheckPrefix(g, prefix), ref.CheckSuffix(g, suffix)
			want := ref.Banyan(g) && midigraph.AllOK(prefix) && midigraph.AllOK(suffix)
			swept := b.an.BaselineLabels(g, labels)
			got := swept && b.verifyArcs(labels, g, base)
			if got != want {
				t.Fatalf("labels certified=%t, characterization=%t on %v %v", got, want, c0, c1)
			}
			if swept && !got && ref.Banyan(g) {
				banyanUnverified++
			}
			if !got {
				continue
			}
			accepted++
			iso := Isomorphism{Maps: []perm.Perm{labels[0:4], labels[4:8], labels[8:12]}}
			if err := iso.Verify(g, base); err != nil {
				t.Fatalf("%v %v: %v", c0, c1, err)
			}
		}
	}
	if accepted != 55296 || banyanUnverified != 0 {
		t.Fatalf("accepted %d graphs with %d Banyan graphs whose labels pair but fail to verify, want 55296 and 0",
			accepted, banyanUnverified)
	}
}
