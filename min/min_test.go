package min

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestCatalogBuild(t *testing.T) {
	infos := Catalog()
	if len(infos) != 6 {
		t.Fatalf("catalog has %d entries, want 6", len(infos))
	}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("%s has no description", info.Name)
		}
		nw, err := Build(info.Name, 4)
		if err != nil {
			t.Fatalf("Build(%s): %v", info.Name, err)
		}
		if nw.Name() != info.Name || nw.Stages() != 4 || nw.Terminals() != 16 || nw.CellsPerStage() != 8 {
			t.Errorf("%s: wrong shape %d/%d/%d", info.Name, nw.Stages(), nw.Terminals(), nw.CellsPerStage())
		}
		if !nw.IsPIPID() {
			t.Errorf("%s: catalog network not PIPID", info.Name)
		}
		if rep := Check(nw); !rep.Equivalent {
			t.Errorf("%s: not baseline-equivalent:\n%s", info.Name, rep)
		}
	}
	if _, err := Build("nope", 4); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Build(Omega, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestFromPermsRoundTrip(t *testing.T) {
	omega := MustBuild(Omega, 4)

	lp, err := FromLinkPerms("copy", 4, omega.LinkPerms())
	if err != nil {
		t.Fatal(err)
	}
	if !lp.IsPIPID() {
		t.Error("PIPID structure not detected from link perms")
	}
	thetas, ok := omega.IndexPerms()
	if !ok {
		t.Fatal("omega not PIPID")
	}
	ip, err := FromIndexPerms("copy2", 4, thetas)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*Network{lp, ip} {
		eq, err := Equivalent(nw, omega)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%s: round trip lost equivalence", nw.Name())
		}
	}
	// Validation errors.
	if _, err := FromLinkPerms("bad", 4, omega.LinkPerms()[:1]); err == nil {
		t.Error("wrong perm count accepted")
	}
	if _, err := FromLinkPerms("bad", 4, [][]int{{0, 0}, {0, 1}, {1, 0}}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := FromIndexPerms("bad", 4, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}); err == nil {
		t.Error("short theta accepted")
	}
}

func TestBuilder(t *testing.T) {
	// Butterfly cascades in any order are baseline-equivalent (the
	// paper's corollary); build one by hand.
	nw, err := NewBuilder(4).
		Stage(Butterfly(2)).
		Stage(Butterfly(1)).
		Stage(Butterfly(3)).
		Build("cascade-213")
	if err != nil {
		t.Fatal(err)
	}
	if rep := Check(nw); !rep.Equivalent {
		t.Fatalf("cascade not equivalent:\n%s", rep)
	}

	// StageAll reconstructs Omega exactly.
	again, err := NewBuilder(5).StageAll(PerfectShuffle()).Build("omega-again")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.LinkPerms(), MustBuild(Omega, 5).LinkPerms(); !reflect.DeepEqual(got, want) {
		t.Error("StageAll(PerfectShuffle) differs from catalog Omega")
	}

	// Baseline via inverse subshuffles.
	b := NewBuilder(4)
	for s := 0; s < 3; s++ {
		b.Stage(InverseSubshuffle(4 - s))
	}
	base, err := b.Build("baseline-again")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := base.LinkPerms(), MustBuild(Baseline, 4).LinkPerms(); !reflect.DeepEqual(got, want) {
		t.Error("inverse-subshuffle cascade differs from catalog Baseline")
	}

	// Error paths: sticky and descriptive.
	if _, err := NewBuilder(4).Stage(Butterfly(7)).Stage(Butterfly(1)).Build("x"); err == nil ||
		!strings.Contains(err.Error(), "butterfly") {
		t.Errorf("bad butterfly index: %v", err)
	}
	if _, err := NewBuilder(4).Stage(PerfectShuffle()).Build("x"); err == nil {
		t.Error("missing stages accepted")
	}
	if _, err := NewBuilder(3).StageAll(PerfectShuffle()).Stage(PerfectShuffle()).Build("x"); err == nil {
		t.Error("extra stage accepted")
	}
	if _, err := NewBuilder(1).Build("x"); err == nil {
		t.Error("one-stage builder accepted")
	}
	if _, err := NewBuilder(4).StageAll(IndexBits(1, 0)).Build("x"); err == nil {
		t.Error("wrong-width IndexBits accepted")
	}
	flip, err := NewBuilder(3).StageAll(IndexBits(1, 2, 0)).Build("flip3")
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := Equivalent(flip, MustBuild(Flip, 3)); err != nil || !eq {
		t.Errorf("IndexBits flip not equivalent to catalog Flip: %v %v", eq, err)
	}
}

func TestCheckTailCycle(t *testing.T) {
	tc, err := TailCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	rep := Check(tc)
	if rep.Equivalent {
		t.Fatal("tail-cycle reported equivalent")
	}
	if !rep.Banyan {
		t.Error("tail-cycle is Banyan — the whole point of the counterexample")
	}
	if len(rep.Violations()) == 0 {
		t.Error("no window violations reported")
	}
	if !strings.Contains(rep.String(), "NOT baseline-equivalent") {
		t.Errorf("report text wrong:\n%s", rep)
	}
	if len(CheckAllWindows(tc)) != 10 { // n(n+1)/2 windows for n=4
		t.Errorf("window table has %d entries, want 10", len(CheckAllWindows(tc)))
	}
	// The exact oracle agrees with the characterization.
	eq, err := Equivalent(tc, MustBuild(Baseline, 4))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("oracle found tail-cycle equivalent to baseline")
	}
	if _, err := TailCycle(2); err == nil {
		t.Error("n=2 tail-cycle accepted")
	}
}

func TestIso(t *testing.T) {
	for _, name := range CatalogNames() {
		nw := MustBuild(name, 4)
		iso, err := Iso(nw)
		if err != nil {
			t.Fatalf("Iso(%s): %v", name, err)
		}
		if err := iso.Verify(nw, MustBuild(Baseline, 4)); err != nil {
			t.Errorf("Iso(%s) does not verify: %v", name, err)
		}
	}
	iso, err := IsoBetween(MustBuild(Omega, 4), MustBuild(Flip, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Verify(MustBuild(Omega, 4), MustBuild(Flip, 4)); err != nil {
		t.Errorf("IsoBetween does not verify: %v", err)
	}
	tc, _ := TailCycle(4)
	if _, err := Iso(tc); err == nil {
		t.Error("Iso accepted the counterexample")
	}
}

func TestIndependentStages(t *testing.T) {
	ok, err := IndependentStages(MustBuild(Omega, 5))
	if err != nil || !ok {
		t.Errorf("omega stages not independent: %v %v", ok, err)
	}
	tc, _ := TailCycle(4)
	if _, err := IndependentStages(tc); err == nil {
		t.Error("non-PIPID network accepted")
	}
}

func TestRoute(t *testing.T) {
	omega := MustBuild(Omega, 4)
	p, err := Route(omega, 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if p.Src != 5 || p.Dst != 12 || len(p.Hops) != 4 {
		t.Fatalf("bad path: %+v", p)
	}
	// Tag positions are a permutation of 0..n-1 for every catalog net.
	for _, name := range CatalogNames() {
		nw := MustBuild(name, 4)
		tags, err := TagPositions(nw)
		if err != nil {
			t.Fatalf("TagPositions(%s): %v", name, err)
		}
		seen := make([]bool, 4)
		for _, p := range tags {
			seen[p] = true
		}
		for b, s := range seen {
			if !s {
				t.Errorf("%s: destination bit %d never consumed (tags %v)", name, b, tags)
			}
		}
		// Every sampled pair routes, and the path must land on dst.
		for src := 0; src < nw.Terminals(); src += 5 {
			for dst := 0; dst < nw.Terminals(); dst += 3 {
				p, err := Route(nw, src, dst)
				if err != nil {
					t.Fatalf("%s: route %d->%d: %v", name, src, dst, err)
				}
				if p.Hops[len(p.Hops)-1].Cell*2+p.Hops[len(p.Hops)-1].OutPort != dst {
					t.Fatalf("%s: route %d->%d lands elsewhere: %+v", name, src, dst, p)
				}
			}
		}
	}
	// The non-PIPID tail-cycle network has no tag schedule but still
	// routes (Banyan ⇒ unique paths).
	tc, _ := TailCycle(4)
	if _, err := TagPositions(tc); err == nil {
		t.Error("TagPositions accepted non-PIPID network")
	}
	p, err = Route(tc, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if last := p.Hops[len(p.Hops)-1]; last.Cell*2+last.OutPort != 9 {
		t.Fatalf("tail-cycle route lands elsewhere: %+v", p)
	}
	if _, err := Route(omega, -1, 0); err == nil {
		t.Error("negative terminal accepted")
	}
	if _, err := Route(omega, 0, 99); err == nil {
		t.Error("out-of-range terminal accepted")
	}
}

func TestCountAdmissible(t *testing.T) {
	adm, total, err := CountAdmissible(MustBuild(Omega, 3))
	if err != nil {
		t.Fatal(err)
	}
	// N=8: 8! = 40320 total, 2^12 admissible (12 switches).
	if total != 40320 || adm != 4096 {
		t.Fatalf("admissible %d/%d, want 4096/40320", adm, total)
	}
	if _, _, err := CountAdmissible(MustBuild(Omega, 4)); err == nil {
		t.Error("N=16 enumeration accepted")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	nw := MustBuild(Omega, 5)
	ctx := context.Background()
	a, err := Simulate(ctx, nw, WithWaves(60), WithSeed(9), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(ctx, nw, WithWaves(60), WithSeed(9), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed results:\n%+v\n%+v", a, b)
	}
	if a.Offered == 0 || a.Delivered == 0 || a.Throughput.Mean <= 0 || a.Throughput.Mean > 1 {
		t.Fatalf("degenerate stats: %+v", a)
	}
	c, err := Simulate(ctx, nw, WithWaves(60), WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct seeds produced identical stats")
	}
}

func TestSimulateScenariosAndOptions(t *testing.T) {
	nw := MustBuild(Baseline, 4)
	ctx := context.Background()
	for _, sc := range Scenarios() {
		st, err := Simulate(ctx, nw, WithWaves(10), WithScenario(sc.Name))
		if err != nil {
			t.Fatalf("scenario %s: %v", sc.Name, err)
		}
		if st.Scenario != sc.Name {
			t.Errorf("scenario echoed as %q", st.Scenario)
		}
	}
	// Thinning: an explicit load halves the offered traffic of a
	// non-load-aware scenario.
	full, err := Simulate(ctx, nw, WithWaves(50), WithScenario("transpose"))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Simulate(ctx, nw, WithWaves(50), WithScenario("transpose"), WithLoad(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if half.Offered >= full.Offered {
		t.Errorf("WithLoad(0.5) did not thin: %d vs %d offered", half.Offered, full.Offered)
	}
	// Out-of-range loads error in both models instead of silently
	// saturating (load > 1 is a thinning no-op) or starving (load < 0).
	if _, err := Simulate(ctx, nw, WithLoad(1.5)); err == nil {
		t.Error("load 1.5 accepted by Simulate")
	}
	if _, err := SimulateBuffered(ctx, nw, WithLoad(-0.5), WithCycles(10)); err == nil {
		t.Error("load -0.5 accepted by SimulateBuffered")
	}
	// Misapplied options error instead of silently doing nothing.
	if _, err := Simulate(ctx, nw, WithQueue(4)); err == nil {
		t.Error("buffered-only option accepted by Simulate")
	}
	if _, err := SimulateBuffered(ctx, nw, WithWaves(5)); err == nil {
		t.Error("wave-only option accepted by SimulateBuffered")
	}
	if _, err := Simulate(ctx, nw, WithScenario("nope")); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestSimulateBuffered(t *testing.T) {
	nw := MustBuild(Flip, 4)
	ctx := context.Background()
	st, err := SimulateBuffered(ctx, nw,
		WithLoad(0.7), WithQueue(3), WithLanes(2), WithCycles(400), WithWarmup(40),
		WithReplications(3), WithSeed(5), WithArbiter(ArbiterRoundRobin),
		WithLaneSelect(LaneByDst))
	if err != nil {
		t.Fatal(err)
	}
	if st.Replications != 3 || st.Delivered == 0 || st.Injected == 0 {
		t.Fatalf("empty aggregate: %+v", st)
	}
	if st.Latency.Mean < float64(nw.Stages()) {
		t.Errorf("latency %v below pipeline depth", st.Latency.Mean)
	}
	if len(st.StageOccupancy) != nw.Stages() {
		t.Errorf("stage occupancy has %d entries", len(st.StageOccupancy))
	}
	// Determinism across worker counts, buffered flavor.
	b1, err := SimulateBuffered(ctx, nw, WithCycles(200), WithWarmup(20), WithReplications(4), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b4, err := SimulateBuffered(ctx, nw, WithCycles(200), WithWarmup(20), WithReplications(4), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b4) {
		t.Fatal("buffered results depend on worker count")
	}
	if _, err := SimulateBuffered(ctx, nw, WithQueue(0)); err == nil {
		t.Error("zero queue accepted")
	}
}

func TestSimulateCancellation(t *testing.T) {
	nw := MustBuild(Omega, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, nw, WithWaves(1<<20)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := SimulateBuffered(ctx, nw, WithReplications(1<<16), WithCycles(100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("buffered: want context.Canceled, got %v", err)
	}
}

// A network past the fabric's stage bound builds and routes, but both
// simulators report the compile error instead of exhausting memory.
func TestSimulatePastFabricBound(t *testing.T) {
	nw := MustBuild(Omega, 15)
	ctx := context.Background()
	const want = "sim: 15 stages exceeds the fabric bound of 14"
	if _, err := Simulate(ctx, nw, WithWaves(1)); err == nil || err.Error() != want {
		t.Fatalf("Simulate: err %v, want %q", err, want)
	}
	if _, err := SimulateBuffered(ctx, nw, WithCycles(1)); err == nil || err.Error() != want {
		t.Fatalf("SimulateBuffered: err %v, want %q", err, want)
	}
	if _, err := Route(nw, 0, nw.Terminals()-1); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticThroughput(t *testing.T) {
	nw := MustBuild(Omega, 6)
	st, err := Simulate(context.Background(), nw, WithWaves(400), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyticThroughput(6, 1.0)
	if d := st.Throughput.Mean - want; d > 0.02 || d < -0.02 {
		t.Errorf("measured %v vs analytic %v", st.Throughput.Mean, want)
	}
}

func TestDraw(t *testing.T) {
	out := MustBuild(Omega, 3).Draw(DrawOptions{Title: "omega, n=3", OneBased: true})
	if !strings.Contains(out, "omega, n=3") || !strings.Contains(out, "stage 1 -> 2:") {
		t.Errorf("draw output wrong:\n%s", out)
	}
	if !strings.Contains(MustBuild(Baseline, 3).Draw(DrawOptions{Tuples: true}), "(0,0)") {
		t.Error("tuple rendering missing")
	}
}

func TestFingerprint(t *testing.T) {
	omega := MustBuild(Omega, 5)
	if omega.Fingerprint() != MustBuild(Omega, 5).Fingerprint() {
		t.Error("identical constructions hash differently")
	}
	// Same wiring from a different construction path must collide.
	viaPerms, err := FromLinkPerms("custom", 5, omega.LinkPerms())
	if err != nil {
		t.Fatal(err)
	}
	if viaPerms.Fingerprint() != omega.Fingerprint() {
		t.Error("identical wiring from link perms hashes differently")
	}
	// Different wiring (even isomorphic wiring) must not, in practice.
	seen := map[uint64]string{omega.Fingerprint(): Omega}
	for _, name := range []string{Baseline, ReverseBaseline, Flip, IndirectCube, ModifiedDM} {
		fp := MustBuild(name, 5).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s and %s share fingerprint %x", name, prev, fp)
		}
		seen[fp] = name
	}
	if MustBuild(Omega, 4).Fingerprint() == omega.Fingerprint() {
		t.Error("different sizes share a fingerprint")
	}
}

func TestEquivalentMatrix(t *testing.T) {
	var nets []*Network
	for _, name := range CatalogNames() {
		nets = append(nets, MustBuild(name, 5))
	}
	tail, err := TailCycle(5)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tail)
	for _, workers := range []int{1, 4, 0} {
		got, err := EquivalentMatrix(nets, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range nets {
			for j := range nets {
				pairWant, err := Equivalent(nets[i], nets[j])
				if err != nil {
					t.Fatal(err)
				}
				if i == j {
					pairWant = true
				}
				if got[i][j] != pairWant {
					t.Errorf("workers=%d: matrix[%d][%d]=%v, want %v", workers, i, j, got[i][j], pairWant)
				}
			}
		}
	}
}
