package sim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/topology"
)

// throughput runs waves of the pattern through one reused runner and
// returns the pooled delivered fraction of offered packets.
func throughput(t testing.TB, f *Fabric, pattern Traffic, waves int, rng *rand.Rand) float64 {
	t.Helper()
	r := f.NewWaveRunner()
	delivered, offered := 0, 0
	for w := 0; w < waves; w++ {
		res, err := r.RunTraffic(pattern, rng)
		if err != nil {
			t.Fatal(err)
		}
		delivered += res.Delivered
		offered += res.Offered
	}
	if offered == 0 {
		return 0
	}
	return float64(delivered) / float64(offered)
}

func fabricFor(t testing.TB, name string, n int) *Fabric {
	t.Helper()
	nw := topology.MustBuild(name, n)
	f, err := NewFabric(nw.LinkPerms)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFabricShapes(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	if f.N != 16 || f.H != 8 || f.Spans != 4 {
		t.Fatalf("shape: N=%d H=%d Spans=%d", f.N, f.H, f.Spans)
	}
	if !f.Banyan() {
		t.Fatal("omega fabric not banyan")
	}
	if _, err := NewFabric([]perm.Perm{perm.Identity(4), perm.Identity(8)}); err == nil {
		t.Error("mismatched perm sizes accepted")
	}
	// A 1-stage fabric is refused like every caller refuses it.
	wantMin := "sim: a fabric needs at least 2 stages, got 1"
	if _, err := NewFabric(nil); err == nil || err.Error() != wantMin {
		t.Errorf("1-stage fabric: err %v, want %q", err, wantMin)
	}
	// Past MaxFabricStages the table path's reach rows pass ~1 GB: the
	// compile is refused before it allocates them.
	want := "sim: 15 stages exceeds the fabric bound of 14"
	if _, err := NewFabric(topology.BaselineLinkPerms(MaxFabricStages + 1)); err == nil || err.Error() != want {
		t.Errorf("15-stage fabric: err %v, want %q", err, want)
	}
}

func TestWaveSinglePacket(t *testing.T) {
	// One packet, no contention: always delivered, on every network.
	rng := rand.New(rand.NewPCG(1, 0))
	for _, name := range topology.Names() {
		f := fabricFor(t, name, 4)
		for src := 0; src < f.N; src += 3 {
			for dst := 0; dst < f.N; dst += 5 {
				dsts := make([]int, f.N)
				for i := range dsts {
					dsts[i] = -1
				}
				dsts[src] = dst
				res, err := f.NewWaveRunner().RunWave(dsts, rng)
				if err != nil {
					t.Fatal(err)
				}
				if res.Offered != 1 || res.Delivered != 1 || res.Dropped != 0 || res.Misrouted != 0 {
					t.Fatalf("%s (%d->%d): %+v", name, src, dst, res)
				}
			}
		}
	}
}

func TestWaveConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	f := fabricFor(t, topology.NameBaseline, 5)
	dsts := make([]int, f.N)
	for trial := 0; trial < 50; trial++ {
		Uniform()(dsts, rng)
		res, err := f.NewWaveRunner().RunWave(dsts, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered+res.Dropped+res.Misrouted != res.Offered {
			t.Fatalf("conservation violated: %+v", res)
		}
		if res.Misrouted != 0 {
			t.Fatalf("banyan fabric misrouted: %+v", res)
		}
		drops := 0
		for _, d := range res.DropStage {
			drops += d
		}
		if drops != res.Dropped {
			t.Fatalf("per-stage drops %d != total %d", drops, res.Dropped)
		}
	}
}

func TestWaveAdmissiblePermutationAllDelivered(t *testing.T) {
	// Full permutation traffic realized by switch settings passes with
	// zero drops: uses a settings-realized permutation from the routing
	// layer's logic, rebuilt here by direct simulation of settings.
	rng := rand.New(rand.NewPCG(3, 0))
	nw := topology.MustBuild(topology.NameOmega, 4)
	f, err := NewFabric(nw.LinkPerms)
	if err != nil {
		t.Fatal(err)
	}
	// Trace every input through random fixed switch settings.
	settings := make([][]int, f.Spans)
	for s := range settings {
		settings[s] = make([]int, f.H)
		for c := range settings[s] {
			settings[s][c] = rng.IntN(2)
		}
	}
	dsts := make([]int, f.N)
	for src := 0; src < f.N; src++ {
		link := uint64(src)
		for s := 0; s < f.Spans; s++ {
			cell := link >> 1
			out := (link & 1) ^ uint64(settings[s][cell])
			link = cell<<1 | out
			if s < f.Spans-1 {
				link = nw.LinkPerms[s].Apply(link)
			}
		}
		dsts[src] = int(link)
	}
	res, err := f.NewWaveRunner().RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != f.N || res.Dropped != 0 {
		t.Fatalf("admissible permutation dropped packets: %+v", res)
	}
}

func TestUniformThroughputInRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	f := fabricFor(t, topology.NameOmega, 5)
	th := throughput(t, f, Uniform(), 100, rng)
	// Uniform full-load banyan throughput: well below 1 (blocking), well
	// above the hot-spot floor. The analytic recursion q_{k+1} =
	// 1-(1-q_k/2)^2 gives ~0.45 for n=5.
	if th < 0.30 || th > 0.70 {
		t.Fatalf("uniform throughput %v outside sane band", th)
	}
}

func TestSixNetworksStatisticallyEquivalent(t *testing.T) {
	// The systems-level corollary of the paper: isomorphic networks have
	// the same uniform-traffic throughput (up to sampling noise).
	waves := 200
	var ths []float64
	for _, name := range topology.Names() {
		f := fabricFor(t, name, 5)
		th := throughput(t, f, Uniform(), waves, rand.New(rand.NewPCG(42, 0)))
		ths = append(ths, th)
	}
	for i := 1; i < len(ths); i++ {
		if math.Abs(ths[i]-ths[0]) > 0.05 {
			t.Fatalf("throughputs diverge: %v", ths)
		}
	}
}

func TestHotSpotDegradesThroughput(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	f := fabricFor(t, topology.NameBaseline, 5)
	uni := throughput(t, f, Uniform(), 100, rng)
	hot := throughput(t, f, HotSpot(0, 0.5), 100, rng)
	if hot >= uni {
		t.Fatalf("hot-spot throughput %v not below uniform %v", hot, uni)
	}
}

func wave(tr Traffic, n int, rng *rand.Rand) []int {
	dsts := make([]int, n)
	tr(dsts, rng)
	return dsts
}

func TestTrafficPatterns(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 0))
	n := 16
	// Uniform: all destinations in range.
	for _, d := range wave(Uniform(), n, rng) {
		if d < 0 || d >= n {
			t.Fatal("uniform out of range")
		}
	}
	// Bernoulli(0): all idle; Bernoulli(1): all busy.
	for _, d := range wave(Bernoulli(0), n, rng) {
		if d != -1 {
			t.Fatal("Bernoulli(0) generated traffic")
		}
	}
	for _, d := range wave(Bernoulli(1), n, rng) {
		if d < 0 {
			t.Fatal("Bernoulli(1) left idle input")
		}
	}
	// BitReversal: self-inverse pattern.
	br := wave(BitReversal(), n, rng)
	for i, d := range br {
		if br[d] != i {
			t.Fatal("bit reversal not involutive")
		}
	}
	// RandomPermutation: a valid permutation each wave.
	seen := make([]bool, n)
	for _, d := range wave(RandomPermutation(), n, rng) {
		if seen[d] {
			t.Fatal("random permutation repeated destination")
		}
		seen[d] = true
	}
	// HotSpot(target, 1): everything to target.
	for _, d := range wave(HotSpot(3, 1), n, rng) {
		if d != 3 {
			t.Fatal("hotspot(1) missed target")
		}
	}
	// Tornado: fixed half-offset permutation.
	for i, d := range wave(Tornado(), n, rng) {
		if d != (i+n/2)%n {
			t.Fatal("tornado offset wrong")
		}
	}
	// Transpose: an involution for even bit-width (16 = 2^4).
	tp := wave(Transpose(), n, rng)
	for i, d := range tp {
		if tp[d] != i {
			t.Fatal("transpose not involutive for even width")
		}
	}
	// NearestNeighbor: successor permutation.
	for i, d := range wave(NearestNeighbor(), n, rng) {
		if d != (i+1)%n {
			t.Fatal("neighbor offset wrong")
		}
	}
	// Bursty(1, 1, 0): always the burst phase at full load.
	for _, d := range wave(Bursty(1, 1, 0), n, rng) {
		if d < 0 || d >= n {
			t.Fatal("bursty burst phase left idle input")
		}
	}
	// Bursty(0, 1, 0): always the idle phase at zero load.
	for _, d := range wave(Bursty(0, 1, 0), n, rng) {
		if d != -1 {
			t.Fatal("bursty idle phase generated traffic")
		}
	}
}

func TestScenarioRegistry(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0))
	names := ScenarioNames()
	if len(names) != len(Scenarios()) {
		t.Fatal("names/registry length mismatch")
	}
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Description == "" || sc.New == nil {
			t.Fatalf("malformed scenario %+v", sc)
		}
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		// Every scenario must produce a valid wave with defaults.
		tr := sc.New(DefaultScenarioParams())
		for _, d := range wave(tr, 16, rng) {
			if d < -1 || d >= 16 {
				t.Fatalf("scenario %q produced destination %d", sc.Name, d)
			}
		}
	}
	for _, want := range []string{"uniform", "bernoulli", "permutation", "bitreversal",
		"hotspot", "tornado", "transpose", "neighbor", "bursty"} {
		if _, ok := LookupScenario(want); !ok {
			t.Errorf("scenario %q missing", want)
		}
	}
	if _, ok := LookupScenario("nope"); ok {
		t.Error("LookupScenario accepted unknown name")
	}
}

func TestBanyanRejectsNonBanyanFabric(t *testing.T) {
	// With identity link permutations both switch ports of a stage-0
	// cell lead to the same child: paths are duplicated where they
	// exist and most destinations are unreachable. The compiled fabric
	// must still simulate, but Banyan() must report false.
	f, err := NewFabric([]perm.Perm{perm.Identity(8), perm.Identity(8)})
	if err != nil {
		t.Fatal(err)
	}
	if f.Banyan() {
		t.Fatal("identity fabric reported as Banyan")
	}
	// Pin the simulation behavior: a packet to an unreachable
	// destination is dropped (counted per stage), not misrouted.
	rng := rand.New(rand.NewPCG(21, 0))
	dsts := make([]int, f.N)
	for i := range dsts {
		dsts[i] = -1
	}
	dsts[0] = f.N - 1 // cell 0 cannot reach the top terminal via identity wiring
	res, err := f.NewWaveRunner().RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 1 || res.Delivered != 0 || res.Dropped != 1 {
		t.Fatalf("unreachable destination not dropped: %+v", res)
	}
	// And every classical network still passes.
	for _, name := range topology.Names() {
		if !fabricFor(t, name, 4).Banyan() {
			t.Errorf("%s fabric not Banyan", name)
		}
	}
}

func TestWaveRunnerMatchesOneShot(t *testing.T) {
	// A reused runner and a fresh one see identical rng streams, so
	// results must agree wave for wave.
	f := fabricFor(t, topology.NameOmega, 5)
	runner := f.NewWaveRunner()
	dsts := make([]int, f.N)
	for trial := 0; trial < 20; trial++ {
		Uniform()(dsts, rand.New(rand.NewPCG(uint64(trial), 1)))
		a, err := runner.RunWave(dsts, rand.New(rand.NewPCG(uint64(trial), 2)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.NewWaveRunner().RunWave(dsts, rand.New(rand.NewPCG(uint64(trial), 2)))
		if err != nil {
			t.Fatal(err)
		}
		if a.Offered != b.Offered || a.Delivered != b.Delivered ||
			a.Dropped != b.Dropped || a.Misrouted != b.Misrouted {
			t.Fatalf("reused runner diverged from a fresh one: %+v vs %+v", a, b)
		}
		for s := range a.DropStage {
			if a.DropStage[s] != b.DropStage[s] {
				t.Fatalf("per-stage drops diverged: %v vs %v", a.DropStage, b.DropStage)
			}
		}
	}
}

func TestBufferedConservationAndLatency(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	f := fabricFor(t, topology.NameOmega, 4)
	cfg := BufferedConfig{Pattern: Bernoulli(0.3), Queue: 4, Cycles: 2000, Warmup: 200}
	res, err := f.RunBuffered(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Latency is at least the pipeline depth.
	if res.MeanLatency < float64(f.Spans) {
		t.Fatalf("mean latency %v below pipeline depth %d", res.MeanLatency, f.Spans)
	}
	// Deliveries cannot exceed injections plus warmup backlog.
	slack := f.Spans * f.H * 2 * cfg.Queue
	if res.Delivered > res.Injected+slack {
		t.Fatalf("delivered %d >> injected %d", res.Delivered, res.Injected)
	}
	// Throughput roughly matches offered load at low load.
	if math.Abs(res.Throughput-0.3) > 0.08 {
		t.Fatalf("throughput %v far from offered 0.3", res.Throughput)
	}
	if res.MaxOccupancy > cfg.Queue {
		t.Fatalf("occupancy %d exceeded capacity %d", res.MaxOccupancy, cfg.Queue)
	}
}

func TestBufferedSaturation(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 0))
	f := fabricFor(t, topology.NameBaseline, 4)
	low, err := f.RunBuffered(BufferedConfig{Pattern: Bernoulli(0.2), Queue: 4, Cycles: 1500, Warmup: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	high, err := f.RunBuffered(BufferedConfig{Pattern: Bernoulli(1.0), Queue: 4, Cycles: 1500, Warmup: 200}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if high.Throughput <= low.Throughput {
		t.Fatalf("saturated throughput %v not above low-load %v", high.Throughput, low.Throughput)
	}
	if high.Throughput > 0.95 {
		t.Fatalf("saturated banyan throughput %v implausibly near 1", high.Throughput)
	}
	if high.MeanLatency <= low.MeanLatency {
		t.Fatalf("latency should grow with load: %v vs %v", high.MeanLatency, low.MeanLatency)
	}
	if high.Rejected == 0 {
		t.Fatal("full load should reject some injections")
	}
}

func TestBufferedConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	f := fabricFor(t, topology.NameOmega, 3)
	bad := []BufferedConfig{
		{Queue: 2, Cycles: 10},
		{Pattern: Bernoulli(0.5), Queue: 0, Cycles: 10},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 0},
	}
	for _, cfg := range bad {
		if _, err := f.RunBuffered(cfg, rng); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestWaveErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 0))
	f := fabricFor(t, topology.NameOmega, 3)
	if _, err := f.NewWaveRunner().RunWave(make([]int, 3), rng); err == nil {
		t.Error("short dsts accepted")
	}
	dsts := make([]int, f.N)
	dsts[0] = f.N + 1
	if _, err := f.NewWaveRunner().RunWave(dsts, rng); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	f := fabricFor(t, topology.NameFlip, 4)
	cfg := BufferedConfig{Pattern: Bernoulli(0.7), Queue: 3, Lanes: 2, Cycles: 500, Warmup: 50}
	r1, err := f.RunBuffered(cfg, rand.New(rand.NewPCG(11, 0)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.RunBuffered(cfg, rand.New(rand.NewPCG(11, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", r1, r2)
	}
}

func BenchmarkSimUniformWave(b *testing.B) {
	f := fabricFor(b, topology.NameOmega, 8)
	rng := rand.New(rand.NewPCG(12, 0))
	pattern := Uniform()
	runner := f.NewWaveRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.RunTraffic(pattern, rng); err != nil {
			b.Fatal(err)
		}
	}
}
