package min

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand/v2"
	"testing"

	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// faultGoldenPlans are the fault plans the simulation goldens pin, by
// family. Between them they draw every random kind (alone and mixed),
// hit the gap walk's rate-1 edge, and pin faults on elements the
// random draws also hit, where the pinned fault must win.
var faultGoldenPlans = []struct {
	family string
	plan   FaultPlan
}{
	{"dead+link", FaultPlan{SwitchDeadRate: 0.03, LinkDownRate: 0.02}},
	{"dead+stuck+link", FaultPlan{SwitchDeadRate: 0.02, SwitchStuckRate: 0.03, LinkDownRate: 0.02}},
	{"stuck", FaultPlan{SwitchStuckRate: 0.05}},
	{"rate1", FaultPlan{SwitchDeadRate: 0.05, SwitchStuckRate: 1}},
	{"pinned+random", FaultPlan{
		Faults: []Fault{
			{Kind: SwitchStuck0, Stage: 1, Cell: 0},
			{Kind: SwitchDead, Stage: 2, Cell: 1},
			{Kind: LinkDown, Stage: 0, Link: 3},
		},
		SwitchDeadRate: 0.3, SwitchStuckRate: 0.3, LinkDownRate: 0.3,
	}},
}

// simulateGolden pins Simulate under faults: per plan family, the
// SHA-256 of json.Marshal(Simulate(...)) over the catalog at n = 3..8
// and one tail cycle, under every kernel and 1 or 3 workers. A change
// to the fault draw order, the realized state or either kernel's fault
// algebra moves a digest. The "relabeled/" families pin the same runs,
// intact and under every plan, on relabeled catalog wirings, and
// "intact" pins every scenario on the intact fabric.
var simulateGolden = map[string]string{
	"dead+link":       "a7be9c8d51f0703085a2a28ef013e9d6dddd56ddadcea79e8e1b5d4393a4c896",
	"dead+stuck+link": "ca9391757562d96c78be8a64e47578b847e45797367498605f5fb1ace351025e",
	"stuck":           "5dfe72fcf2194f0211788d94855d72845533bd0457f1850619683364aa5182d1",
	"rate1":           "0086d1a89bbba74a006b2dc582a485bde8890fcbef5b7073c962324a2885c36a",
	"pinned+random":   "dd22975fe1dfdad56cd913527ce0d43b75081da6d3ce65c1cb9e39f418a97e58",

	"relabeled/intact":          "a5b6419d9fa39fae3aba9cbd026a35eddc1092a2d8720efc164307ac76af6650",
	"relabeled/dead+link":       "50402161730ff5b7060fd943e71c9554bd5364fd4dce99e456eefdcfc3166d8f",
	"relabeled/dead+stuck+link": "3ed9252d26f860f53c016ccd1db79bf171b775c66d3f5e3fb2addb21ce0ef972",
	"relabeled/stuck":           "d218f1e400e057c319dd9a3b9a4ccaa0352bed7000bebbe17e99b370b633e5a9",
	"relabeled/rate1":           "4089f89d0138f16635599eddc2fe0e0a3ace24d60bfe93a5d2dca4a1d4f92306",
	"relabeled/pinned+random":   "6111a956be995a1205d7d1c98a47705cc76be1f61841a3ded65c8ecbdd633efe",

	"intact": "ac28a83faed75927f5fe9f00fabf75782da49704abf29dc31e5c65bd8b8a4497",
}

// simulateBufferedGolden pins SimulateBuffered under the same plans,
// with the same relabeled families and an intact family of its own.
var simulateBufferedGolden = map[string]string{
	"dead+link":       "171d9f4851ce16cf298debea5b38ca105442450017f1fec3c71fb05c3391400b",
	"dead+stuck+link": "d5313f511f4308cdb544d75c34dfa3bb78a2a77922f7780163f9b5faafad7825",
	"stuck":           "7c26247cc6a1dee743eca8aee7d65d25a53792d51a66ec95ae58b01432836c58",
	"rate1":           "d34cc2cacaf4e6e777e4493b6cb85325f990e4d2da5f383e3056226ff95e49d5",
	"pinned+random":   "502b2a66615dd0a0d59f8f723bf985ba61c0ce1f269ca46c8b2a20c39b55349a",

	"relabeled/intact":          "948784206c0b347ea7ce9084d89d811e4e2eb14b88ac9ec61dfa432b802ea183",
	"relabeled/dead+link":       "00547afa8877f1306241d2bbf2031aff9ce601efeb8eb9c97973a37414779f42",
	"relabeled/dead+stuck+link": "bc6bdc935f65940d4296442698a5cf90d3564cdb41e91cee9e69913a78bdd293",
	"relabeled/stuck":           "308156faec9c65e9846fe53e2d9cfe13e880cc1d67d6a81150a2941251191541",
	"relabeled/rate1":           "99a330389c8b0b3bf5765f96c80d27ad3b7d7e21603f245be6c16d847e40bb31",
	"relabeled/pinned+random":   "d9aabd05237f47d6f7545684c507978eafdd5e94ac0fc218f40995b69b5ad6aa",

	"intact": "a50a51811b04f282d386a2082e92019b1061cf9317c2c02df7daa50be031578e",
}

// digestLine hashes one result's JSON as a line and returns the bytes.
func digestLine(t *testing.T, h hash.Hash, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%s\n", b)
	return b
}

// waveRun is one (kernel, workers) execution of a wave golden.
type waveRun struct {
	kernel  Kernel
	workers int
}

// allWaveRuns is every kernel under 1 and 3 workers; scalarWaveRuns
// leaves out KernelBit, for wirings the bit kernel refuses (every
// wiring that is not Baseline-equivalent).
var (
	allWaveRuns    = []waveRun{{KernelScalar, 1}, {KernelScalar, 3}, {KernelBit, 1}, {KernelBit, 3}, {KernelAuto, 1}, {KernelAuto, 3}}
	scalarWaveRuns = []waveRun{{KernelScalar, 1}, {KernelScalar, 3}, {KernelAuto, 1}, {KernelAuto, 3}}
)

// digestWaves runs Simulate on nw under every run with opts, feeds each
// result to h and requires all of them to be byte-identical to the
// first.
func digestWaves(t *testing.T, h hash.Hash, label string, nw *Network, runs []waveRun, opts ...Option) {
	t.Helper()
	var ref []byte
	for _, r := range runs {
		st, err := Simulate(context.Background(), nw, append(opts, WithKernel(r.kernel), WithWorkers(r.workers))...)
		if err != nil {
			t.Fatalf("%s %s n=%d %+v: %v", label, nw.Name(), nw.Stages(), r, err)
		}
		b := digestLine(t, h, st)
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Errorf("%s %s n=%d %+v differs from %+v:\n%s\n%s", label, nw.Name(), nw.Stages(), r, runs[0], b, ref)
		}
	}
}

// checkDigest compares h's digest with the committed one for key.
func checkDigest(t *testing.T, golden map[string]string, key string, h hash.Hash) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != golden[key] {
		t.Errorf("%s: digest %s, want %s", key, got, golden[key])
	}
}

// relabeledNets returns one seeded relabeling (randnet.RelabelLinks) of
// every catalog network at n = lo..hi, each named "relabeled-" plus the
// catalog name. Its cells carry swapped child slots.
func relabeledNets(t *testing.T, lo, hi int) []*Network {
	t.Helper()
	var nets []*Network
	for i, name := range CatalogNames() {
		for n := lo; n <= hi; n++ {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(i)))
			topo, err := topology.FromLinkPerms("relabeled-"+name, n, randnet.RelabelLinks(rng, MustBuild(name, n).topo.LinkPerms))
			if err != nil {
				t.Fatalf("relabeled %s n=%d: %v", name, n, err)
			}
			nets = append(nets, newNetwork(topo))
		}
	}
	return nets
}

// TestSimulateGolden runs every golden plan on every catalog network at
// n = 3..8 under kernels scalar, bit and auto with 1 and 3 workers, and
// on the tail cycle (n = 6) under the scalar kernel. 130 waves cover two
// 64-wave batches plus a scalar remainder. Every run of one (network,
// plan) must be byte-identical to the scalar single-worker run, and all
// of them feed the family's digest. The relabeled families run the
// intact fabric and every golden plan on seeded relabelings of the
// catalog at n = 3..8, whose cells carry swapped child slots.
func TestSimulateGolden(t *testing.T) {
	var nets []*Network
	for _, name := range CatalogNames() {
		for n := 3; n <= 8; n++ {
			nets = append(nets, MustBuild(name, n))
		}
	}
	tc, err := TailCycle(6)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tc)
	relabeled := relabeledNets(t, 3, 8)
	for _, fp := range faultGoldenPlans {
		h := sha256.New()
		for _, nw := range nets {
			runs := allWaveRuns
			if nw.Name() == "tail-cycle" {
				runs = allWaveRuns[:2]
			}
			digestWaves(t, h, fp.family, nw, runs, WithWaves(130), WithSeed(7), WithFaults(fp.plan))
		}
		checkDigest(t, simulateGolden, fp.family, h)
	}
	for _, fp := range append([]struct {
		family string
		plan   FaultPlan
	}{{"intact", FaultPlan{}}}, faultGoldenPlans...) {
		h := sha256.New()
		for _, nw := range relabeled {
			digestWaves(t, h, "relabeled/"+fp.family, nw, allWaveRuns, WithWaves(130), WithSeed(7), WithFaults(fp.plan))
		}
		checkDigest(t, simulateGolden, "relabeled/"+fp.family, h)
	}
}

// goldenLoads are the offered loads the intact golden cycles through:
// the unthinned default and two thinned levels.
var goldenLoads = []float64{1, 0.75, 0.4}

// TestSimulateIntactGolden pins Simulate on the intact fabric: every
// catalog network at n = 2..8, the tail cycle (n = 6, Banyan but not
// Baseline-equivalent) and a double-arc wiring (n = 5, non-Banyan),
// each under every registered scenario at a load cycled through
// goldenLoads, with 1 and 3 workers. The catalog runs every kernel; the
// tail cycle and the double-arc wiring run scalar and auto, since the
// bit kernel admits only Baseline-equivalent wirings.
func TestSimulateIntactGolden(t *testing.T) {
	var nets []*Network
	for _, name := range CatalogNames() {
		for n := 2; n <= 8; n++ {
			nets = append(nets, MustBuild(name, n))
		}
	}
	tc, err := TailCycle(6)
	if err != nil {
		t.Fatal(err)
	}
	da, err := FromLinkPerms("double-arc", 5, doubleArcWiring(5, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tc, da)
	h := sha256.New()
	for i, nw := range nets {
		runs := allWaveRuns
		if nw == tc || nw == da {
			runs = scalarWaveRuns
		}
		for k, sc := range ScenarioNames() {
			load := goldenLoads[(i+k)%len(goldenLoads)]
			digestWaves(t, h, "intact "+sc, nw, runs, WithWaves(130), WithSeed(5), WithScenario(sc), WithLoad(load))
		}
	}
	checkDigest(t, simulateGolden, "intact", h)
}

// digestBuffered runs SimulateBuffered on nw with opts under 1 and 3
// workers, feeds both results to h and requires them to agree byte for
// byte.
func digestBuffered(t *testing.T, h hash.Hash, label string, nw *Network, opts ...Option) {
	t.Helper()
	var ref []byte
	for _, workers := range []int{1, 3} {
		st, err := SimulateBuffered(context.Background(), nw, append(opts, WithWorkers(workers))...)
		if err != nil {
			t.Fatalf("%s %s n=%d: %v", label, nw.Name(), nw.Stages(), err)
		}
		b := digestLine(t, h, st)
		if ref == nil {
			ref = b
		} else if !bytes.Equal(b, ref) {
			t.Errorf("%s %s n=%d: workers=3 differs from workers=1", label, nw.Name(), nw.Stages())
		}
	}
}

// TestSimulateBufferedGolden pins SimulateBuffered under the golden
// plans: every catalog network at n = 3..5 and the tail cycle (n = 4),
// with both arbiters, one and two lanes, and 1 or 3 workers over three
// replications; the worker counts must agree byte for byte. The
// relabeled families run the same matrix, intact and under every plan,
// on seeded relabelings of the catalog at n = 3..5.
func TestSimulateBufferedGolden(t *testing.T) {
	var nets []*Network
	for _, name := range CatalogNames() {
		for n := 3; n <= 5; n++ {
			nets = append(nets, MustBuild(name, n))
		}
	}
	tc, err := TailCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tc)
	run := func(h hash.Hash, family string, nets []*Network, plan FaultPlan) {
		for _, nw := range nets {
			for _, arb := range []Arbiter{ArbiterRandom, ArbiterRoundRobin} {
				for lanes := 1; lanes <= 2; lanes++ {
					digestBuffered(t, h, fmt.Sprintf("%s %s lanes=%d", family, arb, lanes), nw,
						WithReplications(3), WithCycles(120), WithWarmup(20),
						WithQueue(2), WithLanes(lanes), WithArbiter(arb), WithLoad(0.7),
						WithSeed(11), WithFaults(plan))
				}
			}
		}
	}
	for _, fp := range faultGoldenPlans {
		h := sha256.New()
		run(h, fp.family, nets, fp.plan)
		checkDigest(t, simulateBufferedGolden, fp.family, h)
	}
	relabeled := relabeledNets(t, 3, 5)
	for _, fp := range append([]struct {
		family string
		plan   FaultPlan
	}{{"intact", FaultPlan{}}}, faultGoldenPlans...) {
		h := sha256.New()
		run(h, "relabeled/"+fp.family, relabeled, fp.plan)
		checkDigest(t, simulateBufferedGolden, "relabeled/"+fp.family, h)
	}
}

// TestSimulateBufferedIntactGolden pins SimulateBuffered on the intact
// fabric: every catalog network at n = 3..5, the tail cycle (n = 4) and
// a double-arc wiring (n = 4), under every arbiter and lane select,
// lanes {1, 2, 4} and queue {1, 4}, with 1 and 3 workers.
func TestSimulateBufferedIntactGolden(t *testing.T) {
	var nets []*Network
	for _, name := range CatalogNames() {
		for n := 3; n <= 5; n++ {
			nets = append(nets, MustBuild(name, n))
		}
	}
	tc, err := TailCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	da, err := FromLinkPerms("double-arc", 4, doubleArcWiring(4, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, tc, da)
	h := sha256.New()
	for _, nw := range nets {
		for _, arb := range []Arbiter{ArbiterRandom, ArbiterRoundRobin} {
			for _, ls := range []LaneSelect{LaneShortest, LaneByDst, LaneRandom} {
				for _, lanes := range []int{1, 2, 4} {
					for _, queue := range []int{1, 4} {
						digestBuffered(t, h, fmt.Sprintf("intact %s %s lanes=%d queue=%d", arb, ls, lanes, queue), nw,
							WithReplications(2), WithCycles(80), WithWarmup(10),
							WithQueue(queue), WithLanes(lanes), WithArbiter(arb), WithLaneSelect(ls),
							WithLoad(0.8), WithSeed(13))
					}
				}
			}
		}
	}
	checkDigest(t, simulateBufferedGolden, "intact", h)
}
