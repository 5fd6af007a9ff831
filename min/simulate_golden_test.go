package min

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"
)

// faultGoldenPlans are the fault plans the simulation goldens pin, by
// family. Between them they draw every random kind (alone and mixed),
// hit the Bernoulli test's rate-1 edge, and pin faults on elements the
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
// algebra moves a digest.
var simulateGolden = map[string]string{
	"dead+link":       "bd32492b951d40cdc72d58af1c50ef3cb9efde04d204ad3226b816b20452caf2",
	"dead+stuck+link": "cf52b8677defa1d3443494a576494d1c6bc614a554d42d492f07e23310c7dca8",
	"stuck":           "235e6660ef35de720b193c60aa31283eb89153236535c008acff56e50e5ef7f0",
	"rate1":           "b1a1aa7507ad09825ca97f1ca142bfecba5a1e68da00bd3d5d1e28807f177753",
	"pinned+random":   "bad6d42d4c3c3cc80739e6895deb41349ea3b743a727a1334023f3d643c4c6f1",
}

// simulateBufferedGolden pins SimulateBuffered under the same plans.
var simulateBufferedGolden = map[string]string{
	"dead+link":       "d76548061b43ac221ed40c73e1f5fbbb3ad9d238d863097689c975895abbdae5",
	"dead+stuck+link": "a38a4a59d96f72cb6e1ece4c5ef3c9160260829966e554ef9a6b5c8d30b3ee8c",
	"stuck":           "9c0e10558e477fcce18b5e6ef121676b51ee50ec36ed4bf2e24d15b164302360",
	"rate1":           "64a164308283e64f21bddfd7fbae8590cc9772a7171ab79a388f59d1176c8f20",
	"pinned+random":   "5ffddc27e59b40a450009834e4a24bf3aba5c4f43a97ab376f6917aa3ea4a38c",
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

// TestSimulateGolden runs every golden plan on every catalog network at
// n = 3..8 under kernels scalar, bit and auto with 1 and 3 workers, and
// on the tail cycle (n = 6) under the scalar kernel. 130 waves cover two
// 64-wave batches plus a scalar remainder. Every run of one (network,
// plan) must be byte-identical to the scalar single-worker run, and all
// of them feed the family's digest.
func TestSimulateGolden(t *testing.T) {
	ctx := context.Background()
	type run struct {
		kernel  Kernel
		workers int
	}
	all := []run{{KernelScalar, 1}, {KernelScalar, 3}, {KernelBit, 1}, {KernelBit, 3}, {KernelAuto, 1}, {KernelAuto, 3}}
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
	for _, fp := range faultGoldenPlans {
		h := sha256.New()
		for _, nw := range nets {
			runs := all
			if nw.Name() == "tail-cycle" {
				runs = all[:2]
			}
			var ref []byte
			for _, r := range runs {
				st, err := Simulate(ctx, nw, WithWaves(130), WithSeed(7), WithFaults(fp.plan),
					WithKernel(r.kernel), WithWorkers(r.workers))
				if err != nil {
					t.Fatalf("%s %s n=%d %+v: %v", fp.family, nw.Name(), nw.Stages(), r, err)
				}
				b := digestLine(t, h, st)
				if ref == nil {
					ref = b
				} else if !bytes.Equal(b, ref) {
					t.Errorf("%s %s n=%d %+v differs from scalar/1:\n%s\n%s", fp.family, nw.Name(), nw.Stages(), r, b, ref)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != simulateGolden[fp.family] {
			t.Errorf("%s: simulate digest %s, want %s", fp.family, got, simulateGolden[fp.family])
		}
	}
}

// TestSimulateBufferedGolden pins SimulateBuffered under the golden
// plans: every catalog network at n = 3..5 and the tail cycle (n = 4),
// with both arbiters, one and two lanes, and 1 or 3 workers over three
// replications; the worker counts must agree byte for byte.
func TestSimulateBufferedGolden(t *testing.T) {
	ctx := context.Background()
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
	for _, fp := range faultGoldenPlans {
		h := sha256.New()
		for _, nw := range nets {
			for _, arb := range []Arbiter{ArbiterRandom, ArbiterRoundRobin} {
				for lanes := 1; lanes <= 2; lanes++ {
					var ref []byte
					for _, workers := range []int{1, 3} {
						st, err := SimulateBuffered(ctx, nw, WithReplications(3), WithCycles(120), WithWarmup(20),
							WithQueue(2), WithLanes(lanes), WithArbiter(arb), WithLoad(0.7),
							WithSeed(11), WithFaults(fp.plan), WithWorkers(workers))
						if err != nil {
							t.Fatalf("%s %s n=%d: %v", fp.family, nw.Name(), nw.Stages(), err)
						}
						b := digestLine(t, h, st)
						if ref == nil {
							ref = b
						} else if !bytes.Equal(b, ref) {
							t.Errorf("%s %s n=%d %s lanes=%d: workers=3 differs from workers=1", fp.family, nw.Name(), nw.Stages(), arb, lanes)
						}
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != simulateBufferedGolden[fp.family] {
			t.Errorf("%s: buffered digest %s, want %s", fp.family, got, simulateBufferedGolden[fp.family])
		}
	}
}
