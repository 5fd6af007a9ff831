package sim

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/topology"
)

// runOnce runs one replication with a context that is never done.
func runOnce(t *testing.T, r *BufferedRunner, rng *rand.Rand) BufferedResult {
	t.Helper()
	res, err := r.Run(context.Background(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBuffered runs one replication on a fresh runner for cfg.
func runBuffered(t *testing.T, f *Fabric, cfg BufferedConfig, rng *rand.Rand) BufferedResult {
	t.Helper()
	r, err := f.NewBufferedRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return runOnce(t, r, rng)
}

func TestBufferedRunnerMatchesOneShot(t *testing.T) {
	// A reused runner and a fresh one per replication see identical
	// rng streams, so results must agree replication for replication —
	// the reuse contract the engine depends on.
	f := fabricFor(t, topology.NameOmega, 4)
	cfg := BufferedConfig{Pattern: Bernoulli(0.8), Queue: 2, Lanes: 3, Cycles: 400, Warmup: 40}
	runner, err := f.NewBufferedRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		a := runOnce(t, runner, rand.New(rand.NewPCG(uint64(trial), 7)))
		b := runBuffered(t, f, cfg, rand.New(rand.NewPCG(uint64(trial), 7)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: reused runner diverged from one-shot:\n%+v\n%+v", trial, a, b)
		}
	}
}

func TestBufferedSaturationQueueOne(t *testing.T) {
	// The hardest backpressure corner: full load into depth-1 queues.
	// The fabric must stay live (deliveries happen), reject heavily at
	// the entry, never overfill a lane, and keep occupancy within the
	// single slot.
	rng := rand.New(rand.NewPCG(30, 0))
	f := fabricFor(t, topology.NameBaseline, 4)
	res := runBuffered(t, f, BufferedConfig{Pattern: Bernoulli(1.0), Queue: 1, Cycles: 2000, Warmup: 200}, rng)
	if res.Delivered == 0 {
		t.Fatal("queue=1 fabric deadlocked: nothing delivered")
	}
	if res.Rejected == 0 {
		t.Fatal("full load into queue=1 rejected nothing")
	}
	if res.MaxOccupancy > 1 {
		t.Fatalf("occupancy %d exceeded queue capacity 1", res.MaxOccupancy)
	}
	if res.Throughput <= 0 || res.Throughput > 0.95 {
		t.Fatalf("implausible saturated throughput %v", res.Throughput)
	}
}

func TestBufferedMultiLaneBeatsSingleLane(t *testing.T) {
	// Multi-lane storage exists to bypass head-of-line blocking, so at
	// saturation more lanes must not hurt and should measurably help.
	// Total buffering is held fixed (lanes x queue = 8) so the ordering
	// isn't a free-capacity artifact.
	f := fabricFor(t, topology.NameOmega, 5)
	th := func(lanes, queue int) float64 {
		t.Helper()
		res := runBuffered(t, f, BufferedConfig{
			Pattern: Bernoulli(1.0), Queue: queue, Lanes: lanes, Cycles: 4000, Warmup: 400,
		}, rand.New(rand.NewPCG(31, 0)))
		return res.Throughput
	}
	single := th(1, 8)
	multi := th(4, 2)
	if multi < single {
		t.Fatalf("multi-lane throughput %v below single-lane %v", multi, single)
	}
	if multi < single*1.02 {
		t.Logf("warning: multi-lane gain small: %v vs %v", multi, single)
	}
}

func TestBufferedLanePolicies(t *testing.T) {
	// Every lane policy must run, conserve packets and stay within
	// capacity; shortest-lane should not be beaten badly by the others.
	f := fabricFor(t, topology.NameBaseline, 4)
	for _, lp := range []LanePolicy{LaneShortest, LaneByDst, LaneRandom} {
		res := runBuffered(t, f, BufferedConfig{
			Pattern: Bernoulli(0.9), Queue: 2, Lanes: 2, Cycles: 1000, Warmup: 100, LaneSelect: lp,
		}, rand.New(rand.NewPCG(32, 0)))
		if res.Delivered == 0 {
			t.Fatalf("%v: nothing delivered", lp)
		}
		if res.MaxOccupancy > 2 {
			t.Fatalf("%v: occupancy %d exceeded lane capacity", lp, res.MaxOccupancy)
		}
	}
	if LaneShortest.String() != "shortest" || LaneByDst.String() != "bydst" ||
		LaneRandom.String() != "random" || LanePolicy(9).String() == "" {
		t.Error("LanePolicy.String broken")
	}
}

func TestBufferedArbiters(t *testing.T) {
	// Round-robin arbitration consumes no rng for conflicts, so with a
	// deterministic pattern the whole run is rng-free and two distinct
	// seeds must agree exactly.
	f := fabricFor(t, topology.NameOmega, 4)
	cfg := BufferedConfig{
		Queue: 4, Cycles: 500, Warmup: 50,
		Pattern: Tornado(), Arbiter: ArbRoundRobin,
	}
	a := runBuffered(t, f, cfg, rand.New(rand.NewPCG(1, 0)))
	b := runBuffered(t, f, cfg, rand.New(rand.NewPCG(99, 5)))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round-robin run consumed rng:\n%+v\n%+v", a, b)
	}
	cfg.Arbiter = ArbRandom
	runBuffered(t, f, cfg, rand.New(rand.NewPCG(2, 0)))
	if ArbRandom.String() != "random" || ArbRoundRobin.String() != "roundrobin" ||
		ArbiterPolicy(9).String() == "" {
		t.Error("ArbiterPolicy.String broken")
	}
}

func TestBufferedRoundRobinStatePerStage(t *testing.T) {
	// Regression: lane/arbiter round-robin pointers are per (stage,
	// port), not shared across stages. After a heavy multi-lane run
	// every stage must have exercised its own slice of the state.
	f := fabricFor(t, topology.NameOmega, 4)
	r, err := f.NewBufferedRunner(BufferedConfig{
		Pattern: Bernoulli(1.0), Queue: 2, Lanes: 3, Cycles: 500, Warmup: 0, Arbiter: ArbRoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnce(t, r, rand.New(rand.NewPCG(50, 0)))
	ports := f.H * 2
	for s := 0; s < f.Spans; s++ {
		lanesTouched, arbTouched := false, false
		for p := 0; p < ports; p++ {
			if r.rrLane[s*ports+p] != 0 {
				lanesTouched = true
			}
			if r.rrIn[s*ports+p] != 0 {
				arbTouched = true
			}
		}
		if !lanesTouched {
			t.Errorf("stage %d lane round-robin state never advanced", s)
		}
		if !arbTouched {
			t.Errorf("stage %d arbiter round-robin state never advanced", s)
		}
	}
}

func TestBufferedDroppedCounted(t *testing.T) {
	// On a non-Banyan fabric (identity wiring) most destinations are
	// unreachable; those packets must surface in Dropped instead of
	// vanishing silently.
	f, err := NewFabric([]perm.Perm{perm.Identity(8), perm.Identity(8)})
	if err != nil {
		t.Fatal(err)
	}
	res := runBuffered(t, f, BufferedConfig{
		Pattern: Bernoulli(1.0), Queue: 4, Cycles: 1000, Warmup: 0,
	}, rand.New(rand.NewPCG(33, 0)))
	if res.Dropped == 0 {
		t.Fatalf("unreachable packets not counted as dropped: %+v", res)
	}
	if res.Injected < res.Delivered+res.Dropped+res.InFlight {
		t.Fatalf("packet conservation violated: %+v", res)
	}
	// A Banyan fabric drops nothing.
	banyan := fabricFor(t, topology.NameOmega, 4)
	bres := runBuffered(t, banyan, BufferedConfig{
		Pattern: Bernoulli(0.9), Queue: 2, Cycles: 1000, Warmup: 100,
	}, rand.New(rand.NewPCG(34, 0)))
	if bres.Dropped != 0 {
		t.Fatalf("banyan fabric dropped %d packets", bres.Dropped)
	}
}

func TestBufferedPatternDriven(t *testing.T) {
	// The registry drives injection: a Thinned tornado pattern below
	// its saturation point must deliver roughly the offered load, and a
	// hotspot pattern (single-output bottleneck) must congest below it.
	f := fabricFor(t, topology.NameBaseline, 5)
	run := func(p Traffic) BufferedResult {
		t.Helper()
		res := runBuffered(t, f, BufferedConfig{
			Queue: 4, Cycles: 3000, Warmup: 300, Pattern: p,
		}, rand.New(rand.NewPCG(35, 0)))
		return res
	}
	tornado := run(Thinned(0.15, Tornado()))
	if tornado.Throughput < 0.10 || tornado.Throughput > 0.20 {
		t.Fatalf("thinned tornado throughput %v far from offered 0.15", tornado.Throughput)
	}
	hot := run(Thinned(0.15, HotSpot(0, 0.6)))
	if hot.Throughput >= tornado.Throughput {
		t.Fatalf("hotspot throughput %v not below tornado %v", hot.Throughput, tornado.Throughput)
	}
}

func TestBufferedPercentilesAndOccupancy(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	res := runBuffered(t, f, BufferedConfig{
		Pattern: Bernoulli(0.9), Queue: 4, Cycles: 2000, Warmup: 200,
	}, rand.New(rand.NewPCG(36, 0)))
	if res.P50 < f.Spans || res.P50 > res.P95 || res.P95 > res.P99 {
		t.Fatalf("percentiles disordered: p50=%d p95=%d p99=%d (spans %d)",
			res.P50, res.P95, res.P99, f.Spans)
	}
	if float64(res.P50) > res.MeanLatency*2+float64(f.Spans) {
		t.Fatalf("p50 %d implausible against mean %v", res.P50, res.MeanLatency)
	}
	if len(res.StageOccupancy) != f.Spans {
		t.Fatalf("occupancy has %d stages, want %d", len(res.StageOccupancy), f.Spans)
	}
	for s, occ := range res.StageOccupancy {
		if occ < 0 || occ > float64(f.H*2*4) {
			t.Fatalf("stage %d occupancy %v out of range", s, occ)
		}
	}
	// At 0.9 load the entry stage must actually hold packets.
	if res.StageOccupancy[0] == 0 {
		t.Fatal("entry stage occupancy zero under heavy load")
	}
}

func TestBufferedThinnedTraffic(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 0))
	dsts := make([]int, 256)
	// Thinned(0) idles everything; Thinned(1) is the identity wrapper.
	Thinned(0, Uniform())(dsts, rng)
	for _, d := range dsts {
		if d != -1 {
			t.Fatal("Thinned(0) injected")
		}
	}
	Thinned(1, Tornado())(dsts, rng)
	for i, d := range dsts {
		if d != (i+len(dsts)/2)%len(dsts) {
			t.Fatal("Thinned(1) altered the inner pattern")
		}
	}
	busy := 0
	Thinned(0.5, Uniform())(dsts, rng)
	for _, d := range dsts {
		if d >= 0 {
			busy++
		}
	}
	if busy < 64 || busy > 192 {
		t.Fatalf("Thinned(0.5) kept %d of 256 inputs busy", busy)
	}
}

func TestBufferedRunnerConfigValidation(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 3)
	bad := []BufferedConfig{
		{Queue: 2, Cycles: 10},
		{Pattern: Bernoulli(0.5), Queue: 0, Cycles: 10},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 0},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10, Lanes: -1},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10, Warmup: -1},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10, Arbiter: ArbiterPolicy(7)},
		{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10, LaneSelect: LanePolicy(7)},
	}
	for _, cfg := range bad {
		if _, err := f.NewBufferedRunner(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := f.NewBufferedRunner(BufferedConfig{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedPacketBound: a config whose packet storage exceeds
// MaxBufferedPackets is refused by ValidateBuffered and
// NewBufferedRunner before anything is sized, including values whose
// product overflows an int; storage exactly at the bound is accepted
// by ValidateBuffered.
func TestBufferedPacketBound(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 10)
	ports := f.Spans * f.N
	base := BufferedConfig{Pattern: Bernoulli(0.5), Queue: 4, Cycles: 10}
	for _, over := range []struct{ queue, lanes int }{
		{1 << 40, 1},
		{1, 1 << 40},
		{1 << 40, 1 << 40},
		{1<<62 - 1, 3},
		{MaxBufferedPackets/ports + 1, 1},
		{MaxBufferedPackets / ports, 2},
	} {
		cfg := base
		cfg.Queue, cfg.Lanes = over.queue, over.lanes
		if err := f.ValidateBuffered(cfg); !errors.Is(err, ErrBufferTooLarge) {
			t.Errorf("queue %d lanes %d: ValidateBuffered error %v, want ErrBufferTooLarge", over.queue, over.lanes, err)
		}
		if _, err := f.NewBufferedRunner(cfg); !errors.Is(err, ErrBufferTooLarge) {
			t.Errorf("queue %d lanes %d: NewBufferedRunner error %v, want ErrBufferTooLarge", over.queue, over.lanes, err)
		}
	}
	at := base
	at.Queue = MaxBufferedPackets / ports
	if err := f.ValidateBuffered(at); err != nil {
		t.Errorf("queue %d at the bound: %v", at.Queue, err)
	}
}

// TestBufferedCycleBound: Warmup+Cycles past MaxBufferedCycles, which
// would size the latency histogram, is refused before anything is
// sized, including sums that overflow an int; a sum exactly at the
// bound is accepted by ValidateBuffered (which sizes nothing).
func TestBufferedCycleBound(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	base := BufferedConfig{Pattern: Bernoulli(0.5), Queue: 4}
	for _, over := range []struct{ warmup, cycles int }{
		{0, 1 << 40},
		{1 << 40, 1},
		{0, math.MaxInt},
		{math.MaxInt, math.MaxInt},
		{1, MaxBufferedCycles},
		{MaxBufferedCycles, 1},
	} {
		cfg := base
		cfg.Warmup, cfg.Cycles = over.warmup, over.cycles
		if err := f.ValidateBuffered(cfg); !errors.Is(err, ErrBufferTooLarge) {
			t.Errorf("warmup %d cycles %d: ValidateBuffered error %v, want ErrBufferTooLarge", over.warmup, over.cycles, err)
		}
		if _, err := f.NewBufferedRunner(cfg); !errors.Is(err, ErrBufferTooLarge) {
			t.Errorf("warmup %d cycles %d: NewBufferedRunner error %v, want ErrBufferTooLarge", over.warmup, over.cycles, err)
		}
	}
	at := base
	at.Warmup, at.Cycles = 1, MaxBufferedCycles-1
	if err := f.ValidateBuffered(at); err != nil {
		t.Errorf("warmup+cycles at the bound: %v", err)
	}
}
