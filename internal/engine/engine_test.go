package engine

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"

	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

func fabricFor(t testing.TB, name string, n int) *sim.Fabric {
	t.Helper()
	f, err := sim.NewFabric(topology.MustBuild(name, n).LinkPerms)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWaveDeterminismAcrossWorkers is the engine's core contract: the
// same root seed produces byte-identical aggregate statistics for 1
// worker and for K workers, because trial t always gets stream
// NewRand(seed, t) and the workers' integer partials merge exactly.
func TestWaveDeterminismAcrossWorkers(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 6)
	for _, pattern := range []sim.Traffic{sim.Uniform(), sim.Bernoulli(0.6), sim.Bursty(0.3, 1.0, 0.1)} {
		base, err := RunWaves(context.Background(), f, pattern, 96, Config{Workers: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8, 17} {
			got, err := RunWaves(context.Background(), f, pattern, 96, Config{Workers: workers, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if got != base {
				t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, got, base)
			}
		}
	}
}

// TestBufferedDeterminismAcrossWorkers: same contract for the buffered
// replication model on the reused per-worker BufferedRunner, including
// the multi-lane configuration and the percentile/occupancy aggregates.
func TestBufferedDeterminismAcrossWorkers(t *testing.T) {
	f := fabricFor(t, topology.NameBaseline, 4)
	for _, cfg := range []sim.BufferedConfig{
		{Pattern: sim.Bernoulli(0.7), Queue: 3, Cycles: 300, Warmup: 30},
		{Pattern: sim.Bernoulli(1.0), Queue: 2, Lanes: 3, Cycles: 300, Warmup: 30, Arbiter: sim.ArbRoundRobin},
		{Queue: 2, Lanes: 2, Cycles: 200, Warmup: 20, Pattern: sim.Thinned(0.5, sim.Transpose())},
	} {
		base, err := RunBuffered(context.Background(), f, cfg, 12, Config{Workers: 1, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5, 12} {
			got, err := RunBuffered(context.Background(), f, cfg, 12, Config{Workers: workers, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d diverged:\n%+v\n%+v", workers, got, base)
			}
		}
	}
}

// TestSeedChangesResults: different root seeds must not reproduce the
// same sample path.
func TestSeedChangesResults(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	a, err := RunWaves(context.Background(), f, sim.Uniform(), 32, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWaves(context.Background(), f, sim.Uniform(), 32, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("distinct seeds produced identical aggregates")
	}
}

// TestWaveStatsTrackAnalytic: the parallel engine reproduces the same
// physics as the sequential simulator (Patel's blocking recurrence).
func TestWaveStatsTrackAnalytic(t *testing.T) {
	n := 6
	f := fabricFor(t, topology.NameOmega, n)
	st, err := RunWaves(context.Background(), f, sim.Uniform(), 400, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := sim.AnalyticUniformThroughput(n)
	if math.Abs(st.Throughput.Mean-want) > 0.02 {
		t.Fatalf("engine throughput %v vs analytic %v", st.Throughput.Mean, want)
	}
	if st.Offered != st.Delivered+st.Dropped+st.Misrouted {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.Throughput.N != 400 || st.Throughput.Std <= 0 || st.Throughput.CI95 <= 0 {
		t.Fatalf("degenerate stats: %+v", st.Throughput)
	}
}

// TestBufferedStatsAggregate sanity-checks sums and per-replication
// dispersion.
func TestBufferedStatsAggregate(t *testing.T) {
	f := fabricFor(t, topology.NameFlip, 4)
	cfg := sim.BufferedConfig{Pattern: sim.Bernoulli(0.4), Queue: 4, Cycles: 500, Warmup: 50}
	st, err := RunBuffered(context.Background(), f, cfg, 6, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replications != 6 || st.Delivered == 0 || st.Injected == 0 {
		t.Fatalf("empty aggregate: %+v", st)
	}
	if st.Stages != f.Spans || st.Terminals != f.N || st.Seed != 5 || st.Network != "" || st.Scenario != "" {
		t.Fatalf("stats name stages=%d terminals=%d seed=%d network=%q scenario=%q, want %d, %d, 5 and no names",
			st.Stages, st.Terminals, st.Seed, st.Network, st.Scenario, f.Spans, f.N)
	}
	if st.Latency.Mean < float64(f.Spans) {
		t.Fatalf("mean latency %v below pipeline depth %d", st.Latency.Mean, f.Spans)
	}
	if math.Abs(st.Throughput.Mean-0.4) > 0.1 {
		t.Fatalf("low-load throughput %v far from offered 0.4", st.Throughput.Mean)
	}
	if st.LatencyP50.Mean < float64(f.Spans) || st.LatencyP50.Mean > st.LatencyP95.Mean ||
		st.LatencyP95.Mean > st.LatencyP99.Mean {
		t.Fatalf("percentile aggregates disordered: %+v %+v %+v",
			st.LatencyP50, st.LatencyP95, st.LatencyP99)
	}
	if len(st.StageOccupancy) != f.Spans {
		t.Fatalf("stage occupancy has %d entries, want %d", len(st.StageOccupancy), f.Spans)
	}
	if st.Dropped != 0 {
		t.Fatalf("banyan fabric dropped %d packets", st.Dropped)
	}
	if st.MaxOccupancy < 1 || st.MaxOccupancy > 4 {
		t.Fatalf("max occupancy %d outside [1, queue]", st.MaxOccupancy)
	}
}

// TestThroughputIsPooledRatio: for variable-load traffic the headline
// throughput must be the pooled delivered/offered ratio (what the
// analytic recurrence models), not an unweighted mean of per-wave
// fractions — near-idle waves deliver almost everything and would
// otherwise dominate the average.
func TestThroughputIsPooledRatio(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 6)
	st, err := RunWaves(context.Background(), f, sim.Bursty(0.2, 1.0, 0.05), 200, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(st.Delivered) / float64(st.Offered)
	if math.Abs(st.Throughput.Mean-want) > 1e-12 {
		t.Fatalf("throughput %v != pooled ratio %v", st.Throughput.Mean, want)
	}
	if st.Throughput.CI95 <= 0 {
		t.Fatalf("degenerate CI: %+v", st.Throughput)
	}
}

func TestEngineErrors(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 3)
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 0, Config{}); err == nil {
		t.Error("zero waves accepted")
	}
	if _, err := RunBuffered(context.Background(), f, sim.BufferedConfig{Pattern: sim.Bernoulli(0.5), Queue: 1, Cycles: 10}, 0, Config{}); err == nil {
		t.Error("zero replications accepted")
	}
	// A trial error (out-of-range destination) must propagate out of
	// the worker pool.
	bad := sim.Traffic(func(dsts []int, _ *rand.Rand) {
		for i := range dsts {
			dsts[i] = len(dsts) // one past the last terminal
		}
	})
	if _, err := RunWaves(context.Background(), f, bad, 16, Config{Workers: 4}); err == nil {
		t.Error("out-of-range traffic accepted")
	}
	// An invalid buffered config (no traffic pattern) must propagate too.
	if _, err := RunBuffered(context.Background(), f, sim.BufferedConfig{Queue: 1, Cycles: 10}, 4, Config{Workers: 2}); err == nil {
		t.Error("invalid buffered config accepted")
	}
	// Packet storage or cycles past their bounds fail before any worker
	// sizes a buffer.
	for _, bc := range []sim.BufferedConfig{
		{Pattern: sim.Bernoulli(0.5), Queue: 1 << 40, Cycles: 10},
		{Pattern: sim.Bernoulli(0.5), Queue: 4, Lanes: 1 << 40, Cycles: 10},
		{Pattern: sim.Bernoulli(0.5), Queue: 4, Cycles: 1 << 40},
	} {
		if _, err := RunBuffered(context.Background(), f, bc, 4, Config{Workers: 2}); !errors.Is(err, sim.ErrBufferTooLarge) {
			t.Errorf("queue %d lanes %d cycles %d: error %v, want sim.ErrBufferTooLarge", bc.Queue, bc.Lanes, bc.Cycles, err)
		}
	}
}

// TestCancellation: a cancelled context stops a sharded run between
// trials and surfaces ctx.Err(); an already-cancelled context runs no
// trials at all.
func TestCancellation(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWaves(ctx, f, sim.Uniform(), 1<<20, Config{Workers: 2, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	bc := sim.BufferedConfig{Pattern: sim.Bernoulli(0.9), Queue: 4, Cycles: 200, Warmup: 20}
	if _, err := RunBuffered(ctx, f, bc, 1<<16, Config{Workers: 2, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("buffered: want context.Canceled, got %v", err)
	}
	// Mid-run cancellation: cancel from a trial callback and check the
	// run aborts long before the full trial count.
	var ran atomic.Int64
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	pattern := sim.Traffic(func(dsts []int, rng *rand.Rand) {
		if ran.Add(1) == 8 {
			cancel2()
		}
		sim.Uniform()(dsts, rng)
	})
	_, err := RunWaves(ctx2, f, pattern, 1<<20, Config{Workers: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1<<20 {
		t.Fatalf("run did not stop early (ran %d trials)", n)
	}
	// A buffered replication checks ctx every cycle: cancelling during
	// the 8th cycle's injection stops a long replication before the 9th.
	var cycles atomic.Int64
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	inject := sim.Traffic(func(dsts []int, rng *rand.Rand) {
		if cycles.Add(1) == 8 {
			cancel3()
		}
		sim.Bernoulli(0.5)(dsts, rng)
	})
	bc = sim.BufferedConfig{Pattern: inject, Queue: 4, Cycles: 1 << 20}
	if _, err := RunBuffered(ctx3, f, bc, 1, Config{Workers: 1, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("buffered mid-replication: want context.Canceled, got %v", err)
	}
	if n := cycles.Load(); n != 8 {
		t.Fatalf("replication ran %d cycles after cancelling at cycle 8", n)
	}
}

// TestNewRandDeterminism: NewRand is a pure function of (root, stream),
// and distinct streams decorrelate.
func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(9, 4), NewRand(9, 4)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (root, stream) diverged")
		}
	}
	c, d := NewRand(9, 5), NewRand(10, 4)
	same := 0
	e := NewRand(9, 4)
	for i := 0; i < 64; i++ {
		x := e.Uint64()
		if c.Uint64() == x {
			same++
		}
		if d.Uint64() == x {
			same++
		}
	}
	if same > 4 {
		t.Fatalf("neighboring streams correlated: %d collisions", same)
	}
}

// TestFaultDeterminismAcrossWorkers extends the core contract to
// degraded runs: with a FaultPlan in force (pinned faults plus random
// per-trial rates) the aggregates stay byte-identical for any worker
// count, for both models.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	plan := &sim.FaultPlan{
		Faults:          []sim.Fault{{Kind: sim.SwitchDead, Stage: 1, Cell: 2}},
		SwitchDeadRate:  0.02,
		SwitchStuckRate: 0.05,
		LinkDownRate:    0.02,
	}
	base, err := RunWaves(context.Background(), f, sim.Uniform(), 64, Config{Workers: 1, Seed: 21, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if base.FaultDropped == 0 {
		t.Fatal("fault plan produced no fault drops")
	}
	for _, workers := range []int{2, 7, 16} {
		got, err := RunWaves(context.Background(), f, sim.Uniform(), 64, Config{Workers: workers, Seed: 21, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("faulty wave run diverged at workers=%d:\n%+v\n%+v", workers, got, base)
		}
	}

	bc := sim.BufferedConfig{Pattern: sim.Bernoulli(0.8), Queue: 3, Lanes: 2, Cycles: 250, Warmup: 25}
	bbase, err := RunBuffered(context.Background(), f, bc, 8, Config{Workers: 1, Seed: 22, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if bbase.FaultDropped == 0 {
		t.Fatal("buffered fault plan produced no fault drops")
	}
	for _, workers := range []int{3, 8} {
		got, err := RunBuffered(context.Background(), f, bc, 8, Config{Workers: workers, Seed: 22, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, bbase) {
			t.Fatalf("faulty buffered run diverged at workers=%d:\n%+v\n%+v", workers, got, bbase)
		}
	}
}

// TestFaultsDoNotPerturbTraffic: adding a plan must leave every trial's
// traffic stream untouched — with fault rates of zero probability the
// run is identical to a fault-free one, and with a pinned plan the
// offered counts match the intact run exactly.
func TestFaultsDoNotPerturbTraffic(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	intact, err := RunWaves(context.Background(), f, sim.Bernoulli(0.7), 48, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	pinned := &sim.FaultPlan{Faults: []sim.Fault{{Kind: sim.SwitchDead, Stage: 0, Cell: 1}}}
	faulty, err := RunWaves(context.Background(), f, sim.Bernoulli(0.7), 48, Config{Seed: 31, Faults: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Offered != intact.Offered {
		t.Fatalf("fault plan changed the offered traffic: %d vs %d", faulty.Offered, intact.Offered)
	}
	if faulty.Delivered >= intact.Delivered {
		t.Fatalf("dead switch did not degrade delivery: %d >= %d", faulty.Delivered, intact.Delivered)
	}
	// An explicitly empty plan is the intact run, byte for byte.
	empty, err := RunWaves(context.Background(), f, sim.Bernoulli(0.7), 48, Config{Seed: 31, Faults: &sim.FaultPlan{}})
	if err != nil {
		t.Fatal(err)
	}
	if empty != intact {
		t.Fatalf("empty plan diverged from intact run:\n%+v\n%+v", empty, intact)
	}

	// Buffered model: injection runs on its own per-trial stream, so the
	// offered-attempt sequence (Injected + Rejected) is identical with
	// and without a plan — faults change acceptance and delivery, never
	// what the sources offer.
	bc := sim.BufferedConfig{Pattern: sim.Bernoulli(0.8), Queue: 2, Cycles: 300, Warmup: 30}
	bIntact, err := RunBuffered(context.Background(), f, bc, 6, Config{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	bFaulty, err := RunBuffered(context.Background(), f, bc, 6, Config{Seed: 33, Faults: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bFaulty.Injected+bFaulty.Rejected, bIntact.Injected+bIntact.Rejected; got != want {
		t.Fatalf("fault plan changed buffered offered attempts: %d vs %d", got, want)
	}
	if bFaulty.Delivered >= bIntact.Delivered {
		t.Fatalf("buffered dead switch did not degrade delivery: %d >= %d", bFaulty.Delivered, bIntact.Delivered)
	}
}

// TestFaultReproducibleFromSeedAndPlan: a degraded run is a pure
// function of (seed, plan); rerunning reproduces it and changing either
// input changes the outcome.
func TestFaultReproducibleFromSeedAndPlan(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	plan := &sim.FaultPlan{SwitchDeadRate: 0.08, LinkDownRate: 0.04}
	run := func(seed uint64, p *sim.FaultPlan) WaveStats {
		st, err := RunWaves(context.Background(), f, sim.Uniform(), 40, Config{Seed: seed, Faults: p})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(5, plan), run(5, plan)
	if a != b {
		t.Fatalf("same (seed, plan) diverged:\n%+v\n%+v", a, b)
	}
	if c := run(6, plan); c == a {
		t.Fatal("different seed reproduced the same degraded run")
	}
	if d := run(5, &sim.FaultPlan{SwitchDeadRate: 0.3}); d == a {
		t.Fatal("different plan reproduced the same degraded run")
	}
	// Invalid plans are rejected up front.
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 8,
		Config{Seed: 5, Faults: &sim.FaultPlan{SwitchDeadRate: 2}}); err == nil {
		t.Fatal("invalid fault rate accepted")
	}
	if _, err := RunBuffered(context.Background(), f, sim.BufferedConfig{Pattern: sim.Bernoulli(0.5), Queue: 2, Cycles: 20}, 2,
		Config{Seed: 5, Faults: &sim.FaultPlan{Faults: []sim.Fault{{Kind: sim.LinkDown, Stage: 9, Link: 0}}}}); err == nil {
		t.Fatal("out-of-range fault accepted")
	}
}
