package min

import (
	"context"
	"fmt"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
)

// Stat summarizes one per-trial metric: trial count, mean, sample
// standard deviation and the half-width of the normal-approximation
// 95% confidence interval. Field docs are on engine.Stats.
type Stat = engine.Stats

// WaveStats aggregates a Simulate run: independent synchronous waves
// through the unbuffered (drop-on-conflict) switch model. Field docs
// are on engine.WaveStats.
type WaveStats = engine.WaveStats

// BufferedStats aggregates a SimulateBuffered run: independent
// replications of the multi-lane FIFO store-and-forward model. Field
// docs are on engine.BufferedStats.
type BufferedStats = engine.BufferedStats

// Arbiter names the output-port arbitration policy of the buffered
// model.
type Arbiter string

const (
	ArbiterRandom     Arbiter = "random"     // fair coin per conflict
	ArbiterRoundRobin Arbiter = "roundrobin" // loser holds priority next time
)

// Kernel names the wave-model executor. The kernels are byte-identical
// per trial stream — KernelBit steers 64 Monte Carlo waves per machine
// word as uint64 bit-planes, KernelScalar walks packets one by one —
// so the choice affects only throughput, never results.
type Kernel string

const (
	// KernelAuto (the default) uses the bit-sliced kernel whenever the
	// network qualifies (a Baseline-equivalent wiring; all six of the
	// paper's networks are) and falls back to scalar.
	KernelAuto Kernel = "auto"
	// KernelScalar forces the one-packet-at-a-time reference kernel.
	KernelScalar Kernel = "scalar"
	// KernelBit forces the bit-sliced kernel; Simulate fails when the
	// network is not Baseline-equivalent rather than silently degrading.
	KernelBit Kernel = "bit"
)

// LaneSelect names the lane-choice policy on enqueue in the buffered
// model.
type LaneSelect string

const (
	LaneShortest LaneSelect = "shortest" // least-occupied lane with room
	LaneByDst    LaneSelect = "bydst"    // lane dst mod lanes
	LaneRandom   LaneSelect = "random"   // uniformly random lane with room
)

// simOptions carries every tunable of both models; each Option records
// which model(s) it applies to so a misapplied option is an error, not
// a silent no-op.
type simOptions struct {
	workers  int
	seed     uint64
	scenario string
	loadSet  bool
	params   sim.ScenarioParams
	faults   *FaultPlan

	waves  int    // wave model
	kernel Kernel // wave model

	reps, queue, lanes, cycles, warmup int // buffered model
	arbiter                            Arbiter
	laneSelect                         LaneSelect

	waveOnly, bufferedOnly []string // names of model-specific options used
}

func defaultSimOptions() simOptions {
	return simOptions{
		seed:     1,
		scenario: "uniform",
		params:   sim.DefaultScenarioParams(),
		waves:    500,
		kernel:   KernelAuto,
		reps:     1, queue: 4, lanes: 1, cycles: 5000, warmup: 500,
		arbiter: ArbiterRandom, laneSelect: LaneShortest,
	}
}

// Option tunes Simulate and SimulateBuffered. Options specific to the
// other model are rejected with an error.
type Option func(*simOptions)

// WithWorkers shards trials across n goroutines (0 = GOMAXPROCS).
// Results never depend on the worker count.
func WithWorkers(n int) Option { return func(o *simOptions) { o.workers = n } }

// WithSeed sets the root rng seed; trial t always runs on the stream
// derived from (seed, t), making runs bit-reproducible.
func WithSeed(seed uint64) Option { return func(o *simOptions) { o.seed = seed } }

// WithScenario selects a named traffic pattern from the registry (see
// Scenarios). Default "uniform".
func WithScenario(name string) Option { return func(o *simOptions) { o.scenario = name } }

// WithLoad sets the offered load per input per wave/cycle. Load-aware
// scenarios (bernoulli, bursty) consume it directly; every other
// scenario is thinned to it.
func WithLoad(load float64) Option {
	return func(o *simOptions) { o.params.Load = load; o.loadSet = true }
}

// WithHotspot tunes the hotspot scenario: each packet targets terminal
// dst with probability prob.
func WithHotspot(dst int, prob float64) Option {
	return func(o *simOptions) { o.params.HotDst = dst; o.params.HotProb = prob }
}

// WithBurst tunes the bursty scenario: a wave is a burst (at the
// WithLoad level) with probability burstProb, else offers idleLoad.
func WithBurst(burstProb, idleLoad float64) Option {
	return func(o *simOptions) { o.params.BurstProb = burstProb; o.params.IdleLoad = idleLoad }
}

// WithFaults degrades the fabric for the run (both models): the plan's
// pinned faults hold for every trial and its random rates are redrawn
// per trial from a dedicated rng stream, so results are reproducible
// from (seed, plan) alone, traffic draws are untouched, and aggregates
// stay identical for any worker count. An empty plan is the intact
// fabric.
func WithFaults(p FaultPlan) Option {
	return func(o *simOptions) { o.faults = &p }
}

// WithWaves sets the number of independent waves (wave model only).
func WithWaves(n int) Option {
	return func(o *simOptions) { o.waves = n; o.waveOnly = append(o.waveOnly, "WithWaves") }
}

// WithKernel selects the wave-model executor (wave model only); see
// Kernel. The default KernelAuto needs no configuration — use this to
// force the scalar oracle or to fail fast when the bit-sliced kernel
// is expected but the network does not qualify.
func WithKernel(k Kernel) Option {
	return func(o *simOptions) { o.kernel = k; o.waveOnly = append(o.waveOnly, "WithKernel") }
}

// WithReplications sets the number of independent replications
// (buffered model only).
func WithReplications(n int) Option {
	return func(o *simOptions) { o.reps = n; o.bufferedOnly = append(o.bufferedOnly, "WithReplications") }
}

// WithQueue sets the FIFO capacity per lane (buffered model only).
// SimulateBuffered refuses a run whose packet storage,
// stages·2^stages·lanes·queue, exceeds 2^22 packets.
func WithQueue(n int) Option {
	return func(o *simOptions) { o.queue = n; o.bufferedOnly = append(o.bufferedOnly, "WithQueue") }
}

// WithLanes sets the FIFO lane count per switch input port (buffered
// model only).
func WithLanes(n int) Option {
	return func(o *simOptions) { o.lanes = n; o.bufferedOnly = append(o.bufferedOnly, "WithLanes") }
}

// WithCycles sets the measured cycle count (buffered model only).
func WithCycles(n int) Option {
	return func(o *simOptions) { o.cycles = n; o.bufferedOnly = append(o.bufferedOnly, "WithCycles") }
}

// WithWarmup sets the cycles discarded before measuring (buffered model
// only).
func WithWarmup(n int) Option {
	return func(o *simOptions) { o.warmup = n; o.bufferedOnly = append(o.bufferedOnly, "WithWarmup") }
}

// WithArbiter sets the output-port arbitration policy (buffered model
// only).
func WithArbiter(a Arbiter) Option {
	return func(o *simOptions) { o.arbiter = a; o.bufferedOnly = append(o.bufferedOnly, "WithArbiter") }
}

// WithLaneSelect sets the lane-choice policy (buffered model only).
func WithLaneSelect(l LaneSelect) Option {
	return func(o *simOptions) { o.laneSelect = l; o.bufferedOnly = append(o.bufferedOnly, "WithLaneSelect") }
}

// traffic resolves the scenario to a generator at the offered load
// (sim.Scenario.Traffic). The wave model's default load is 1, which
// leaves every scenario unthinned; the buffered model's is 0.6.
func (o *simOptions) traffic() (sim.Traffic, error) {
	if o.params.Load < 0 || o.params.Load > 1 {
		return nil, fmt.Errorf("min: load %v out of [0,1]", o.params.Load)
	}
	sc, ok := sim.LookupScenario(o.scenario)
	if !ok {
		return nil, fmt.Errorf("min: unknown scenario %q (have %v)", o.scenario, sim.ScenarioNames())
	}
	return sc.Traffic(o.params), nil
}

func applyOptions(opts []Option) simOptions {
	o := defaultSimOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// engineConfig assembles the engine run configuration, with the fault
// plan when one was given.
func (o *simOptions) engineConfig() engine.Config {
	cfg := engine.Config{Workers: o.workers, Seed: o.seed}
	if o.faults != nil && !o.faults.Empty() {
		cfg.Faults = o.faults
	}
	return cfg
}

// Simulate pushes independent synchronous waves of traffic through the
// network on the parallel trial engine: each wave injects one batch of
// packets, conflicting packets are dropped at the contended switch, and
// the pooled delivered/offered ratio is reported with a confidence
// interval. Cancelling ctx aborts within one wave and returns ctx.Err().
func Simulate(ctx context.Context, nw *Network, opts ...Option) (WaveStats, error) {
	o := applyOptions(opts)
	if len(o.bufferedOnly) > 0 {
		return WaveStats{}, fmt.Errorf("min: option %s applies to SimulateBuffered only", o.bufferedOnly[0])
	}
	f, err := nw.compiledFabric()
	if err != nil {
		return WaveStats{}, err
	}
	tr, err := o.traffic()
	if err != nil {
		return WaveStats{}, err
	}
	cfg := o.engineConfig()
	cfg.Kernel, err = engine.ParseKernel(string(o.kernel))
	if err != nil {
		return WaveStats{}, fmt.Errorf(`min: unknown kernel %q (want "auto", "scalar" or "bit")`, o.kernel)
	}
	st, err := engine.RunWaves(ctx, f, tr, o.waves, cfg)
	if err != nil {
		return WaveStats{}, err
	}
	st.Network, st.Scenario = nw.Name(), o.scenario
	return st, nil
}

// SimulateBuffered runs independent replications of the store-and-
// forward model: every switch input port holds one or more FIFO lanes,
// contended outputs are arbitrated, backpressure stalls full queues,
// and per-replication throughput/latency statistics are aggregated.
// Cancelling ctx aborts within one simulated cycle and returns
// ctx.Err(). Queue and lane counts whose packet storage would exceed a
// fixed bound (see WithQueue) are refused with an error.
func SimulateBuffered(ctx context.Context, nw *Network, opts ...Option) (BufferedStats, error) {
	o := applyOptions(opts)
	if len(o.waveOnly) > 0 {
		return BufferedStats{}, fmt.Errorf("min: option %s applies to Simulate only", o.waveOnly[0])
	}
	f, err := nw.compiledFabric()
	if err != nil {
		return BufferedStats{}, err
	}
	if !o.loadSet {
		o.params.Load = 0.6 // conventional buffered default offered load
	}
	tr, err := o.traffic()
	if err != nil {
		return BufferedStats{}, err
	}
	bc := sim.BufferedConfig{
		Queue: o.queue, Lanes: o.lanes, Cycles: o.cycles, Warmup: o.warmup,
		Pattern: tr,
	}
	switch o.arbiter {
	case ArbiterRandom:
		bc.Arbiter = sim.ArbRandom
	case ArbiterRoundRobin:
		bc.Arbiter = sim.ArbRoundRobin
	default:
		return BufferedStats{}, fmt.Errorf("min: unknown arbiter %q", o.arbiter)
	}
	switch o.laneSelect {
	case LaneShortest:
		bc.LaneSelect = sim.LaneShortest
	case LaneByDst:
		bc.LaneSelect = sim.LaneByDst
	case LaneRandom:
		bc.LaneSelect = sim.LaneRandom
	default:
		return BufferedStats{}, fmt.Errorf("min: unknown lane policy %q", o.laneSelect)
	}
	st, err := engine.RunBuffered(ctx, f, bc, o.reps, o.engineConfig())
	if err != nil {
		return BufferedStats{}, err
	}
	st.Network, st.Scenario = nw.Name(), o.scenario
	return st, nil
}

// AnalyticThroughput evaluates Patel's blocking recurrence: the
// expected delivered fraction of an n-stage unbuffered MIN under
// independent uniform traffic at the given offered load. The wave
// model's measured throughput converges to it.
func AnalyticThroughput(stages int, load float64) float64 {
	return sim.AnalyticUniformThroughputLoaded(stages, load)
}
