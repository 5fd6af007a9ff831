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

// Kernel selects the wave-model executor (engine.Kernel). The kernels
// are byte-identical per trial stream — KernelBit steers 64 Monte Carlo
// waves per machine word as uint64 bit-planes, KernelScalar walks
// packets one by one — so the choice affects only throughput, never
// results. Its text form is the kernel's name ("auto", "scalar",
// "bit"; UnmarshalText reads "" as auto).
type Kernel = engine.Kernel

const (
	// KernelAuto (the default) uses the bit-sliced kernel whenever the
	// network qualifies (a Baseline-equivalent wiring; all six of the
	// paper's networks are) and falls back to scalar.
	KernelAuto = engine.KernelAuto
	// KernelScalar forces the one-packet-at-a-time reference kernel.
	KernelScalar = engine.KernelScalar
	// KernelBit forces the bit-sliced kernel; Simulate fails when the
	// network is not Baseline-equivalent rather than silently degrading.
	KernelBit = engine.KernelBit
)

// Arbiter is the output-port arbitration policy of the buffered model
// (sim.ArbiterPolicy); its text form is "random" or "roundrobin".
type Arbiter = sim.ArbiterPolicy

const (
	ArbiterRandom     = sim.ArbRandom     // fair coin per conflict (the default)
	ArbiterRoundRobin = sim.ArbRoundRobin // loser holds priority next time
)

// LaneSelect is the lane-choice policy on enqueue in the buffered model
// (sim.LanePolicy); its text form is "shortest", "bydst" or "random".
type LaneSelect = sim.LanePolicy

const (
	LaneShortest = sim.LaneShortest // least-occupied lane with room (the default)
	LaneByDst    = sim.LaneByDst    // lane dst mod lanes
	LaneRandom   = sim.LaneRandom   // uniformly random lane with room
)

// The simulation defaults: the value of every tunable whose option is
// not given. The kernel, arbiter and lane policy default to their zero
// values.
const (
	DefaultSeed         = engine.DefaultSeed
	DefaultScenario     = sim.DefaultScenario
	DefaultHotProb      = sim.DefaultHotProb   // hotspot scenario
	DefaultBurstProb    = sim.DefaultBurstProb // bursty scenario
	DefaultIdleLoad     = sim.DefaultIdleLoad  // bursty scenario
	DefaultWaves        = 500                  // wave model
	DefaultReplications = 1                    // buffered model
	DefaultQueue        = 4                    // buffered model: FIFO capacity per lane
	DefaultLanes        = 1                    // buffered model: lanes per input port
	DefaultCycles       = 5000                 // buffered model: measured cycles
	DefaultWarmup       = 500                  // buffered model: discarded cycles
	// DefaultBufferedLoad is the buffered model's offered load; the
	// wave model's is 1, which leaves every scenario unthinned.
	DefaultBufferedLoad = 0.6
)

// simOptions carries every tunable of both models; each Option records
// which model(s) it applies to so a misapplied option is an error, not
// a silent no-op.
type simOptions struct {
	cfg      engine.Config // workers, seed, faults; the kernel is wave-model only
	scenario string
	loadSet  bool
	params   sim.ScenarioParams

	waves int                // wave model
	reps  int                // buffered model
	buf   sim.BufferedConfig // buffered model, all but Pattern

	waveOnly, bufferedOnly []string // names of model-specific options used
}

func defaultSimOptions() simOptions {
	return simOptions{
		cfg:      engine.Config{Seed: DefaultSeed},
		scenario: DefaultScenario,
		params:   sim.DefaultScenarioParams(),
		waves:    DefaultWaves,
		reps:     DefaultReplications,
		buf: sim.BufferedConfig{
			Queue: DefaultQueue, Lanes: DefaultLanes, Cycles: DefaultCycles, Warmup: DefaultWarmup,
		},
	}
}

// Option tunes Simulate and SimulateBuffered. Options specific to the
// other model are rejected with an error.
type Option func(*simOptions)

// WithWorkers shards trials across n goroutines (0 = GOMAXPROCS).
// Results never depend on the worker count.
func WithWorkers(n int) Option { return func(o *simOptions) { o.cfg.Workers = n } }

// WithSeed sets the root rng seed; trial t always runs on the stream
// derived from (seed, t), making runs bit-reproducible.
func WithSeed(seed uint64) Option { return func(o *simOptions) { o.cfg.Seed = seed } }

// WithScenario selects a named traffic pattern from the registry (see
// Scenarios). Default DefaultScenario.
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
	return func(o *simOptions) { o.cfg.Faults = &p }
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
	return func(o *simOptions) { o.cfg.Kernel = k; o.waveOnly = append(o.waveOnly, "WithKernel") }
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
	return func(o *simOptions) { o.buf.Queue = n; o.bufferedOnly = append(o.bufferedOnly, "WithQueue") }
}

// WithLanes sets the FIFO lane count per switch input port (buffered
// model only).
func WithLanes(n int) Option {
	return func(o *simOptions) { o.buf.Lanes = n; o.bufferedOnly = append(o.bufferedOnly, "WithLanes") }
}

// WithCycles sets the measured cycle count (buffered model only).
func WithCycles(n int) Option {
	return func(o *simOptions) { o.buf.Cycles = n; o.bufferedOnly = append(o.bufferedOnly, "WithCycles") }
}

// WithWarmup sets the cycles discarded before measuring (buffered model
// only).
func WithWarmup(n int) Option {
	return func(o *simOptions) { o.buf.Warmup = n; o.bufferedOnly = append(o.bufferedOnly, "WithWarmup") }
}

// WithArbiter sets the output-port arbitration policy (buffered model
// only).
func WithArbiter(a Arbiter) Option {
	return func(o *simOptions) { o.buf.Arbiter = a; o.bufferedOnly = append(o.bufferedOnly, "WithArbiter") }
}

// WithLaneSelect sets the lane-choice policy (buffered model only).
func WithLaneSelect(l LaneSelect) Option {
	return func(o *simOptions) { o.buf.LaneSelect = l; o.bufferedOnly = append(o.bufferedOnly, "WithLaneSelect") }
}

// traffic resolves the scenario to a generator at the offered load
// (sim.Scenario.Traffic).
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
	st, err := engine.RunWaves(ctx, f, tr, o.waves, o.cfg)
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
		o.params.Load = DefaultBufferedLoad
	}
	if o.buf.Pattern, err = o.traffic(); err != nil {
		return BufferedStats{}, err
	}
	st, err := engine.RunBuffered(ctx, f, o.buf, o.reps, o.cfg)
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
