// Package engine is the parallel trial runner on top of internal/sim:
// it shards independent wave simulations (and buffered-model
// replications) across workers, gives each trial its own
// deterministically-derived PCG stream and each worker its own reusable
// scratch state, and aggregates delivered/dropped/latency statistics
// with means and confidence intervals.
//
// Determinism is the core contract: trial t always runs with the rng
// NewRand(seed, t). Wave runs fold per-trial counters into exact
// integer WavePartial sums, so merging the workers' partials in any
// order gives the same aggregate; buffered replications are stored by
// index and reduced in index order. Aggregate statistics are therefore
// byte-identical for any worker count, which is what makes parallel
// runs trustworthy replacements for the old sequential loops. Fault
// injection obeys the same discipline: a Config.Faults plan is
// resampled per trial from the decorrelated stream NewFaultRand(seed, t)
// into worker-owned FaultStates, so degraded runs are reproducible from
// (seed, plan) alone and never perturb the traffic streams.
package engine

import (
	"context"
	"fmt"

	"minequiv/internal/shard"
	"minequiv/internal/sim"
)

// DefaultSeed is the root seed of a run that names none.
const DefaultSeed = 1

// Config parametrizes one engine run.
type Config struct {
	Workers int    // goroutines; <= 0 means GOMAXPROCS
	Seed    uint64 // root seed; trial t uses stream NewRand(Seed, t)

	// Faults degrades the fabric: each trial samples the plan into a
	// worker-owned FaultState using the dedicated stream
	// NewFaultRand(Seed, t), so pinned faults hold for every trial,
	// random rates redraw per trial, traffic draws are untouched, and
	// aggregates remain byte-identical for any worker count. nil (or a
	// pointer to an empty plan) simulates the intact fabric.
	Faults *sim.FaultPlan

	// Kernel selects the unbuffered executor (see the Kernel type); the
	// zero value KernelAuto uses the bit-sliced kernel whenever the
	// fabric qualifies. Results never depend on the choice.
	Kernel Kernel
}

// faultPlan validates the active plan against the fabric and returns
// it, or nil for an intact run.
func (c Config) faultPlan(f *sim.Fabric) (*sim.FaultPlan, error) {
	if c.Faults == nil || c.Faults.Empty() {
		return nil, nil
	}
	if err := c.Faults.Validate(f.Spans); err != nil {
		return nil, err
	}
	return c.Faults, nil
}

// resolve validates a wave run's configuration against the fabric: it
// returns the active fault plan and whether the bit-sliced kernel runs.
func (c Config) resolve(f *sim.Fabric) (plan *sim.FaultPlan, bit bool, err error) {
	if plan, err = c.faultPlan(f); err != nil {
		return nil, false, err
	}
	switch c.Kernel {
	case KernelAuto:
		return plan, f.BitSliceable(), nil
	case KernelScalar:
		return plan, false, nil
	case KernelBit:
		if !f.BitSliceable() {
			return nil, false, fmt.Errorf(`engine: kernel "bit" requested but the fabric is not bit-sliceable (it needs a Baseline-equivalent wiring)`)
		}
		return plan, true, nil
	}
	return nil, false, fmt.Errorf("engine: unknown kernel %d", uint8(c.Kernel))
}

// WaveStats aggregates a sharded run of independent waves. It is also
// the public API's wave-model result, so its JSON tags are wire format;
// the engine fills in everything but Network and Scenario, which the
// caller names.
type WaveStats struct {
	Network   string `json:"network"`
	Stages    int    `json:"stages"`
	Terminals int    `json:"terminals"`
	Scenario  string `json:"scenario"`
	Waves     int    `json:"waves"`
	Seed      uint64 `json:"seed"` // Config.Seed
	Offered   int    `json:"offered"`
	Delivered int    `json:"delivered"`
	Dropped   int    `json:"dropped"`
	Misrouted int    `json:"misrouted"`
	// FaultDropped is the subset of Dropped killed directly by injected
	// faults (dead switches, severed links); omitted when zero so
	// fault-free responses are unchanged.
	FaultDropped int `json:"faultDropped,omitempty"`
	// Throughput is the pooled delivered/offered ratio (the quantity the
	// analytic blocking recurrence models), with dispersion from the
	// linearized ratio-estimator variance over waves. For patterns that
	// offer a constant packet count per wave this coincides with the
	// mean and sample std of per-wave delivered fractions; for variable
	// -load patterns (bernoulli, bursty) the pooled ratio weights every
	// packet equally instead of every wave.
	Throughput Stats `json:"throughput"`
}

// RunWaves pushes `waves` independent waves of the pattern through the
// fabric, sharded across cfg.Workers goroutines. The pattern must be a
// pure function of (dsts, rng) — every pattern in the sim registry is —
// since all workers share it with distinct buffers and rngs. Cancelling
// ctx aborts the run within one trial (one 64-trial batch under the
// bit-sliced kernel) and returns ctx.Err().
//
// RunWaves is RunWaveRange over [0, waves), sharded: each worker owns
// one executor and folds the units it claims (64-trial batches under
// the bit-sliced kernel, single trials under the scalar one) into its
// own WavePartial, and the partials are merged by exact integer
// addition. Trial t always draws from NewRand(Seed, t) and
// NewFaultRand(Seed, t) whichever worker and kernel run it, so the
// aggregates are invariant under worker count and kernel choice, and
// equal to any merged split of the same run into ranges.
func RunWaves(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, waves int, cfg Config) (WaveStats, error) {
	if waves <= 0 {
		return WaveStats{}, fmt.Errorf("engine: waves must be positive")
	}
	plan, bit, err := cfg.resolve(f)
	if err != nil {
		return WaveStats{}, err
	}
	unit := 1
	if bit {
		unit = 64
	}
	type worker struct {
		ex   *executor
		part WavePartial
	}
	workers, err := shard.Run(ctx, cfg.Workers, (waves+unit-1)/unit,
		func() *worker { return &worker{ex: newExecutor(f, pattern, cfg.Seed, plan, bit)} },
		func(u int, w *worker) error {
			return w.ex.run(ctx, u*unit, min((u+1)*unit, waves), &w.part)
		})
	if err != nil {
		return WaveStats{}, err
	}
	var p WavePartial
	for _, w := range workers {
		p.Merge(w.part)
	}
	return WaveStats{
		Stages:       f.Spans,
		Terminals:    f.N,
		Waves:        waves,
		Seed:         cfg.Seed,
		Offered:      int(p.Offered),
		Delivered:    int(p.Delivered),
		Dropped:      int(p.Dropped),
		Misrouted:    int(p.Misrouted),
		FaultDropped: int(p.FaultDropped),
		Throughput:   p.Throughput(),
	}, nil
}

// BufferedStats aggregates independent replications of the buffered
// (multi-lane FIFO store-and-forward) model. It is also the public
// API's buffered-model result, so its JSON tags are wire format; the
// engine fills in everything but Network and Scenario, which the
// caller names.
type BufferedStats struct {
	Network      string `json:"network"`
	Stages       int    `json:"stages"`
	Terminals    int    `json:"terminals"`
	Scenario     string `json:"scenario"`
	Replications int    `json:"replications"`
	Seed         uint64 `json:"seed"` // Config.Seed
	Injected     int    `json:"injected"`
	Rejected     int    `json:"rejected"`
	Delivered    int    `json:"delivered"`
	// Dropped counts undeliverable packets discarded (non-Banyan
	// fabrics, faults).
	Dropped int `json:"dropped"`
	// FaultDropped is the subset of Dropped killed directly by injected
	// faults; omitted when zero.
	FaultDropped int `json:"faultDropped,omitempty"`
	// Misrouted counts wrong-terminal exits forced by stuck last-stage
	// switches; omitted when zero.
	Misrouted    int   `json:"misrouted,omitempty"`
	InFlight     int   `json:"inFlight"`
	MaxOccupancy int   `json:"maxOccupancy"` // largest single-lane queue length over all replications
	Throughput   Stats `json:"throughput"`   // per-replication delivered per terminal per cycle
	Latency      Stats `json:"latency"`      // per-replication mean delivery latency, cycles
	LatencyP50   Stats `json:"latencyP50"`   // per-replication latency percentiles, cycles
	LatencyP95   Stats `json:"latencyP95"`
	LatencyP99   Stats `json:"latencyP99"`
	// StageOccupancy[s] is the mean over replications of the mean
	// packets queued at stage s per measured cycle.
	StageOccupancy []float64 `json:"stageOccupancy"`
}

// RunBuffered runs `reps` independent replications of the buffered model
// (distinct rng streams, same configuration), sharded across workers.
// Each worker owns one reused BufferedRunner — the simulation's cycle
// loop allocates nothing; per trial only the derived rng is allocated.
// Trial t always uses the stream NewRand(cfg.Seed, t) and reduction is
// by trial index, keeping the aggregates byte-identical for any worker
// count. Cancelling ctx aborts the run within one simulated cycle and
// returns ctx.Err(). A config whose packet storage exceeds
// sim.MaxBufferedPackets, or whose Warmup+Cycles exceed
// sim.MaxBufferedCycles, fails before any worker starts, with an error
// wrapping sim.ErrBufferTooLarge.
func RunBuffered(ctx context.Context, f *sim.Fabric, bc sim.BufferedConfig, reps int, cfg Config) (BufferedStats, error) {
	if reps <= 0 {
		return BufferedStats{}, fmt.Errorf("engine: replications must be positive")
	}
	// Validate once, up front, without sizing any buffers; per-worker
	// construction below cannot fail for a valid config, and a config
	// whose packet storage is out of bounds fails here, before any
	// worker sizes it.
	if err := f.ValidateBuffered(bc); err != nil {
		return BufferedStats{}, err
	}
	plan, err := cfg.faultPlan(f)
	if err != nil {
		return BufferedStats{}, err
	}
	// Same discipline as RunWaves: pinned-only plans sample once per
	// worker, random rates resample per trial from the fault stream.
	resample := plan != nil && plan.Random()
	type bufScratch struct {
		runner *sim.BufferedRunner
		faults *sim.FaultState
	}
	results := make([]sim.BufferedResult, reps)
	// One flat per-trial occupancy buffer: each trial copies the
	// runner-owned StageOccupancy into its own slot so the worker's
	// next replication cannot overwrite it, without per-trial allocs.
	occ := make([]float64, reps*f.Spans)
	_, err = shard.Run(ctx, cfg.Workers, reps,
		func() *bufScratch {
			r, _ := f.NewBufferedRunner(bc)
			sc := &bufScratch{runner: r}
			if plan != nil {
				sc.faults = sim.NewFaultState(f.Spans)
				_ = r.SetFaults(sc.faults)
				if !resample {
					sc.faults.Resample(*plan, nil)
				}
			}
			return sc
		},
		func(t int, sc *bufScratch) error {
			if resample {
				sc.faults.Resample(*plan, NewFaultRand(cfg.Seed, uint64(t)))
			}
			res, err := sc.runner.Run(ctx, NewRand(cfg.Seed, uint64(t)))
			if err != nil {
				return err
			}
			copy(occ[t*f.Spans:(t+1)*f.Spans], res.StageOccupancy)
			res.StageOccupancy = nil
			results[t] = res
			return nil
		})
	if err != nil {
		return BufferedStats{}, err
	}
	out := BufferedStats{
		Stages: f.Spans, Terminals: f.N, Replications: reps, Seed: cfg.Seed,
		StageOccupancy: make([]float64, f.Spans),
	}
	throughputs := make([]float64, reps)
	latencies := make([]float64, reps)
	p50s := make([]float64, reps)
	p95s := make([]float64, reps)
	p99s := make([]float64, reps)
	for t, r := range results {
		out.Injected += r.Injected
		out.Rejected += r.Rejected
		out.Delivered += r.Delivered
		out.Dropped += r.Dropped
		out.FaultDropped += r.FaultDropped
		out.Misrouted += r.Misrouted
		out.InFlight += r.InFlight
		if r.MaxOccupancy > out.MaxOccupancy {
			out.MaxOccupancy = r.MaxOccupancy
		}
		throughputs[t] = r.Throughput
		latencies[t] = r.MeanLatency
		p50s[t] = float64(r.P50)
		p95s[t] = float64(r.P95)
		p99s[t] = float64(r.P99)
		for s := 0; s < f.Spans; s++ {
			out.StageOccupancy[s] += occ[t*f.Spans+s]
		}
	}
	for s := range out.StageOccupancy {
		out.StageOccupancy[s] /= float64(reps)
	}
	out.Throughput = summarize(throughputs)
	out.Latency = summarize(latencies)
	out.LatencyP50 = summarize(p50s)
	out.LatencyP95 = summarize(p95s)
	out.LatencyP99 = summarize(p99s)
	return out, nil
}
