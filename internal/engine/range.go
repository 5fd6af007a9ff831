package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"minequiv/internal/sim"
)

// WavePartial is the exact partial aggregate of a contiguous trial
// range [Lo, Hi) of a wave run. Every field is an integer sum of
// per-trial counters, so merging partials is exact and associative:
// any split of [0, waves) into ranges, run in any order on any
// machine, merges to the same WavePartial — which is what lets a
// checkpointed sweep resume after a crash and still produce results
// byte-identical to an uninterrupted run (the jobs plane's core
// contract; see internal/jobs).
//
// The three quadratic sums carry what the linearized ratio-estimator
// variance needs: with m = Delivered/Offered,
//
//	sq = Σ_t (d_t − m·o_t)² = SumDD − 2m·SumDO + m²·SumOO
//
// and per-trial counts are bounded by the terminal count (≤ 2^16), so
// the products fit int64 exactly for > 10^9 trials — no floating-point
// accumulation order can leak into the result.
type WavePartial struct {
	Lo           int   `json:"lo"` // trial range [Lo, Hi)
	Hi           int   `json:"hi"`
	Offered      int64 `json:"offered"`
	Delivered    int64 `json:"delivered"`
	Dropped      int64 `json:"dropped"`
	Misrouted    int64 `json:"misrouted"`
	FaultDropped int64 `json:"faultDropped"`
	NonEmpty     int64 `json:"nonEmpty"` // trials with Offered > 0
	SumDD        int64 `json:"sumDD"`    // Σ delivered²
	SumDO        int64 `json:"sumDO"`    // Σ delivered·offered
	SumOO        int64 `json:"sumOO"`    // Σ offered²
}

// Trials returns the number of trials the partial covers.
func (p WavePartial) Trials() int { return p.Hi - p.Lo }

// add folds one trial's counters in.
func (p *WavePartial) add(offered, delivered, dropped, misrouted, faultDropped int) {
	o, d := int64(offered), int64(delivered)
	p.Offered += o
	p.Delivered += d
	p.Dropped += int64(dropped)
	p.Misrouted += int64(misrouted)
	p.FaultDropped += int64(faultDropped)
	if o > 0 {
		p.NonEmpty++
	}
	p.SumDD += d * d
	p.SumDO += d * o
	p.SumOO += o * o
}

// Merge folds q into p. Merging is exact integer addition, so the
// result is independent of merge order; the range bounds extend to
// cover both operands (merging non-adjacent ranges is allowed — the
// sums stay correct, only the [Lo, Hi) annotation turns into a hull).
func (p *WavePartial) Merge(q WavePartial) {
	if q.Trials() == 0 {
		return
	}
	if p.Trials() == 0 {
		*p = q
		return
	}
	if q.Lo < p.Lo {
		p.Lo = q.Lo
	}
	if q.Hi > p.Hi {
		p.Hi = q.Hi
	}
	p.Offered += q.Offered
	p.Delivered += q.Delivered
	p.Dropped += q.Dropped
	p.Misrouted += q.Misrouted
	p.FaultDropped += q.FaultDropped
	p.NonEmpty += q.NonEmpty
	p.SumDD += q.SumDD
	p.SumDO += q.SumDO
	p.SumOO += q.SumOO
}

// Throughput finalizes the pooled delivered/offered ratio with the
// linearized ratio-estimator dispersion, computed from the exact sums:
// Var(m) ≈ n/(n−1) · sq / (Σ o_t)², with Std scaled so that
// Stats.CI95 = 1.96·Std/√N yields exactly 1.96·√Var. For constant
// offered load it reduces to the sample std of per-wave delivered
// fractions. RunWaves finalizes through here too, so a served run and
// a merged sweep cell with the same seed agree bit for bit.
func (p WavePartial) Throughput() Stats {
	if p.Offered == 0 {
		return Stats{}
	}
	m := float64(p.Delivered) / float64(p.Offered)
	st := Stats{N: int(p.NonEmpty), Mean: m}
	if st.N > 1 {
		sq := float64(p.SumDD) - 2*m*float64(p.SumDO) + m*m*float64(p.SumOO)
		if sq < 0 {
			sq = 0 // the exact value is ≥ 0; clamp float cancellation noise
		}
		st.Std = float64(st.N) / float64(p.Offered) * math.Sqrt(sq/float64(st.N-1))
		st.CI95 = ci95(st.N, st.Std)
	}
	return st
}

// RunWaveRange runs the trials [lo, hi) of the wave run defined by
// (cfg.Seed, pattern, cfg.Faults) and returns their exact partial
// aggregate. Trial t draws from the same NewRand(Seed, t) and
// NewFaultRand(Seed, t) streams RunWaves uses, for either kernel, so
// any partition of [0, waves) into ranges merges to the aggregate of
// one full run — regardless of which process ran which range, in what
// order, or how many times it was retried in between.
//
// The range is executed sequentially on the calling goroutine: the
// shard IS the unit of parallelism for callers like the jobs plane,
// which runs many ranges concurrently on its own workers. Cancelling
// ctx aborts between trials (between 64-trial batches under the
// bit-sliced kernel) and returns ctx.Err().
func RunWaveRange(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, lo, hi int, cfg Config) (WavePartial, error) {
	if lo < 0 || hi <= lo {
		return WavePartial{}, fmt.Errorf("engine: bad trial range [%d,%d)", lo, hi)
	}
	plan, bit, err := cfg.resolve(f)
	if err != nil {
		return WavePartial{}, err
	}
	var p WavePartial
	if err := newExecutor(f, pattern, cfg.Seed, plan, bit).run(ctx, lo, hi, &p); err != nil {
		return WavePartial{}, err
	}
	return p, nil
}

// executor is one worker's wave-trial machinery: the scalar runner, the
// bit-sliced runner when that kernel is in force, the fault state both
// read, and reseedable PCG lanes (64 under the bit kernel, one under
// scalar) that replay the exact NewRand/NewFaultRand streams without
// constructing a generator per trial. Not safe for concurrent use.
type executor struct {
	pattern     sim.Traffic
	seed, froot uint64
	plan        *sim.FaultPlan // nil = intact fabric
	resample    bool           // the plan has random rates: redraw per trial

	scalar *sim.WaveRunner
	bit    *sim.BitWaveRunner // nil under the scalar kernel
	faults *sim.FaultState

	pcg  []rand.PCG
	rngs []*rand.Rand
	fpcg rand.PCG
	frng *rand.Rand
}

// newExecutor builds an executor for a plan and kernel already checked
// by Config.resolve. A pinned-only plan realizes identically every
// trial, so it is sampled once here and, under the bit kernel, folded
// into all 64 lanes once; random rates resample per trial from the
// dedicated fault stream.
func newExecutor(f *sim.Fabric, pattern sim.Traffic, seed uint64, plan *sim.FaultPlan, bit bool) *executor {
	e := &executor{
		pattern:  pattern,
		seed:     seed,
		froot:    FaultRoot(seed),
		plan:     plan,
		resample: plan != nil && plan.Random(),
		scalar:   f.NewWaveRunner(),
	}
	lanes := 1
	if bit {
		lanes = 64
		e.bit, _ = f.NewBitWaveRunner() // resolve checked BitSliceable
	}
	e.pcg = make([]rand.PCG, lanes)
	e.rngs = make([]*rand.Rand, lanes)
	for j := range e.rngs {
		e.rngs[j] = rand.New(&e.pcg[j])
	}
	e.frng = rand.New(&e.fpcg)
	if plan != nil {
		e.faults = sim.NewFaultState(f.Spans)
		_ = e.scalar.SetFaults(e.faults)
		if !e.resample {
			e.faults.Resample(*plan, nil)
			if bit {
				_ = e.bit.SetLaneFaults(^uint64(0), e.faults)
			}
		}
	}
	return e
}

// run is the engine's one wave-trial loop: it folds trials [lo, hi)
// into p, extending p's range to cover them. Under the bit kernel it
// steers 64-wide batches anchored at lo, lane j of a batch at t0
// running trial t0+j; the remainder shorter than 64 (every trial under
// the scalar kernel) runs one at a time. Both kernels are byte-identical
// per stream and every trial is reseeded from (seed, t), so neither the
// batch alignment nor the split into calls can leak into the sums.
// Cancelling ctx aborts between trials (between batches) with ctx.Err().
//
//minlint:hotpath
func (e *executor) run(ctx context.Context, lo, hi int, p *WavePartial) error {
	p.Merge(WavePartial{Lo: lo, Hi: hi})
	t := lo
	for ; e.bit != nil && t+64 <= hi; t += 64 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.resample {
			// Clear every lane's masks once, then add each trial's
			// realization to its own lane: O(faults) per trial.
			if err := e.bit.SetLaneFaults(^uint64(0), nil); err != nil {
				return err
			}
		}
		for j := range e.pcg {
			e.pcg[j].Seed(SeedPair(e.seed, uint64(t+j)))
			if e.resample {
				e.fpcg.Seed(SeedPair(e.froot, uint64(t+j)))
				e.faults.Resample(*e.plan, e.frng)
				if err := e.bit.AddLaneFaults(1<<uint(j), e.faults); err != nil {
					return err
				}
			}
		}
		res, err := e.bit.RunTraffic(e.pattern, e.rngs)
		if err != nil {
			return err
		}
		for j := range e.rngs {
			p.add(res.Offered[j], res.Delivered[j], res.Dropped[j], res.Misrouted[j], res.FaultDropped[j])
		}
	}
	for ; t < hi; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.resample {
			e.fpcg.Seed(SeedPair(e.froot, uint64(t)))
			e.faults.Resample(*e.plan, e.frng)
		}
		e.pcg[0].Seed(SeedPair(e.seed, uint64(t)))
		res, err := e.scalar.RunTraffic(e.pattern, e.rngs[0])
		if err != nil {
			return err
		}
		p.add(res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped)
	}
	return nil
}
