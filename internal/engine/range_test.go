package engine

import (
	"context"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// runRange is a test shorthand over RunWaveRange with a background ctx.
func runRange(t *testing.T, f *sim.Fabric, pattern sim.Traffic, lo, hi int, cfg Config) WavePartial {
	t.Helper()
	p, err := RunWaveRange(context.Background(), f, pattern, lo, hi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRangeSplitMergeExact is the jobs plane's foundation: splitting
// [0, waves) into arbitrary contiguous ranges and merging the partials
// in any order must reproduce the single-range partial field-for-field
// — integer sums make the merge exact, not approximately commutative.
func TestRangeSplitMergeExact(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 6)
	cfgs := []Config{
		{Seed: 7, Kernel: KernelScalar},
		{Seed: 7, Kernel: KernelBit},
		{Seed: 7, Kernel: KernelScalar, Faults: &sim.FaultPlan{SwitchDeadRate: 0.05}},
		{Seed: 7, Kernel: KernelBit, Faults: &sim.FaultPlan{SwitchDeadRate: 0.05}},
	}
	const waves = 200
	splits := [][]int{
		{0, waves},
		{0, 1, waves},
		{0, 63, 64, 65, 127, 128, waves},
		{0, 50, 100, 150, waves},
		{0, 199, waves},
	}
	for _, cfg := range cfgs {
		whole := runRange(t, f, sim.Uniform(), 0, waves, cfg)
		for _, cuts := range splits {
			var merged WavePartial
			// Merge back-to-front so order independence is exercised too.
			for i := len(cuts) - 2; i >= 0; i-- {
				part := runRange(t, f, sim.Uniform(), cuts[i], cuts[i+1], cfg)
				merged.Merge(part)
			}
			if merged != whole {
				t.Fatalf("kernel=%v cuts=%v merged != whole:\n%+v\n%+v", cfg.Kernel, cuts, merged, whole)
			}
		}
	}
}

// TestRangeKernelsAgree: the scalar and bit-sliced executors must
// produce identical partials for any range, including misaligned ones
// where the bit path's 64-wide batches do not start at a multiple of
// 64 — per-trial byte identity comes from the reseeded streams, not
// from batch alignment.
func TestRangeKernelsAgree(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 6)
	for _, r := range [][2]int{{0, 64}, {0, 130}, {37, 201}, {63, 65}, {100, 110}} {
		for _, plan := range []*sim.FaultPlan{nil, {SwitchDeadRate: 0.05}} {
			s := runRange(t, f, sim.Bernoulli(0.7), r[0], r[1], Config{Seed: 3, Kernel: KernelScalar, Faults: plan})
			b := runRange(t, f, sim.Bernoulli(0.7), r[0], r[1], Config{Seed: 3, Kernel: KernelBit, Faults: plan})
			if s != b {
				t.Fatalf("range %v plan=%v kernels disagree:\n%+v\n%+v", r, plan, s, b)
			}
		}
	}
}

// TestRangeMatchesRunWaves: RunWaves is a sharded RunWaveRange, so a
// full-range partial must agree with it exactly — every counter and
// the whole Throughput (Std included) — for both kernels, any worker
// count and a wave count that leaves a scalar remainder after the bit
// kernel's 64-wide batches.
func TestRangeMatchesRunWaves(t *testing.T) {
	f := fabricFor(t, topology.NameBaseline, 6)
	const waves = 130
	for _, kernel := range []Kernel{KernelScalar, KernelBit} {
		for _, plan := range []*sim.FaultPlan{nil, {SwitchDeadRate: 0.1}} {
			p := runRange(t, f, sim.Bernoulli(0.8), 0, waves, Config{Seed: 11, Kernel: kernel, Faults: plan})
			want := WaveStats{
				Stages:       f.Spans,
				Terminals:    f.N,
				Waves:        p.Trials(),
				Seed:         11,
				Offered:      int(p.Offered),
				Delivered:    int(p.Delivered),
				Dropped:      int(p.Dropped),
				Misrouted:    int(p.Misrouted),
				FaultDropped: int(p.FaultDropped),
				Throughput:   p.Throughput(),
			}
			for _, workers := range []int{1, 3} {
				ws, err := RunWaves(context.Background(), f, sim.Bernoulli(0.8), waves,
					Config{Seed: 11, Kernel: kernel, Faults: plan, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if ws != want {
					t.Fatalf("kernel=%v plan=%v workers=%d: RunWaves diverges from the range partial:\n%+v\n%+v",
						kernel, plan, workers, ws, want)
				}
			}
		}
	}
}

// TestRangeScalarAllocsFlat: the scalar executor reseeds one PCG lane
// per trial instead of constructing generators, so a range's
// allocations are the executor's setup alone — flat in the trial count.
func TestRangeScalarAllocsFlat(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	cfg := Config{Seed: 9, Kernel: KernelScalar}
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunWaveRange(context.Background(), f, sim.Uniform(), 0, trials, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10), allocs(1000); small != large {
		t.Fatalf("scalar RunWaveRange allocations grow with trials: %v at 10, %v at 1000", small, large)
	}
}

// TestRangeMergeHull: merging non-adjacent ranges keeps exact sums and
// extends the [Lo, Hi) annotation to the hull; empty partials are
// identity elements.
func TestRangeMergeHull(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	a := runRange(t, f, sim.Uniform(), 0, 10, Config{Seed: 5})
	b := runRange(t, f, sim.Uniform(), 20, 30, Config{Seed: 5})
	var m WavePartial
	m.Merge(a)
	m.Merge(WavePartial{}) // identity
	m.Merge(b)
	if m.Lo != 0 || m.Hi != 30 {
		t.Fatalf("hull = [%d,%d), want [0,30)", m.Lo, m.Hi)
	}
	if m.Offered != a.Offered+b.Offered || m.SumDD != a.SumDD+b.SumDD {
		t.Fatalf("non-adjacent merge lost counts: %+v", m)
	}
	var id WavePartial
	id.Merge(a)
	if id != a {
		t.Fatalf("merge into empty != operand: %+v vs %+v", id, a)
	}
}

// TestRangeErrors: invalid ranges, a bit kernel on a non-sliceable
// fabric, and cancelled contexts all fail cleanly.
func TestRangeErrors(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	if _, err := RunWaveRange(context.Background(), f, sim.Uniform(), 5, 5, Config{}); err == nil {
		t.Fatal("empty range must error")
	}
	if _, err := RunWaveRange(context.Background(), f, sim.Uniform(), -1, 3, Config{}); err == nil {
		t.Fatal("negative lo must error")
	}
	perms := []perm.Perm{perm.Identity(16), perm.Identity(16), perm.Identity(16)}
	scalarOnly, err := sim.NewFabric(perms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWaveRange(context.Background(), scalarOnly, sim.Uniform(), 0, 4, Config{Kernel: KernelBit}); err == nil {
		t.Fatal("bit kernel on a scalar-only fabric must error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWaveRange(ctx, f, sim.Uniform(), 0, 100, Config{}); err != context.Canceled {
		t.Fatalf("cancelled ctx: got %v, want context.Canceled", err)
	}
}
