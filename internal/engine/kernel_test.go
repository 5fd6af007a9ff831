package engine

import (
	"context"
	"testing"

	"minequiv/internal/perm"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// TestKernelsByteIdentical is the tentpole's acceptance property: the
// bit-sliced and scalar kernels produce byte-identical pooled
// aggregates — every counter and both throughput moments — over
// randomized networks × loads × fault plans × worker counts, intact
// and faulted, including wave counts that mix full 64-wide batches
// with a scalar remainder.
func TestKernelsByteIdentical(t *testing.T) {
	plans := []*sim.FaultPlan{
		nil,
		{Faults: []sim.Fault{
			{Kind: sim.SwitchDead, Stage: 0, Cell: 2},
			{Kind: sim.SwitchStuck1, Stage: 2, Cell: 1},
			{Kind: sim.LinkDown, Stage: 1, Link: 5},
		}},
		{SwitchDeadRate: 0.03, SwitchStuckRate: 0.08, LinkDownRate: 0.03},
	}
	loads := []struct {
		name string
		tr   sim.Traffic
	}{
		{"uniform", sim.Uniform()},
		{"bernoulli-0.45", sim.Bernoulli(0.45)},
		{"bursty", sim.Bursty(0.3, 1.0, 0.1)},
	}
	for _, name := range topology.Names() {
		for _, n := range []int{4, 6} {
			f := fabricFor(t, name, n)
			for pi, plan := range plans {
				for _, ld := range loads {
					// 150 waves = two full bit batches plus a 22-wave
					// scalar remainder.
					const waves, seed = 150, 0xC0FFEE
					base, err := RunWaves(context.Background(), f, ld.tr, waves,
						Config{Workers: 1, Seed: seed, Faults: plan, Kernel: KernelScalar})
					if err != nil {
						t.Fatal(err)
					}
					for _, kernel := range []Kernel{KernelBit, KernelAuto} {
						for _, workers := range []int{1, 3, 8} {
							got, err := RunWaves(context.Background(), f, ld.tr, waves,
								Config{Workers: workers, Seed: seed, Faults: plan, Kernel: kernel})
							if err != nil {
								t.Fatal(err)
							}
							if got != base {
								t.Fatalf("%s/n=%d/plan%d/%s kernel=%v workers=%d diverged from scalar:\n bit    %+v\n scalar %+v",
									name, n, pi, ld.name, kernel, workers, got, base)
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelBitRejectsScalarOnlyFabric: forcing the bit kernel on a
// fabric outside its domain must fail loudly, while auto degrades to
// the scalar kernel silently.
func TestKernelBitRejectsScalarOnlyFabric(t *testing.T) {
	N := 16
	perms := make([]perm.Perm, 3)
	for i := range perms {
		perms[i] = perm.Identity(N)
	}
	f, err := sim.NewFabric(perms)
	if err != nil {
		t.Fatal(err)
	}
	if f.BitSliceable() {
		t.Fatal("identity-linked fabric reported bit-sliceable")
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: KernelBit}); err == nil {
		t.Fatal("KernelBit on a scalar-only fabric: no error")
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: KernelAuto}); err != nil {
		t.Fatalf("KernelAuto on a scalar-only fabric: %v", err)
	}
	if _, err := RunWaves(context.Background(), f, sim.Uniform(), 10, Config{Kernel: Kernel(42)}); err == nil {
		t.Fatal("unknown kernel value: no error")
	}
}
