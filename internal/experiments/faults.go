package experiments

import (
	"context"
	"fmt"
	"io"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// RunT16 measures how the classical networks degrade as their fabric
// fails — the stability question Rastogi et al. and Moazez et al.
// evaluate MINs under, asked of the paper's equivalence class: all six
// catalog networks are isomorphic, so under element-wise random faults
// at equal rates their degradation curves must coincide statistically,
// exactly as their intact throughput does. Every run resamples the
// fault plan per trial from the engine's dedicated fault streams, so
// the whole table is reproducible from the printed seed and identical
// for any worker count.
func RunT16(w io.Writer) error {
	const (
		n     = 5
		waves = 400
		seed  = 16
	)
	rates := []float64{0, 0.01, 0.02, 0.05, 0.10}

	// Wave model: delivered fraction vs switch-dead rate, all catalog
	// networks side by side.
	fmt.Fprintf(w, "degradation curves: uniform wave traffic, n=%d (N=%d), %d waves, seed %d\n",
		n, 1<<uint(n), waves, seed)
	fmt.Fprintf(w, "throughput vs switch-dead rate:\n")
	fmt.Fprintf(w, "%-26s", "network")
	for _, r := range rates {
		fmt.Fprintf(w, " dead=%-7.2f", r)
	}
	fmt.Fprintln(w)
	for _, name := range topology.Names() {
		nw := topology.MustBuild(name, n)
		f, err := sim.NewFabric(nw.LinkPerms)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-26s", name)
		for _, rate := range rates {
			cfg := engine.Config{Seed: seed, Workers: Workers}
			if rate > 0 {
				cfg.Faults = &sim.FaultPlan{SwitchDeadRate: rate}
			}
			st, err := engine.RunWaves(context.Background(), f, sim.Uniform(), waves, cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %-12.4f", st.Throughput.Mean)
		}
		fmt.Fprintln(w)
	}

	// Fault-kind ablation on one network: equal rates of dead switches,
	// jammed crossbars and severed links hurt differently — a dead
	// switch kills both of its packets outright, a stuck one only
	// misroutes the half that needed the other port, a severed link
	// takes out one of the cell's two outputs.
	fmt.Fprintf(w, "\nfault-kind ablation (omega, rate applied to one kind at a time):\n")
	fmt.Fprintf(w, "%-10s %-22s %-10s %-10s\n", "rate", "kind", "throughput", "fault kills")
	omega, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, n).LinkPerms)
	if err != nil {
		return err
	}
	for _, rate := range []float64{0.02, 0.10} {
		for _, kind := range []struct {
			name string
			plan sim.FaultPlan
		}{
			{"switch-dead", sim.FaultPlan{SwitchDeadRate: rate}},
			{"switch-stuck", sim.FaultPlan{SwitchStuckRate: rate}},
			{"link-down", sim.FaultPlan{LinkDownRate: rate}},
		} {
			plan := kind.plan
			st, err := engine.RunWaves(context.Background(), omega, sim.Uniform(), waves,
				engine.Config{Seed: seed, Workers: Workers, Faults: &plan})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-10.2f %-22s %-10.4f %-10d\n", rate, kind.name, st.Throughput.Mean, st.FaultDropped)
		}
	}

	// Buffered model: latency and loss under degradation. Backpressure
	// turns dead switches into upstream congestion, so latency can rise
	// even while the drop counter does the headline damage.
	const (
		cycles = 1000
		warmup = 100
		reps   = 3
	)
	fmt.Fprintf(w, "\nbuffered degradation (omega, load 0.7, queue 4, %d cycles, %d reps):\n", cycles, reps)
	fmt.Fprintf(w, "%-10s %-22s %-14s %-14s %-10s\n", "dead rate", "throughput", "mean latency", "p99", "dropped")
	for _, rate := range rates {
		cfg := engine.Config{Seed: seed, Workers: Workers}
		if rate > 0 {
			cfg.Faults = &sim.FaultPlan{SwitchDeadRate: rate}
		}
		st, err := engine.RunBuffered(context.Background(), omega, sim.BufferedConfig{
			Pattern: sim.Bernoulli(0.7), Queue: 4, Cycles: cycles, Warmup: warmup,
		}, reps, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10.2f %.4f ± %-12.4f %-14.2f %-14.0f %-10d\n",
			rate, st.Throughput.Mean, st.Throughput.CI95, st.Latency.Mean,
			st.LatencyP99.Mean, st.Dropped)
	}
	fmt.Fprintf(w, "prediction: the six isomorphic networks share one degradation curve.\n")
	fmt.Fprintf(w, "Same-rate dead switches and severed links cost about the same (a stage\n")
	fmt.Fprintf(w, "has half as many switches as links, but a dead switch kills both inputs);\n")
	fmt.Fprintf(w, "stuck crossbars are mildest: they misroute rather than kill, and packets\n")
	fmt.Fprintf(w, "that wanted the jammed port pass unharmed.\n")
	return nil
}
