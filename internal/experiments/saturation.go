package experiments

import (
	"context"
	"fmt"
	"io"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// RunT15 measures the buffered model's saturation behavior — the
// Omega-stability question of the MIN literature: offered load versus
// accepted throughput and tail latency, and how multi-lane storage
// moves the saturation point at fixed total buffering. All runs use
// the allocation-free BufferedRunner via the parallel engine, so the
// table is identical for any worker count.
func RunT15(w io.Writer) error {
	const (
		n      = 5
		cycles = 1200
		warmup = 150
		reps   = 3
	)
	cfg := engine.Config{Seed: 15}
	f, err := sim.NewFabric(topology.MustBuild(topology.NameOmega, n).LinkPerms)
	if err != nil {
		return err
	}

	loads := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	fmt.Fprintf(w, "saturation curve: omega n=%d (N=%d), queue 4, %d cycles, %d reps\n",
		n, 1<<uint(n), cycles, reps)
	fmt.Fprintf(w, "%-8s %-22s %-14s %-18s %-10s\n",
		"load", "throughput", "mean latency", "p50/p95/p99", "rejected")
	for _, load := range loads {
		st, err := engine.RunBuffered(context.Background(), f, sim.BufferedConfig{
			Pattern: sim.Bernoulli(load), Queue: 4, Cycles: cycles, Warmup: warmup,
		}, reps, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8.2f %.4f ± %-12.4f %-14.2f %3.0f/%3.0f/%-10.0f %-10d\n",
			load, st.Throughput.Mean, st.Throughput.CI95, st.Latency.Mean,
			st.LatencyP50.Mean, st.LatencyP95.Mean, st.LatencyP99.Mean, st.Rejected)
	}

	// Lanes ablation at saturation, total buffering fixed (lanes x queue
	// = 8): head-of-line bypass is the only variable.
	fmt.Fprintf(w, "\nmulti-lane storage at load 1.0, lanes x queue = 8 held fixed:\n")
	fmt.Fprintf(w, "%-8s %-8s %-22s %-14s %-12s\n",
		"lanes", "queue", "throughput", "mean latency", "p99")
	for _, v := range []struct{ lanes, queue int }{{1, 8}, {2, 4}, {4, 2}, {8, 1}} {
		st, err := engine.RunBuffered(context.Background(), f, sim.BufferedConfig{
			Pattern: sim.Bernoulli(1.0), Queue: v.queue, Lanes: v.lanes, Cycles: cycles, Warmup: warmup,
		}, reps, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d %-8d %.4f ± %-12.4f %-14.2f %-12.0f\n",
			v.lanes, v.queue, st.Throughput.Mean, st.Throughput.CI95,
			st.Latency.Mean, st.LatencyP99.Mean)
	}

	// Adversarial patterns at saturation: the stability ordering.
	fmt.Fprintf(w, "\nscenario stress at load 1.0 (queue 4, lanes 2):\n")
	fmt.Fprintf(w, "%-14s %-22s %-14s %-12s\n", "pattern", "throughput", "mean latency", "p99")
	for _, sc := range []struct {
		name string
		tr   sim.Traffic
	}{
		{"uniform", sim.Uniform()},
		{"transpose", sim.Transpose()},
		{"bitreversal", sim.BitReversal()},
		{"hotspot30%", sim.HotSpot(0, 0.3)},
	} {
		st, err := engine.RunBuffered(context.Background(), f, sim.BufferedConfig{
			Queue: 4, Lanes: 2, Cycles: cycles, Warmup: warmup, Pattern: sc.tr,
		}, reps, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %.4f ± %-12.4f %-14.2f %-12.0f\n",
			sc.name, st.Throughput.Mean, st.Throughput.CI95,
			st.Latency.Mean, st.LatencyP99.Mean)
	}
	fmt.Fprintf(w, "prediction: throughput tracks load until the banyan blocking limit,\n")
	fmt.Fprintf(w, "then flattens while tail latency and rejections climb; more lanes at\n")
	fmt.Fprintf(w, "fixed buffering raise the saturated throughput (head-of-line bypass).\n")
	return nil
}
