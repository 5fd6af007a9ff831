// Command minsim runs packet-level simulations of a multistage
// interconnection network through the public min API (which shards
// trials across workers on the parallel engine).
//
// Usage:
//
//	minsim -net omega -n 6 -model wave     -waves 500 -pattern uniform
//	minsim -net flip  -n 6 -model buffered -load 0.7 -queue 4 -lanes 2 -cycles 5000
//	minsim -net flip  -n 6 -model buffered -pattern transpose -load 0.5
//	minsim -counter -n 6 -model wave       # simulate the tail-cycle counterexample
//	minsim -net omega -n 6 -faults dead=0.02,link=0.01     # random fault rates
//	minsim -net omega -n 6 -faults dead@1:3,stuck0@0:2     # pinned faults
//	minsim -sweep -n 6 -loads 0.2,0.4,0.6,0.8,1.0    # load x network grid
//	minsim -sweep -model buffered -n 6 -queues 2,8 -lanegrid 1,4   # load x queue x lanes
//	minsim -sweep -n 5 -faultrates 0,0.01,0.05       # degradation curves
//	minsim -patterns                       # list traffic scenarios
//
// Every run shards its trials across -workers goroutines (default
// GOMAXPROCS); results are identical for any worker count. The buffered
// model injects by the named scenario: load-aware scenarios (bernoulli,
// bursty) consume -load themselves, every other pattern is thinned to
// the offered -load.
//
// -faults degrades the fabric: comma-separated rate items (dead=R,
// stuck=R, link=R — Bernoulli per element, redrawn per trial) and
// pinned items (dead@stage:cell, stuck0@stage:cell, stuck1@stage:cell,
// link@stage:link). -faultrates adds a switch-dead-rate axis to -sweep.
// Degraded runs stay reproducible from (-seed, -faults) alone.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"minequiv/min"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("minsim", flag.ContinueOnError)
	netName := fs.String("net", min.Omega, "network name")
	counter := fs.Bool("counter", false, "simulate the tail-cycle counterexample instead of -net")
	n := fs.Int("n", 6, "number of stages")
	model := fs.String("model", "wave", "wave or buffered")
	pattern := fs.String("pattern", min.DefaultScenario, "traffic scenario (see -patterns)")
	listPatterns := fs.Bool("patterns", false, "list traffic scenarios and exit")
	waves := fs.Int("waves", min.DefaultWaves, "waves (wave model)")
	kernel := fs.String("kernel", min.KernelAuto.String(), "wave executor: auto, scalar or bit (results are identical)")
	reps := fs.Int("reps", min.DefaultReplications, "independent replications (buffered model)")
	load := fs.Float64("load", min.DefaultBufferedLoad, "offered load (buffered model; bernoulli/bursty patterns)")
	queue := fs.Int("queue", min.DefaultQueue, "queue capacity per lane (buffered model)")
	lanes := fs.Int("lanes", min.DefaultLanes, "FIFO lanes per switch input port (buffered model)")
	cycles := fs.Int("cycles", min.DefaultCycles, "measured cycles (buffered model)")
	warmup := fs.Int("warmup", min.DefaultWarmup, "warmup cycles (buffered model)")
	hotspot := fs.Float64("hotspot", min.DefaultHotProb, "hot-spot probability (hotspot pattern)")
	burst := fs.Float64("burst", min.DefaultBurstProb, "burst-wave probability (bursty pattern)")
	idleLoad := fs.Float64("idleload", min.DefaultIdleLoad, "off-phase load (bursty pattern)")
	seed := fs.Uint64("seed", min.DefaultSeed, "root rng seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	faults := fs.String("faults", "", "fault plan: rate items (dead=R,stuck=R,link=R) and pinned items (dead@S:C, stuck0@S:C, stuck1@S:C, link@S:L)")
	sweep := fs.Bool("sweep", false, "run a load x network grid in one invocation")
	nets := fs.String("nets", "", "comma-separated networks for -sweep (default: all)")
	loads := fs.String("loads", "0.2,0.4,0.6,0.8,1.0", "comma-separated loads for -sweep")
	queues := fs.String("queues", "", "comma-separated queue depths for buffered -sweep (default: -queue)")
	laneGrid := fs.String("lanegrid", "", "comma-separated lane counts for buffered -sweep (default: -lanes)")
	faultRates := fs.String("faultrates", "", "comma-separated switch-dead rates adding a fault axis to -sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listPatterns {
		for _, s := range min.Scenarios() {
			fmt.Fprintf(w, "%-12s %s\n", s.Name, s.Description)
		}
		return nil
	}

	common := []min.Option{
		min.WithSeed(*seed), min.WithWorkers(*workers),
		min.WithScenario(*pattern),
		min.WithHotspot(0, *hotspot), min.WithBurst(*burst, *idleLoad),
	}
	// The wave model historically offers full load unless -load is given
	// (load-aware patterns excepted); the buffered model always thins to
	// -load. min.WithLoad implements exactly that when applied on demand.
	loadSet, kernelSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "load":
			loadSet = true
		case "kernel":
			kernelSet = true
		}
	})

	if *sweep {
		// The sweep grid fixes its own traffic (Bernoulli at each grid
		// load) and network list; reject flags it would silently drop.
		if *counter {
			return fmt.Errorf("-sweep runs the catalog networks; it cannot be combined with -counter")
		}
		patternSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "pattern" {
				patternSet = true
			}
		})
		if patternSet {
			return fmt.Errorf("-sweep always uses bernoulli traffic at each grid load; -pattern is not supported")
		}
		if *model != "buffered" && (*queues != "" || *laneGrid != "") {
			return fmt.Errorf("-queues/-lanegrid apply to the buffered sweep only")
		}
		if *faults != "" {
			return fmt.Errorf("-sweep varies faults through -faultrates, not -faults")
		}
		return runSweep(ctx, w, sweepSpec{
			model: *model, n: *n, nets: *nets, loads: *loads,
			queues: *queues, laneGrid: *laneGrid, faultRates: *faultRates,
			waves: *waves, reps: *reps, queue: *queue, lanes: *lanes,
			cycles: *cycles, warmup: *warmup,
		}, *seed, *workers)
	}
	if *faultRates != "" {
		return fmt.Errorf("-faultrates is a -sweep axis; use -faults for a single run")
	}

	plan, err := parseFaultSpec(*faults)
	if err != nil {
		return err
	}
	if !plan.Empty() {
		common = append(common, min.WithFaults(plan))
	}

	nw, err := buildNetwork(*counter, *netName, *n)
	if err != nil {
		return err
	}

	switch *model {
	case "wave":
		var k min.Kernel
		if err := k.UnmarshalText([]byte(*kernel)); err != nil {
			return err
		}
		opts := append(common, min.WithWaves(*waves), min.WithKernel(k))
		// Load-aware scenarios (bernoulli, bursty) have always consumed
		// -load, default included; other patterns offer full load unless
		// -load is given explicitly (which thins them).
		if loadSet || scenarioIsLoadAware(*pattern) {
			opts = append(opts, min.WithLoad(*load))
		}
		st, err := min.Simulate(ctx, nw, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s n=%d (N=%d), %s traffic, %d waves: throughput %.4f ± %.4f\n",
			st.Network, st.Stages, st.Terminals, st.Scenario, st.Waves,
			st.Throughput.Mean, st.Throughput.CI95)
		fmt.Fprintf(w, "  offered %d, delivered %d, dropped %d, misrouted %d\n",
			st.Offered, st.Delivered, st.Dropped, st.Misrouted)
		if !plan.Empty() {
			fmt.Fprintf(w, "  faults: %s; %d packets killed by faults\n", *faults, st.FaultDropped)
		}
		return nil

	case "buffered":
		if kernelSet {
			return fmt.Errorf("-kernel selects the wave executor; the buffered model has no bit-sliced form")
		}
		st, err := min.SimulateBuffered(ctx, nw, append(common,
			min.WithLoad(*load), min.WithQueue(*queue), min.WithLanes(*lanes),
			min.WithCycles(*cycles), min.WithWarmup(*warmup),
			min.WithReplications(*reps))...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s n=%d (N=%d), buffered, %s traffic, load %.2f, queue %d, lanes %d, %d cycles, %d reps:\n",
			st.Network, st.Stages, st.Terminals, st.Scenario, *load, *queue, *lanes, *cycles, *reps)
		fmt.Fprintf(w, "  throughput   %.4f ± %.4f per terminal per cycle\n",
			st.Throughput.Mean, st.Throughput.CI95)
		fmt.Fprintf(w, "  mean latency %.2f ± %.2f cycles (p50 %.0f, p95 %.0f, p99 %.0f)\n",
			st.Latency.Mean, st.Latency.CI95,
			st.LatencyP50.Mean, st.LatencyP95.Mean, st.LatencyP99.Mean)
		fmt.Fprintf(w, "  injected %d, delivered %d, rejected %d, dropped %d, misrouted %d, in flight %d\n",
			st.Injected, st.Delivered, st.Rejected, st.Dropped, st.Misrouted, st.InFlight)
		if !plan.Empty() {
			fmt.Fprintf(w, "  faults: %s; %d packets killed by faults\n", *faults, st.FaultDropped)
		}
		fmt.Fprintf(w, "  max lane occupancy %d; mean stage occupancy", st.MaxOccupancy)
		for _, occ := range st.StageOccupancy {
			fmt.Fprintf(w, " %.1f", occ)
		}
		fmt.Fprintln(w)
		return nil

	default:
		return fmt.Errorf("unknown model %q", *model)
	}
}

// parseFaultSpec builds a fault plan from the -faults syntax: rate
// items kind=rate (dead, stuck, link) and pinned items kind@stage:coord
// (dead, stuck0, stuck1 with a cell; link with an outlink).
func parseFaultSpec(spec string) (min.FaultPlan, error) {
	var plan min.FaultPlan
	if spec == "" {
		return plan, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if kind, val, ok := strings.Cut(item, "="); ok {
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return plan, fmt.Errorf("bad fault rate %q: %w", item, err)
			}
			switch kind {
			case "dead":
				plan.SwitchDeadRate = rate
			case "stuck":
				plan.SwitchStuckRate = rate
			case "link":
				plan.LinkDownRate = rate
			default:
				return plan, fmt.Errorf("unknown fault rate %q (dead, stuck, link)", kind)
			}
			continue
		}
		kind, loc, ok := strings.Cut(item, "@")
		if !ok {
			return plan, fmt.Errorf("bad fault item %q (want kind=rate or kind@stage:coord)", item)
		}
		stageStr, coordStr, ok := strings.Cut(loc, ":")
		if !ok {
			return plan, fmt.Errorf("bad fault location %q (want stage:coord)", loc)
		}
		stage, err := strconv.Atoi(stageStr)
		if err != nil {
			return plan, fmt.Errorf("bad fault stage %q: %w", stageStr, err)
		}
		coord, err := strconv.Atoi(coordStr)
		if err != nil {
			return plan, fmt.Errorf("bad fault coordinate %q: %w", coordStr, err)
		}
		f := min.Fault{Stage: stage}
		switch kind {
		case "dead":
			f.Kind, f.Cell = min.SwitchDead, coord
		case "stuck0":
			f.Kind, f.Cell = min.SwitchStuck0, coord
		case "stuck1":
			f.Kind, f.Cell = min.SwitchStuck1, coord
		case "link":
			f.Kind, f.Link = min.LinkDown, coord
		default:
			return plan, fmt.Errorf("unknown fault kind %q (dead, stuck0, stuck1, link)", kind)
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan, nil
}

func buildNetwork(counter bool, netName string, n int) (*min.Network, error) {
	if counter {
		return min.TailCycle(n)
	}
	return min.Build(netName, n)
}

// scenarioIsLoadAware reports whether the named scenario consumes the
// offered load itself (unknown names resolve to false; the simulate
// call reports them properly).
func scenarioIsLoadAware(name string) bool {
	for _, s := range min.Scenarios() {
		if s.Name == name {
			return s.LoadAware
		}
	}
	return false
}

// sweepSpec carries the grid axes of one -sweep invocation.
type sweepSpec struct {
	model            string
	n                int
	nets             string
	loads            string
	queues, laneGrid string // buffered model only
	faultRates       string // switch-dead rates; "" = intact only
	waves, reps      int
	queue, lanes     int
	cycles, warmup   int
}

func parseFloats(list string) ([]float64, error) {
	var vals []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %w", s, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

func parseInts(list string, fallback int) ([]int, error) {
	if list == "" {
		return []int{fallback}, nil
	}
	var vals []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", s, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// runSweep evaluates a grid in one invocation: Bernoulli wave traffic
// per load for the wave model (network x [fault rate x] load), or
// buffered runs over the full load x queue x lanes [x fault rate] grid
// per network — buffered rows carry loss (dropped/rejected) and latency
// percentiles, not just throughput, so saturation and degradation
// tables show where packets go.
func runSweep(ctx context.Context, w io.Writer, sp sweepSpec, seed uint64, workers int) error {
	names := min.CatalogNames()
	if sp.nets != "" {
		names = strings.Split(sp.nets, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	loadVals, err := parseFloats(sp.loads)
	if err != nil {
		return err
	}
	if len(loadVals) == 0 {
		return fmt.Errorf("empty load list")
	}
	rateVals := []float64{0}
	faultAxis := sp.faultRates != ""
	if faultAxis {
		if rateVals, err = parseFloats(sp.faultRates); err != nil {
			return err
		}
		if len(rateVals) == 0 {
			return fmt.Errorf("empty fault-rate list")
		}
	}
	// withFaults appends the grid point's degradation (switch-dead rate).
	withFaults := func(opts []min.Option, rate float64) []min.Option {
		if rate == 0 {
			return opts
		}
		return append(opts, min.WithFaults(min.FaultPlan{SwitchDeadRate: rate}))
	}
	common := []min.Option{min.WithSeed(seed), min.WithWorkers(workers)}
	switch sp.model {
	case "wave":
		fmt.Fprintf(w, "sweep: wave model, n=%d (N=%d), %d networks x %d fault rates x %d loads\n",
			sp.n, 1<<uint(sp.n), len(names), len(rateVals), len(loadVals))
		fmt.Fprintf(w, "%-26s", "network")
		if faultAxis {
			fmt.Fprintf(w, " %-7s", "dead")
		}
		for _, l := range loadVals {
			fmt.Fprintf(w, " load=%-8.2f", l)
		}
		fmt.Fprintln(w)
		for _, name := range names {
			nw, err := buildNetwork(false, name, sp.n)
			if err != nil {
				return err
			}
			for _, rate := range rateVals {
				fmt.Fprintf(w, "%-26s", nw.Name())
				if faultAxis {
					fmt.Fprintf(w, " %-7.3f", rate)
				}
				for _, l := range loadVals {
					st, err := min.Simulate(ctx, nw, withFaults(append(common,
						min.WithScenario("bernoulli"), min.WithLoad(l), min.WithWaves(sp.waves)), rate)...)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %-13.4f", st.Throughput.Mean)
				}
				fmt.Fprintln(w)
			}
		}
		return nil

	case "buffered":
		queueVals, err := parseInts(sp.queues, sp.queue)
		if err != nil {
			return err
		}
		laneVals, err := parseInts(sp.laneGrid, sp.lanes)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "sweep: buffered model, n=%d (N=%d), %d networks x %d loads x %d queues x %d lanes x %d fault rates\n",
			sp.n, 1<<uint(sp.n), len(names), len(loadVals), len(queueVals), len(laneVals), len(rateVals))
		fmt.Fprintf(w, "%-26s %-6s %-6s", "network", "queue", "lanes")
		if faultAxis {
			fmt.Fprintf(w, " %-7s", "dead")
		}
		fmt.Fprintf(w, " %-6s %-11s %-8s %-9s %-14s\n",
			"load", "throughput", "dropped", "rejected", "p50/p95/p99")
		for _, name := range names {
			nw, err := buildNetwork(false, name, sp.n)
			if err != nil {
				return err
			}
			for _, q := range queueVals {
				for _, lanes := range laneVals {
					for _, rate := range rateVals {
						for _, l := range loadVals {
							st, err := min.SimulateBuffered(ctx, nw, withFaults(append(common,
								min.WithLoad(l), min.WithQueue(q), min.WithLanes(lanes),
								min.WithCycles(sp.cycles), min.WithWarmup(sp.warmup),
								min.WithReplications(sp.reps)), rate)...)
							if err != nil {
								return err
							}
							fmt.Fprintf(w, "%-26s %-6d %-6d", nw.Name(), q, lanes)
							if faultAxis {
								fmt.Fprintf(w, " %-7.3f", rate)
							}
							fmt.Fprintf(w, " %-6.2f %-11.4f %-8d %-9d %3.0f/%3.0f/%3.0f\n",
								l, st.Throughput.Mean, st.Dropped, st.Rejected,
								st.LatencyP50.Mean, st.LatencyP95.Mean, st.LatencyP99.Mean)
						}
					}
				}
			}
		}
		return nil

	default:
		return fmt.Errorf("unknown model %q", sp.model)
	}
}
