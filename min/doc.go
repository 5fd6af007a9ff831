// Package min is the public face of this module: one coherent API over
// the multistage-interconnection-network theory of Bermond & Fourneau
// ("Independent Connections: An Easy Characterization of
// Baseline-Equivalent Multistage Interconnection Networks", ICPP 1988)
// and the packet-simulation engine built on top of it.
//
// Everything under internal/ is plumbing; programs outside this module
// — and this module's own CLIs (minctl, minsim, minserve) and examples
// — consume only this package.
//
// # Networks
//
// A Network is an n-stage MIN on N = 2^n terminals. Build one from the
// classical catalog, from explicit per-stage permutations, or with the
// fluent Builder:
//
//	omega, _ := min.Build(min.Omega, 4)
//	custom, _ := min.NewBuilder(4).
//		Stage(min.Butterfly(1)).
//		Stage(min.Butterfly(3)).
//		Stage(min.Butterfly(2)).
//		Build("my-cascade")
//	cube, _ := min.NewBuilder(4).StageAll(min.PerfectShuffle()).Build("omega-again")
//
// # Theory
//
// Check evaluates the paper's characterization (Banyan + P(1,*) +
// P(*,n)) and returns a structured Report; Iso constructs the explicit
// isomorphism onto the Baseline network that the theorem promises;
// CheckIso returns both, characterizing the network once; Equivalent
// decides topological equivalence of two networks.
//
//	rep := min.Check(omega)        // rep.Equivalent == true
//	iso, _ := min.Iso(omega)       // per-stage node maps onto Baseline
//	ok, _ := min.Equivalent(omega, custom)
//
// # Routing
//
// Route walks a packet from an input terminal to an output terminal
// with one reachability router, the one RouteUnderFaults also uses: it
// finds the unique path on Banyan networks and fails when no path
// exists. TagPositions gives a PIPID network's §4 destination-tag
// schedule: stage s of that unique path leaves on destination bit
// TagPositions[s]. Neither routing call compiles the simulation fabric:
// only Simulate and SimulateBuffered do.
//
//	path, _ := min.Route(omega, 5, 12)
//
// # Simulation
//
// Simulate (synchronous unbuffered waves, drop on conflict) and
// SimulateBuffered (multi-lane FIFO store-and-forward) run the parallel
// trial engine with functional options. Runs are deterministic in
// (seed, trial count) — never in worker count — and honour context
// cancellation within one trial:
//
//	stats, _ := min.Simulate(ctx, omega,
//		min.WithWaves(500), min.WithScenario("transpose"),
//		min.WithSeed(7), min.WithWorkers(4))
//	bstats, _ := min.SimulateBuffered(ctx, omega,
//		min.WithLoad(0.8), min.WithQueue(4), min.WithLanes(2),
//		min.WithCycles(5000))
//
// Scenarios lists the named traffic patterns accepted by WithScenario.
//
// # Faults
//
// A FaultPlan degrades the fabric: pinned faults (dead switches, jammed
// crossbars, severed links) and/or Bernoulli rates redrawn per trial.
// WithFaults threads it through either simulation model — degraded runs
// are reproducible from (seed, plan) alone and worker-count invariant —
// and RouteUnderFaults / CountAdmissibleUnderFaults evaluate routing on
// the surviving wiring:
//
//	plan := min.FaultPlan{SwitchDeadRate: 0.02}
//	dstats, _ := min.Simulate(ctx, omega, min.WithFaults(plan), min.WithSeed(7))
//	p, _ := min.RouteUnderFaults(omega, 5, 12,
//		min.FaultPlan{Faults: []min.Fault{{Kind: min.SwitchDead, Stage: 1, Cell: 3}}})
//
// FaultKind is a byte with a text form: it marshals to and parses from
// the kind's name ("switch-dead", "switch-stuck0", "switch-stuck1",
// "link-down"), so the JSON and binary wire forms are unchanged, but
// code that converts a string with min.FaultKind("…") no longer
// compiles; use the constants or UnmarshalText.
//
// # Result types
//
// The result types are aliases of the types the layers below compute
// with, and their field docs are on those types: Report is
// equiv.Report and WindowCheck midigraph.WindowResult; WaveStats,
// BufferedStats and Stat are engine.WaveStats, engine.BufferedStats
// and engine.Stats; FaultPlan and Fault are sim's; Path and Hop are
// route's. This package only stamps the names it alone knows, the
// network's and the scenario's.
//
// The setting types are aliases too: Kernel is engine.Kernel, Arbiter
// sim.ArbiterPolicy and LaneSelect sim.LanePolicy, each a byte whose
// String and UnmarshalText read one name table ("" parses to the zero
// value, the default); DrawOptions is ascii.Options and NetworkInfo
// topology.CatalogEntry. The simulation defaults are the Default*
// constants.
package min
