package min

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"minequiv/internal/sim"
)

// WithFaults degrades both models deterministically: (seed, plan)
// reproduces the run, fault drops are reported, and delivery falls
// versus the intact fabric.
func TestSimulateWithFaults(t *testing.T) {
	nw := MustBuild(Omega, 5)
	plan := FaultPlan{
		Faults:         []Fault{{Kind: SwitchDead, Stage: 1, Cell: 0}},
		SwitchDeadRate: 0.03,
		LinkDownRate:   0.02,
	}
	opts := []Option{WithSeed(9), WithWaves(120)}
	intact, err := Simulate(context.Background(), nw, opts...)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Simulate(context.Background(), nw, append(opts, WithFaults(plan))...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), nw, append(opts, WithFaults(plan), WithWorkers(4))...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("degraded run not reproducible across worker counts:\n%+v\n%+v", a, b)
	}
	if a.FaultDropped == 0 {
		t.Fatal("no fault drops reported")
	}
	if a.Offered != intact.Offered {
		t.Fatalf("fault plan changed offered traffic: %d vs %d", a.Offered, intact.Offered)
	}
	if a.Delivered >= intact.Delivered {
		t.Fatalf("faults did not degrade delivery: %d >= %d", a.Delivered, intact.Delivered)
	}

	bopts := []Option{WithSeed(9), WithCycles(300), WithWarmup(30), WithReplications(4), WithLoad(0.8)}
	bi, err := SimulateBuffered(context.Background(), nw, bopts...)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := SimulateBuffered(context.Background(), nw, append(bopts, WithFaults(plan))...)
	if err != nil {
		t.Fatal(err)
	}
	bf2, err := SimulateBuffered(context.Background(), nw, append(bopts, WithFaults(plan), WithWorkers(3))...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf, bf2) {
		t.Fatal("degraded buffered run not reproducible across worker counts")
	}
	if bf.FaultDropped == 0 {
		t.Fatal("buffered: no fault drops reported")
	}
	if bf.Delivered >= bi.Delivered {
		t.Fatalf("buffered: faults did not degrade delivery: %d >= %d", bf.Delivered, bi.Delivered)
	}

	// Invalid plans surface as errors.
	if _, err := Simulate(context.Background(), nw,
		WithSeed(1), WithFaults(FaultPlan{Faults: []Fault{{Kind: FaultKind(9), Stage: 0}}})); err == nil {
		t.Fatal("unknown fault kind accepted")
	}
	if _, err := SimulateBuffered(context.Background(), nw,
		WithSeed(1), WithFaults(FaultPlan{SwitchDeadRate: 1.5})); err == nil {
		t.Fatal("out-of-range fault rate accepted")
	}
}

// RouteUnderFaults with an empty plan is Route; pinned faults remove
// exactly the paths that used them.
func TestRouteUnderFaults(t *testing.T) {
	nw := MustBuild(Flip, 4)
	for src := 0; src < nw.Terminals(); src += 3 {
		for dst := 0; dst < nw.Terminals(); dst += 5 {
			want, err := Route(nw, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RouteUnderFaults(nw, src, dst, FaultPlan{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("(%d,%d): empty-plan route differs from Route", src, dst)
			}
		}
	}

	// Kill the stage-0 switch serving sources 4 and 5.
	plan := FaultPlan{Faults: []Fault{{Kind: SwitchDead, Stage: 0, Cell: 2}}}
	if _, err := RouteUnderFaults(nw, 4, 0, plan); err == nil {
		t.Fatal("routed through a dead switch")
	}
	if _, err := RouteUnderFaults(nw, 0, 4, plan); err != nil {
		t.Fatalf("unaffected source blocked: %v", err)
	}

	// The tail-cycle network is not PIPID-defined; fault-aware routing
	// must still work through the reachability fallback.
	tc, err := TailCycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RouteUnderFaults(tc, 1, 6, FaultPlan{}); err != nil {
		t.Fatalf("tail-cycle fault routing failed: %v", err)
	}

	// Random rates have no meaning for a single route.
	if _, err := RouteUnderFaults(nw, 0, 0, FaultPlan{SwitchDeadRate: 0.5}); err == nil {
		t.Fatal("random rates accepted for routing")
	}
	// Out-of-range terminals and fault coordinates are rejected.
	if _, err := RouteUnderFaults(nw, -1, 0, FaultPlan{}); err == nil {
		t.Fatal("negative src accepted")
	}
	if _, err := RouteUnderFaults(nw, 0, nw.Terminals(), FaultPlan{}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if _, err := RouteUnderFaults(nw, 0, 0, FaultPlan{Faults: []Fault{{Kind: LinkDown, Stage: 0, Link: 99}}}); err == nil {
		t.Fatal("out-of-range fault accepted")
	}
}

// TestRouteUnderDeadAndStuckPins: a dead pin and a stuck pin on one
// switch of the path block the route in either order, even when the
// stuck port alone is the one the path leaves on; of two stuck pins the
// later decides.
func TestRouteUnderDeadAndStuckPins(t *testing.T) {
	nw := MustBuild(Omega, 4)
	const src, dst = 5, 12
	intact, err := Route(nw, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	hop := intact.Hops[1]
	at := func(k FaultKind) Fault { return Fault{Kind: k, Stage: hop.Stage, Cell: hop.Cell} }
	own, other := SwitchStuck0+FaultKind(hop.OutPort), SwitchStuck1-FaultKind(hop.OutPort)
	for _, tc := range []struct {
		faults []Fault
		routes bool
	}{
		{[]Fault{at(SwitchDead), at(own)}, false},
		{[]Fault{at(own), at(SwitchDead)}, false},
		{[]Fault{at(other), at(own)}, true},
		{[]Fault{at(own), at(other)}, false},
	} {
		got, err := RouteUnderFaults(nw, src, dst, FaultPlan{Faults: tc.faults})
		switch {
		case tc.routes && (err != nil || !reflect.DeepEqual(got, intact)):
			t.Fatalf("%v: route %+v, err %v; want the intact path", tc.faults, got, err)
		case !tc.routes && (err == nil || !strings.HasPrefix(err.Error(), "route: no fault-free path from ")):
			t.Fatalf("%v: route %+v, err %v; want no fault-free path", tc.faults, got, err)
		}
	}
}

// CountAdmissibleUnderFaults reproduces the classical count on the
// intact fabric and degrades monotonically as elements fail.
func TestCountAdmissibleUnderFaults(t *testing.T) {
	nw := MustBuild(Omega, 3)
	intactAdm, total, err := CountAdmissibleUnderFaults(nw, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	wantAdm, wantTotal, err := CountAdmissible(nw)
	if err != nil {
		t.Fatal(err)
	}
	if intactAdm != wantAdm || total != wantTotal {
		t.Fatalf("intact count %d/%d differs from CountAdmissible %d/%d", intactAdm, total, wantAdm, wantTotal)
	}
	// Both count with the reachability router, so also pin the classical
	// value: 2^(4 switches x 3 stages) of 8!.
	if intactAdm != 1<<12 || total != 40320 {
		t.Fatalf("intact count %d/%d, want %d/40320", intactAdm, total, 1<<12)
	}

	// The fragility corollary: a conflict-free full permutation uses
	// every outlink of every stage, so ANY single fault — severed link,
	// dead switch, jammed crossbar — zeroes the admissible count.
	for name, plan := range map[string]FaultPlan{
		"link":  {Faults: []Fault{{Kind: LinkDown, Stage: 1, Link: 2}}},
		"dead":  {Faults: []Fault{{Kind: SwitchDead, Stage: 1, Cell: 1}}},
		"stuck": {Faults: []Fault{{Kind: SwitchStuck1, Stage: 2, Cell: 3}}},
	} {
		adm, _, err := CountAdmissibleUnderFaults(nw, plan)
		if err != nil {
			t.Fatal(err)
		}
		if adm != 0 {
			t.Fatalf("%s fault: admissible=%d, want 0 (full permutations saturate the fabric)", name, adm)
		}
	}
	if intactAdm == 0 {
		t.Fatal("intact count degenerate")
	}
}

// Routing under faults validates the plan against the network's shape
// alone: it never compiles the simulation fabric. Only a simulation
// compiles it, once, and later runs share it.
func TestFaultRoutingCompilesNoFabric(t *testing.T) {
	nw := MustBuild(Baseline, 3)
	plan := FaultPlan{Faults: []Fault{{Kind: SwitchStuck0, Stage: 1, Cell: 2}, {Kind: LinkDown, Stage: 2, Link: 5}}}
	for dst := 0; dst < nw.Terminals(); dst++ {
		_, _ = RouteUnderFaults(nw, 1, dst, plan) // some pairs survive, some do not: either is fine here
	}
	if _, err := RouteUnderFaults(nw, 0, 0, FaultPlan{Faults: []Fault{{Kind: LinkDown, Stage: 0, Link: 99}}}); err == nil {
		t.Fatal("out-of-range fault accepted")
	}
	if _, _, err := CountAdmissibleUnderFaults(nw, plan); err != nil {
		t.Fatal(err)
	}
	if nw.fabric != nil || nw.fabricErr != nil {
		t.Fatal("fault routing compiled the simulation fabric")
	}
	ctx := context.Background()
	if _, err := Simulate(ctx, nw, WithWaves(4), WithFaults(plan)); err != nil {
		t.Fatal(err)
	}
	f := nw.fabric
	if f == nil {
		t.Fatal("Simulate left the fabric uncompiled")
	}
	if _, err := SimulateBuffered(ctx, nw, WithCycles(20), WithWarmup(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(ctx, nw, WithWaves(4)); err != nil {
		t.Fatal(err)
	}
	if nw.fabric != f {
		t.Fatal("a later simulation compiled the fabric again")
	}
}

// TestRouteAgreesWithWave: on a unique-path network, routing under a
// pinned plan and the wave kernel under the same realized faults agree
// pair by pair. RouteUnderFaults succeeds iff a one-packet wave from
// src to dst delivers its packet, for every catalog network at 3..6
// stages under seeded plans of 1-4 faults drawn from every kind.
func TestRouteAgreesWithWave(t *testing.T) {
	kinds := []FaultKind{SwitchDead, SwitchStuck0, SwitchStuck1, LinkDown}
	rng := rand.New(rand.NewPCG(19, 1))
	// oneWave reports whether a wave carrying the single packet src->dst
	// delivers it.
	oneWave := func(wr *sim.WaveRunner, dsts []int, src, dst int) bool {
		for i := range dsts {
			dsts[i] = -1
		}
		dsts[src] = dst
		res, err := wr.RunWave(dsts, rng)
		if err != nil {
			t.Fatal(err)
		}
		return res.Delivered == 1
	}
	checks := 0
	for _, name := range CatalogNames() {
		for stages := 3; stages <= 6; stages++ {
			nw := MustBuild(name, stages)
			f, err := nw.compiledFabric()
			if err != nil {
				t.Fatal(err)
			}
			N := nw.Terminals()
			dsts := make([]int, N)
			for p := 0; p < 6; p++ {
				var plan FaultPlan
				for k := 1 + rng.IntN(4); k > 0; k-- {
					flt := Fault{Kind: kinds[rng.IntN(len(kinds))], Stage: rng.IntN(stages)}
					if flt.Kind == LinkDown {
						flt.Link = rng.IntN(N)
					} else {
						flt.Cell = rng.IntN(nw.CellsPerStage())
					}
					plan.Faults = append(plan.Faults, flt)
				}
				fs := sim.NewFaultState(stages)
				if err := fs.Sample(plan, nil); err != nil {
					t.Fatal(err)
				}
				wr := f.NewWaveRunner()
				if err := wr.SetFaults(fs); err != nil {
					t.Fatal(err)
				}
				for src := 0; src < N; src++ {
					for dst := 0; dst < N; dst++ {
						_, rerr := RouteUnderFaults(nw, src, dst, plan)
						if delivered := oneWave(wr, dsts, src, dst); (rerr == nil) != delivered {
							t.Fatalf("%s n=%d %d->%d under %+v: route err %v, wave delivered %t",
								name, stages, src, dst, plan.Faults, rerr, delivered)
						}
						checks++
					}
				}
			}
		}
	}
	if want := len(CatalogNames()) * 6 * (64 + 256 + 1024 + 4096); checks != want {
		t.Fatalf("%d checks, want %d", checks, want)
	}
}
