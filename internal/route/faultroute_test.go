package route

import (
	"strings"
	"testing"

	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// faultsFor realizes a pinned plan for an n-stage fabric.
func faultsFor(t *testing.T, n int, faults ...sim.Fault) *sim.FaultState {
	t.Helper()
	fs := sim.NewFaultState(n)
	if err := fs.Sample(sim.FaultPlan{Faults: faults}, nil); err != nil {
		t.Fatal(err)
	}
	return fs
}

// With no faults the FaultyRouter is the tag router: same paths for
// every pair, and the classical admissible count.
func TestFaultyRouterIntactMatchesTagRouter(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 3)
	tag, err := NewRouter(nw.IndexPerms)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFaultyRouter(nw.LinkPerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	N := fr.N()
	for src := 0; src < N; src++ {
		for dst := 0; dst < N; dst++ {
			a, err := tag.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fr.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if !pathsEqual(a, b) {
				t.Fatalf("pair (%d,%d): intact FaultyRouter path differs from the tag router", src, dst)
			}
		}
	}
	adm, total, err := fr.CountAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	// 3 stages x 4 switches: 2^12 admissible of 8!.
	if adm != 1<<12 || total != 40320 {
		t.Fatalf("intact admissible=%d/%d, want %d/40320", adm, total, 1<<12)
	}
}

// A fault state is indexed without bounds checks of its own, so one
// sized for another stage count is rejected up front; nil and a state
// of the network's own size are accepted.
func TestFaultyRouterRejectsMisSizedSpec(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 3)
	for _, stages := range []int{2, 4} {
		if _, err := NewFaultyRouter(nw.LinkPerms, sim.NewFaultState(stages)); err == nil {
			t.Errorf("%d-stage fault state accepted on 3 stages", stages)
		}
	}
	if _, err := NewFaultyRouter(nw.LinkPerms, nil); err != nil {
		t.Errorf("nil fault state rejected: %v", err)
	}
	if _, err := NewFaultyRouter(nw.LinkPerms, sim.NewFaultState(3)); err != nil {
		t.Errorf("3-stage fault state rejected: %v", err)
	}
}

// An unroutable pair under a fault state, even an all-clear one, reports
// "no fault-free path"; only a nil state reports plain "no path".
func TestFaultyRouterErrorText(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 3)
	fr, err := NewFaultyRouter(nw.LinkPerms, faultsFor(t, 3, sim.Fault{Kind: sim.SwitchDead, Stage: 0, Cell: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Route(0, 3); err == nil || !strings.HasPrefix(err.Error(), "route: no fault-free path from 0 to 3") {
		t.Fatalf("dead entry switch: err %v", err)
	}
}

// A dead stage-0 switch unroutes exactly its two inputs; every full
// permutation then needs a path it cannot have, so none is admissible.
func TestFaultyRouterDeadSwitch(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 3)
	fs := faultsFor(t, 3, sim.Fault{Kind: sim.SwitchDead, Stage: 0, Cell: 0})
	fr, err := NewFaultyRouter(nw.LinkPerms, fs)
	if err != nil {
		t.Fatal(err)
	}
	N := fr.N()
	for dst := 0; dst < N; dst++ {
		for _, src := range []int{0, 1} {
			if _, err := fr.Route(src, dst); err == nil {
				t.Fatalf("route %d->%d through a dead switch", src, dst)
			}
		}
		if _, err := fr.Route(2, dst); err != nil {
			t.Fatalf("route 2->%d should survive: %v", dst, err)
		}
	}
	adm, _, err := fr.CountAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	if adm != 0 {
		t.Fatalf("admissible=%d with a dead entry switch, want 0", adm)
	}
}

// A stuck crossbar halves the reachable set of its inputs: the switch
// can still deliver wherever the forced port leads.
func TestFaultyRouterStuckSwitch(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 4)
	intact, err := NewFaultyRouter(nw.LinkPerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := faultsFor(t, 4, sim.Fault{Kind: sim.SwitchStuck0, Stage: 0, Cell: 0})
	fr, err := NewFaultyRouter(nw.LinkPerms, fs)
	if err != nil {
		t.Fatal(err)
	}
	N := fr.N()
	reachable := 0
	for dst := 0; dst < N; dst++ {
		p, err := fr.Route(0, dst)
		if err != nil {
			continue
		}
		reachable++
		if p.Hops[0].OutPort != 0 {
			t.Fatalf("stuck0 switch routed out port %d", p.Hops[0].OutPort)
		}
		// The surviving path must be the intact unique path.
		q, err := intact.Route(0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !pathsEqual(p, q) {
			t.Fatalf("dst %d: stuck route differs from the intact unique path", dst)
		}
	}
	if reachable != int(N)/2 {
		t.Fatalf("stuck switch reaches %d destinations, want %d", reachable, N/2)
	}
}

// Severing one terminal link unroutes exactly that destination.
func TestFaultyRouterLinkDown(t *testing.T) {
	nw := topology.MustBuild(topology.NameFlip, 3)
	const target = 6
	fs := faultsFor(t, 3, sim.Fault{Kind: sim.LinkDown, Stage: 2, Link: target})
	fr, err := NewFaultyRouter(nw.LinkPerms, fs)
	if err != nil {
		t.Fatal(err)
	}
	N := fr.N()
	for src := 0; src < N; src++ {
		for dst := 0; dst < N; dst++ {
			_, err := fr.Route(src, dst)
			if dst == target && err == nil {
				t.Fatalf("route %d->%d over a severed terminal link", src, dst)
			}
			if dst != target && err != nil {
				t.Fatalf("route %d->%d should survive: %v", src, dst, err)
			}
		}
	}
	adm, _, err := fr.CountAdmissible()
	if err != nil {
		t.Fatal(err)
	}
	if adm != 0 {
		t.Fatalf("admissible=%d with a severed terminal, want 0", adm)
	}
}

// A severed inter-stage link removes some paths but leaves every
// (src, dst) pair with an alternative only when the fabric offers one —
// on a Banyan there is none, so exactly the pairs whose unique path
// used that link become unroutable.
func TestFaultyRouterInterStageLinkDown(t *testing.T) {
	nw := topology.MustBuild(topology.NameOmega, 3)
	intact, err := NewFaultyRouter(nw.LinkPerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	const stage, out = 1, 3
	fr, err := NewFaultyRouter(nw.LinkPerms, faultsFor(t, 3, sim.Fault{Kind: sim.LinkDown, Stage: stage, Link: out}))
	if err != nil {
		t.Fatal(err)
	}
	N := fr.N()
	lost := 0
	for src := 0; src < N; src++ {
		for dst := 0; dst < N; dst++ {
			p, ierr := intact.Route(src, dst)
			if ierr != nil {
				t.Fatal(ierr)
			}
			usesLink := p.Hops[stage].Cell<<1|p.Hops[stage].OutPort == out
			_, ferr := fr.Route(src, dst)
			if usesLink && ferr == nil {
				t.Fatalf("pair (%d,%d) routed over the severed link", src, dst)
			}
			if !usesLink && ferr != nil {
				t.Fatalf("pair (%d,%d) should be unaffected: %v", src, dst, ferr)
			}
			if usesLink {
				lost++
			}
		}
	}
	if lost == 0 {
		t.Fatal("no pair used the severed link?")
	}
}
