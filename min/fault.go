package min

import (
	"fmt"

	"minequiv/internal/route"
	"minequiv/internal/sim"
)

// FaultKind names one class of fabric failure. It is a byte with a
// text form: its JSON form is the kind's name ("switch-dead",
// "switch-stuck0", "switch-stuck1", "link-down"), its binary-codec
// form the byte itself.
type FaultKind = sim.FaultKind

// The fault kinds: a dead switch, a crossbar jammed toward port 0 or
// port 1, and a severed outlink (link = cell*2+port; the last stage's
// outlinks are the output terminals).
const (
	SwitchDead   = sim.SwitchDead
	SwitchStuck0 = sim.SwitchStuck0
	SwitchStuck1 = sim.SwitchStuck1
	LinkDown     = sim.LinkDown
)

// Fault pins one failure to a fabric element. Switch faults address
// (Stage, Cell); LinkDown addresses (Stage, Link).
type Fault = sim.Fault

// FaultPlan describes how a fabric degrades: a fixed list of pinned
// faults plus Bernoulli rates for random faults redrawn each trial.
// Pass it to Simulate/SimulateBuffered with WithFaults — degraded runs
// are reproducible from (seed, plan) alone — or to RouteUnderFaults and
// CountAdmissibleUnderFaults (pinned faults only; routing has no trial
// index to sample random rates from).
type FaultPlan = sim.FaultPlan

// faultyRouter builds the fault-aware reachability router for the
// plan's pinned faults, realized into a fault state sized by the
// network's stage count alone, so routing never compiles the simulation
// fabric. The state is realized even for an empty plan: a faulted route
// reports "no fault-free path", never the intact "no path".
func (nw *Network) faultyRouter(plan FaultPlan) (*route.FaultyRouter, error) {
	if plan.SwitchDeadRate != 0 || plan.SwitchStuckRate != 0 || plan.LinkDownRate != 0 {
		return nil, fmt.Errorf("min: routing under faults takes pinned faults only; random rates need a simulation trial to sample in (use WithFaults)")
	}
	fs := sim.NewFaultState(nw.Stages())
	if err := fs.Sample(plan, nil); err != nil {
		return nil, err
	}
	return route.NewFaultyRouter(nw.topo.LinkPerms, fs)
}

// RouteUnderFaults computes the path from src to dst on the degraded
// fabric described by the plan's pinned faults, via the reachability
// router Route also uses: dead switches, jammed
// crossbars and severed links are avoided, and the route fails when the
// surviving fabric offers no path. On a Banyan network the surviving
// path, when it exists, is the intact unique path.
func RouteUnderFaults(nw *Network, src, dst int, plan FaultPlan) (Path, error) {
	if src < 0 || dst < 0 {
		return Path{}, fmt.Errorf("min: negative terminal (src=%d dst=%d)", src, dst)
	}
	if src >= nw.Terminals() || dst >= nw.Terminals() {
		return Path{}, fmt.Errorf("min: terminal out of range [0,%d): src=%d dst=%d", nw.Terminals(), src, dst)
	}
	r, err := nw.faultyRouter(plan)
	if err != nil {
		return Path{}, err
	}
	return r.Route(src, dst)
}

// CountAdmissibleUnderFaults enumerates all N! full permutations
// (practical only for N <= 8, i.e. 3 stages) and counts those the
// degraded fabric can route without any link conflict: every source
// needs a surviving path and no two paths may share an outlink. With an
// empty plan this reproduces the classical 2^(switch count) of
// CountAdmissible — unlike CountAdmissible it does not require a PIPID
// construction, because it rides the reachability fallback. Note the
// fragility corollary it exposes: a conflict-free full permutation
// saturates every outlink of every stage of a Banyan, so any single
// fault drops the count to zero — degraded fabrics are measured by
// partial traffic (Simulate with WithFaults), not full permutations.
func CountAdmissibleUnderFaults(nw *Network, plan FaultPlan) (admissible, total uint64, err error) {
	r, err := nw.faultyRouter(plan)
	if err != nil {
		return 0, 0, err
	}
	return r.CountAdmissible()
}
