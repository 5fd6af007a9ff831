package min

import (
	"fmt"

	"minequiv/internal/route"
	"minequiv/internal/sim"
)

// FaultKind names one class of fabric failure.
type FaultKind string

const (
	// SwitchDead kills a whole 2x2 switch: every packet at the cell is
	// discarded and routing treats the cell as absent.
	SwitchDead FaultKind = "switch-dead"
	// SwitchStuck0 jams a switch's crossbar so every packet leaves on
	// port 0, wherever it was headed.
	SwitchStuck0 FaultKind = "switch-stuck0"
	// SwitchStuck1 jams the crossbar toward port 1.
	SwitchStuck1 FaultKind = "switch-stuck1"
	// LinkDown severs one outlink of a stage (link = cell*2+port). The
	// last stage's outlinks are the output terminals.
	LinkDown FaultKind = "link-down"
)

// Fault pins one failure to a fabric element. Switch faults address
// (Stage, Cell); LinkDown addresses (Stage, Link).
type Fault struct {
	Kind  FaultKind `json:"kind"`
	Stage int       `json:"stage"`
	Cell  int       `json:"cell,omitempty"`
	Link  int       `json:"link,omitempty"`
}

// FaultPlan describes how a fabric degrades: a fixed list of pinned
// faults plus Bernoulli rates for random faults redrawn each trial.
// Pass it to Simulate/SimulateBuffered with WithFaults — degraded runs
// are reproducible from (seed, plan) alone — or to RouteUnderFaults and
// CountAdmissibleUnderFaults (pinned faults only; routing has no trial
// index to sample random rates from).
type FaultPlan struct {
	Faults []Fault `json:"faults,omitempty"`

	// Per-element random fault rates, drawn independently per trial
	// from a dedicated rng stream (traffic draws are never perturbed).
	SwitchDeadRate  float64 `json:"switchDeadRate,omitempty"`
	SwitchStuckRate float64 `json:"switchStuckRate,omitempty"`
	LinkDownRate    float64 `json:"linkDownRate,omitempty"`
}

// Empty reports whether the plan describes an intact fabric.
func (p FaultPlan) Empty() bool {
	return len(p.Faults) == 0 && p.SwitchDeadRate == 0 && p.SwitchStuckRate == 0 && p.LinkDownRate == 0
}

// internal converts the public plan to the simulation layer's form.
func (p FaultPlan) internal() (sim.FaultPlan, error) {
	out := sim.FaultPlan{
		SwitchDeadRate:  p.SwitchDeadRate,
		SwitchStuckRate: p.SwitchStuckRate,
		LinkDownRate:    p.LinkDownRate,
	}
	if len(p.Faults) > 0 {
		out.Faults = make([]sim.Fault, len(p.Faults))
		for i, f := range p.Faults {
			var kind sim.FaultKind
			switch f.Kind {
			case SwitchDead:
				kind = sim.SwitchDead
			case SwitchStuck0:
				kind = sim.SwitchStuck0
			case SwitchStuck1:
				kind = sim.SwitchStuck1
			case LinkDown:
				kind = sim.LinkDown
			default:
				return sim.FaultPlan{}, fmt.Errorf("min: fault %d: unknown kind %q", i, f.Kind)
			}
			out.Faults[i] = sim.Fault{Kind: kind, Stage: f.Stage, Cell: f.Cell, Link: f.Link}
		}
	}
	return out, nil
}

// faultyRouter builds the fault-aware reachability router for the
// plan's pinned faults, realized into a fault state sized by the
// network's stage count alone, so routing never compiles the simulation
// fabric. The state is realized even for an empty plan: a faulted route
// reports "no fault-free path", never the intact "no path".
func (nw *Network) faultyRouter(plan FaultPlan) (*route.FaultyRouter, error) {
	if plan.SwitchDeadRate != 0 || plan.SwitchStuckRate != 0 || plan.LinkDownRate != 0 {
		return nil, fmt.Errorf("min: routing under faults takes pinned faults only; random rates need a simulation trial to sample in (use WithFaults)")
	}
	p, err := plan.internal()
	if err != nil {
		return nil, err
	}
	fs := sim.NewFaultState(nw.Stages())
	if err := fs.Sample(p, nil); err != nil {
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
	p, err := r.Route(uint64(src), uint64(dst))
	if err != nil {
		return Path{}, err
	}
	return fromInternalPath(p), nil
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
