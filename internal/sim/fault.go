package sim

import (
	"fmt"
	"math/rand/v2"
)

// FaultKind classifies one hardware failure of the fabric.
type FaultKind uint8

const (
	// SwitchDead kills the whole 2x2 switch: every packet at the cell is
	// discarded.
	SwitchDead FaultKind = iota + 1
	// SwitchStuck0 jams the crossbar: every packet leaves on port 0
	// regardless of its destination (and may be misrouted downstream).
	SwitchStuck0
	// SwitchStuck1 jams the crossbar toward port 1.
	SwitchStuck1
	// LinkDown severs one outlink of a stage; the last stage's outlinks
	// are the output terminals, so severing them cuts delivery.
	LinkDown
)

func (k FaultKind) String() string {
	switch k {
	case SwitchDead:
		return "switch-dead"
	case SwitchStuck0:
		return "switch-stuck0"
	case SwitchStuck1:
		return "switch-stuck1"
	case LinkDown:
		return "link-down"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault pins one failure to a fabric element. Switch faults address
// (Stage, Cell); LinkDown addresses (Stage, Link) where Link is the
// outlink label cell*2+port.
type Fault struct {
	Kind  FaultKind
	Stage int
	Cell  int
	Link  int
}

// FaultPlan describes how a fabric degrades: a fixed list of pinned
// faults plus Bernoulli rates for random per-trial faults. The plan is
// pure data — it can be validated against a stage count and sampled
// into a FaultState any number of times; the engine resamples it per
// trial from a dedicated deterministic rng stream, so a degraded run
// is reproducible from (seed, plan) alone.
type FaultPlan struct {
	Faults []Fault // pinned faults, applied before any random draw

	// Per-element random fault rates, drawn independently each trial.
	// A switch first draws dead with SwitchDeadRate; a surviving switch
	// draws stuck with SwitchStuckRate (stuck port then a fair coin).
	// Every outlink draws severed with LinkDownRate.
	SwitchDeadRate  float64
	SwitchStuckRate float64
	LinkDownRate    float64
}

// Empty reports whether the plan describes an intact fabric.
func (p FaultPlan) Empty() bool {
	return len(p.Faults) == 0 && p.SwitchDeadRate == 0 && p.SwitchStuckRate == 0 && p.LinkDownRate == 0
}

// Random reports whether the plan draws random faults per trial (in
// addition to the pinned list).
func (p FaultPlan) Random() bool {
	return p.SwitchDeadRate > 0 || p.SwitchStuckRate > 0 || p.LinkDownRate > 0
}

// Validate checks the plan against the shape of a fabric with the
// given stage count: 2^(stages-1) cells and 2^stages outlinks per
// stage. It needs no compiled fabric.
func (p FaultPlan) Validate(stages int) error {
	h, n := 1<<uint(stages-1), 1<<uint(stages)
	rates := []struct {
		name string
		v    float64
	}{
		{"SwitchDeadRate", p.SwitchDeadRate},
		{"SwitchStuckRate", p.SwitchStuckRate},
		{"LinkDownRate", p.LinkDownRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("sim: fault rate %s=%v out of [0,1]", r.name, r.v)
		}
	}
	for i, flt := range p.Faults {
		if flt.Stage < 0 || flt.Stage >= stages {
			return fmt.Errorf("sim: fault %d: stage %d out of [0,%d)", i, flt.Stage, stages)
		}
		switch flt.Kind {
		case SwitchDead, SwitchStuck0, SwitchStuck1:
			if flt.Cell < 0 || flt.Cell >= h {
				return fmt.Errorf("sim: fault %d: cell %d out of [0,%d)", i, flt.Cell, h)
			}
		case LinkDown:
			if flt.Link < 0 || flt.Link >= n {
				return fmt.Errorf("sim: fault %d: link %d out of [0,%d)", i, flt.Link, n)
			}
		default:
			return fmt.Errorf("sim: fault %d: unknown kind %d", i, flt.Kind)
		}
	}
	return nil
}

// Switch modes of a FaultState; switchOK must be the zero value so a
// cleared state is an intact fabric.
const (
	switchOK uint8 = iota
	switchDead
	switchStuck0
	switchStuck1
)

// FaultState is one sampled realization of a FaultPlan: the one
// realized form of a plan that routing and both wave kernels read. It
// is sized by stage count alone, so a router can realize a plan
// without compiling a fabric, and is owned by whoever drives a runner
// (the parallel engine gives each worker its own, like runner scratch).
// Sample is allocation-free so per-trial resampling stays on the
// 0 allocs/op hot path. A FaultState is NOT safe for concurrent use.
type FaultState struct {
	stages   int
	h, n     int // cells and outlinks per stage
	active   bool
	mode     []uint8 // per stage*h + cell: switchOK/Dead/Stuck0/Stuck1
	linkDown []bool  // per stage*n + outlink
}

// NewFaultState returns a cleared (intact) fault state for a fabric of
// the given stage count: 2^(stages-1) cells and 2^stages outlinks per
// stage.
func NewFaultState(stages int) *FaultState {
	h, n := 1<<uint(stages-1), 1<<uint(stages)
	return &FaultState{
		stages:   stages,
		h:        h,
		n:        n,
		mode:     make([]uint8, stages*h),
		linkDown: make([]bool, stages*n),
	}
}

// Stages returns the stage count the state is sized for.
func (fs *FaultState) Stages() int { return fs.stages }

// Allows reports whether the switch at stage can set its crossbar
// toward outlink out — it is neither dead nor jammed to the other
// port — and that outlink survives. A nil state is the intact fabric.
// This is the one fault predicate routing reads.
func (fs *FaultState) Allows(stage, out int) bool {
	if fs == nil || !fs.active {
		return true
	}
	if fs.linkDown[stage*fs.n+out] {
		return false
	}
	// A jammed crossbar allows only its port: switchStuck0+port.
	m := fs.mode[stage*fs.h+out>>1]
	return m == switchOK || m == switchStuck0+uint8(out&1)
}

// fits checks that a non-nil state is sized for a fabric of the given
// stage count.
func (fs *FaultState) fits(stages int) error {
	if fs != nil && fs.stages != stages {
		return fmt.Errorf("sim: fault state sized for %d stages, fabric has %d", fs.stages, stages)
	}
	return nil
}

// Active reports whether any fault is currently applied.
func (fs *FaultState) Active() bool { return fs.active }

// Reset clears every fault, restoring the intact fabric.
func (fs *FaultState) Reset() {
	if !fs.active {
		return
	}
	for i := range fs.mode {
		fs.mode[i] = switchOK
	}
	for i := range fs.linkDown {
		fs.linkDown[i] = false
	}
	fs.active = false
}

// apply pins one validated fault.
func (fs *FaultState) apply(flt Fault) {
	switch flt.Kind {
	case SwitchDead:
		fs.mode[flt.Stage*fs.h+flt.Cell] = switchDead
	case SwitchStuck0:
		fs.mode[flt.Stage*fs.h+flt.Cell] = switchStuck0
	case SwitchStuck1:
		fs.mode[flt.Stage*fs.h+flt.Cell] = switchStuck1
	case LinkDown:
		fs.linkDown[flt.Stage*fs.n+flt.Link] = true
	}
	fs.active = true
}

// Sample realizes the plan: clears the state, pins the plan's fixed
// faults, then draws the random ones from rng. The draw order is fixed
// (switches stage-major then links stage-major, one uniform draw per
// element per applicable rate), so the realized state is a pure
// function of (plan, rng stream) — the determinism the engine's
// per-trial fault streams rely on. Allocation-free. rng may be nil for
// a plan with no random rates.
func (fs *FaultState) Sample(p FaultPlan, rng *rand.Rand) error {
	if err := p.Validate(fs.stages); err != nil {
		return err
	}
	fs.Resample(p, rng)
	return nil
}

// Resample is Sample minus the validation: for hot loops that realize
// one already-validated plan trial after trial (the engine validates
// once before sharding). Calling it with a plan that was never
// validated against this state's stage count may panic on out-of-range
// coordinates.
//
//minlint:hotpath
func (fs *FaultState) Resample(p FaultPlan, rng *rand.Rand) {
	fs.Reset()
	for _, flt := range p.Faults {
		fs.apply(flt)
	}
	if p.SwitchDeadRate > 0 || p.SwitchStuckRate > 0 {
		for i := range fs.mode {
			// Draw first, assign after: a pinned fault owns its cell, but
			// the draws still advance the stream identically whether or
			// not the cell was pinned, keeping the realized state a pure
			// function of (plan, stream).
			dead := p.SwitchDeadRate > 0 && rng.Float64() < p.SwitchDeadRate
			stuck := uint8(0)
			if !dead && p.SwitchStuckRate > 0 && rng.Float64() < p.SwitchStuckRate {
				stuck = switchStuck0 + uint8(rng.IntN(2))
			}
			if fs.mode[i] != switchOK {
				continue
			}
			switch {
			case dead:
				fs.mode[i] = switchDead
				fs.active = true
			case stuck != 0:
				fs.mode[i] = stuck
				fs.active = true
			}
		}
	}
	if p.LinkDownRate > 0 {
		for i := range fs.linkDown {
			if rng.Float64() < p.LinkDownRate {
				fs.linkDown[i] = true
				fs.active = true
			}
		}
	}
}

// CountFaults reports the currently-applied fault census: dead and
// stuck switches and severed links.
func (fs *FaultState) CountFaults() (dead, stuck, links int) {
	for _, m := range fs.mode {
		switch m {
		case switchDead:
			dead++
		case switchStuck0, switchStuck1:
			stuck++
		}
	}
	for _, d := range fs.linkDown {
		if d {
			links++
		}
	}
	return
}
