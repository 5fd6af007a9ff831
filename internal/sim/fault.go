package sim

import (
	"fmt"
	"math"
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
//
// The dense tables answer "is this element faulted?" in O(1) for the
// per-packet readers; the sparse index lists every element set since
// the last Reset, once each, so clearing, counting and folding a
// realization cost O(faults) rather than O(fabric). The index is sized
// for every element by the first random resample, so per-trial
// resampling allocates nothing after it and stays on the 0 allocs/op
// hot path. A FaultState is NOT safe for concurrent use.
type FaultState struct {
	stages   int
	h, n     int     // cells and outlinks per stage
	mode     []uint8 // per stage*h + cell: switchOK/Dead/Stuck0/Stuck1
	linkDown []bool  // per stage*n + outlink
	switches []int32 // indices into mode that are not switchOK
	links    []int32 // indices into linkDown that are set
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
	if !fs.Active() {
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

// Active reports whether any fault is currently applied; a nil state
// is the intact fabric.
func (fs *FaultState) Active() bool { return fs != nil && len(fs.switches)+len(fs.links) > 0 }

// Reset clears every fault, restoring the intact fabric. It touches
// only the elements the index lists.
func (fs *FaultState) Reset() {
	for _, i := range fs.switches {
		fs.mode[i] = switchOK
	}
	for _, i := range fs.links {
		fs.linkDown[i] = false
	}
	fs.switches, fs.links = fs.switches[:0], fs.links[:0]
}

// setSwitch puts switch i in mode m, indexing it the first time it
// leaves switchOK; a later pin of the same switch overwrites the mode.
func (fs *FaultState) setSwitch(i int, m uint8) {
	if fs.mode[i] == switchOK {
		fs.switches = append(fs.switches, int32(i))
	}
	fs.mode[i] = m
}

// setLink severs outlink i, indexing it the first time.
func (fs *FaultState) setLink(i int) {
	if !fs.linkDown[i] {
		fs.links = append(fs.links, int32(i))
		fs.linkDown[i] = true
	}
}

// reserve sizes the empty index for every element, once: a plan with
// random rates may hit any element, so its trials then never grow the
// lists. Pinned-only plans grow them by append to the pin count.
func (fs *FaultState) reserve() {
	if cap(fs.switches) < len(fs.mode) {
		fs.switches = make([]int32, 0, len(fs.mode))
	}
	if cap(fs.links) < len(fs.linkDown) {
		fs.links = make([]int32, 0, len(fs.linkDown))
	}
}

// apply pins one validated fault.
func (fs *FaultState) apply(flt Fault) {
	switch flt.Kind {
	case SwitchDead:
		fs.setSwitch(flt.Stage*fs.h+flt.Cell, switchDead)
	case SwitchStuck0:
		fs.setSwitch(flt.Stage*fs.h+flt.Cell, switchStuck0)
	case SwitchStuck1:
		fs.setSwitch(flt.Stage*fs.h+flt.Cell, switchStuck1)
	case LinkDown:
		fs.setLink(flt.Stage*fs.n + flt.Link)
	}
}

// bernoulliThreshold turns a rate r in (0, 1] into the integer form of
// rng.Float64() < r on the same draw u: Float64 is (u<<11>>11) / 2^53,
// an exact dyadic, so the test holds iff u<<11>>11 < ceil(r·2^53).
func bernoulliThreshold(r float64) uint64 { return uint64(math.Ceil(r * (1 << 53))) }

// Sample realizes the plan: clears the state, pins the plan's fixed
// faults, then draws the random ones from rng. The draw order is fixed
// (switches stage-major then links stage-major, one uniform draw per
// element per applicable rate), so the realized state is a pure
// function of (plan, rng stream) — the determinism the engine's
// per-trial fault streams rely on. Allocation-free after the first
// random resample. rng may be nil for a plan with no random rates.
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
// coordinates. Its cost is the draws plus O(faults): it writes only on
// a hit.
//
//minlint:hotpath
func (fs *FaultState) Resample(p FaultPlan, rng *rand.Rand) {
	fs.Reset()
	if p.Random() {
		fs.reserve()
	}
	for _, flt := range p.Faults {
		fs.apply(flt)
	}
	if p.SwitchDeadRate > 0 || p.SwitchStuckRate > 0 {
		deadT, stuckT := bernoulliThreshold(p.SwitchDeadRate), bernoulliThreshold(p.SwitchStuckRate)
		for i := range fs.mode {
			// Draw first, assign after: a pinned fault owns its cell, but
			// the draws still advance the stream identically whether or
			// not the cell was pinned, keeping the realized state a pure
			// function of (plan, stream).
			m := switchOK
			if p.SwitchDeadRate > 0 && rng.Uint64()<<11>>11 < deadT {
				m = switchDead
			} else if p.SwitchStuckRate > 0 && rng.Uint64()<<11>>11 < stuckT {
				m = switchStuck0 + uint8(rng.IntN(2))
			}
			if m != switchOK && fs.mode[i] == switchOK {
				fs.setSwitch(i, m)
			}
		}
	}
	if p.LinkDownRate > 0 {
		linkT := bernoulliThreshold(p.LinkDownRate)
		for i := range fs.linkDown {
			if rng.Uint64()<<11>>11 < linkT {
				fs.setLink(i)
			}
		}
	}
}
