package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// FaultKind classifies one hardware failure of the fabric. Its text
// form (MarshalText/UnmarshalText, and so its JSON form) is the kind's
// name — "switch-dead", "switch-stuck0", "switch-stuck1" or
// "link-down" — with the zero value as ""; its value is the one-byte
// tag of the binary wire codec.
type FaultKind uint8

const (
	// SwitchDead kills the whole 2x2 switch: every packet at the cell is
	// discarded and routing treats the cell as absent.
	SwitchDead FaultKind = iota + 1
	// SwitchStuck0 jams the crossbar: every packet leaves on port 0
	// regardless of its destination (and may be misrouted downstream).
	SwitchStuck0
	// SwitchStuck1 jams the crossbar toward port 1.
	SwitchStuck1
	// LinkDown severs one outlink of a stage (link = cell*2+port); the
	// last stage's outlinks are the output terminals, so severing them
	// cuts delivery.
	LinkDown
)

// faultKindNames holds the text form of every kind, indexed by value;
// index 0 is the zero value's "".
var faultKindNames = [...]string{"", "switch-dead", "switch-stuck0", "switch-stuck1", "link-down"}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// MarshalText renders the kind's name; a value outside the zero value
// and the four kinds fails.
func (k FaultKind) MarshalText() ([]byte, error) {
	if int(k) >= len(faultKindNames) {
		return nil, fmt.Errorf("sim: unknown fault kind %d", uint8(k))
	}
	return []byte(faultKindNames[k]), nil
}

// UnmarshalText parses a kind's name; "" is the zero value, which
// Validate rejects, and any other unknown name fails here.
func (k *FaultKind) UnmarshalText(text []byte) error {
	for i, name := range faultKindNames {
		if string(text) == name {
			*k = FaultKind(i)
			return nil
		}
	}
	return fmt.Errorf("sim: unknown fault kind %q", text)
}

// Fault pins one failure to a fabric element. Switch faults address
// (Stage, Cell); LinkDown addresses (Stage, Link) where Link is the
// outlink label cell*2+port.
type Fault struct {
	Kind  FaultKind `json:"kind"`
	Stage int       `json:"stage"`
	Cell  int       `json:"cell,omitempty"`
	Link  int       `json:"link,omitempty"`
}

// FaultPlan describes how a fabric degrades: a fixed list of pinned
// faults plus Bernoulli rates for random per-trial faults. The plan is
// pure data — it can be validated against a stage count and sampled
// into a FaultState any number of times; the engine resamples it per
// trial from a dedicated deterministic rng stream, so a degraded run
// is reproducible from (seed, plan) alone. Routing takes pinned faults
// only: it has no trial index to sample random rates in.
type FaultPlan struct {
	// Faults are pinned, applied in list order before any random draw.
	// Of several switch faults on one cell, switch-dead wins in either
	// order; between two stuck pins the later one wins.
	Faults []Fault `json:"faults,omitempty"`

	// Per-element random fault rates, drawn independently each trial
	// from a dedicated rng stream (traffic draws are never perturbed).
	// A switch is dead with probability SwitchDeadRate, otherwise stuck
	// with probability SwitchStuckRate (stuck port then a fair coin), so
	// P(dead) = SwitchDeadRate and P(stuck) = (1-SwitchDeadRate)·
	// SwitchStuckRate. Every outlink is severed with probability
	// LinkDownRate.
	SwitchDeadRate  float64 `json:"switchDeadRate,omitempty"`
	SwitchStuckRate float64 `json:"switchStuckRate,omitempty"`
	LinkDownRate    float64 `json:"linkDownRate,omitempty"`
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
		if !(r.v >= 0 && r.v <= 1) { // NaN fails both
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

	// Gap tables of the last plan's random rates, rebuilt only when a
	// rate changes: switch hits on the combined rate, link hits on
	// LinkDownRate.
	switchGaps, linkGaps gapTable
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
// leaves switchOK. A dead switch stays dead; a later stuck pin of a
// stuck switch replaces its port.
func (fs *FaultState) setSwitch(i int, m uint8) {
	switch fs.mode[i] {
	case switchOK:
		fs.switches = append(fs.switches, int32(i))
	case switchDead:
		return
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

// FaultStreamVersion names the draw stream Resample turns a random
// plan into. The realized state of a trial is a pure function of (plan,
// per-trial fault stream, this version); a result or checkpoint drawn
// under another version is a different sample of the same model, and
// must not be merged with one drawn under this version. Version 1 drew
// one Uint64 per element per rate; version 2 is the gap walk below.
const FaultStreamVersion = 2

// bernoulliThreshold turns a probability r in [0, 1] into a threshold
// on a 53-bit draw x: x/2^53 is an exact dyadic, so x/2^53 < r holds
// iff x < ceil(r·2^53). On x = u<<11>>11 it decides exactly as
// rng.Float64() < r on the same Uint64 u.
func bernoulliThreshold(r float64) uint64 { return uint64(math.Ceil(r * (1 << 53))) }

// gapBlock is the number of elements one gap draw covers.
const gapBlock = 64

// gapTable turns one 53-bit uniform draw into the position of the first
// hit among the next gapBlock elements, each hit independently with
// probability rate: cum[j] = ceil((1 − (1−rate)^(j+1))·2^53) is the
// integer form of P(first hit at or before j), so a draw u < cum[j]
// that is not below cum[j−1] puts the first hit at j. The zero value is
// the table of rate 0, which never hits.
type gapTable struct {
	rate float64
	cum  [gapBlock]uint64
}

// set rebuilds the table for rate r in [0, 1] unless it already holds
// it. The powers of 1−r are built by repeated multiplication, each
// product rounded explicitly with float64(...) so no platform fuses it
// into an FMA; with IEEE basic operations and the exact math.Ceil the
// table is the same integers on every platform, which a checkpointed
// sweep resumed on another machine relies on. math.Log, Exp and Pow
// are avoided for that reason: their last bit may differ by platform.
func (g *gapTable) set(r float64) {
	if g.rate == r {
		return
	}
	g.rate = r
	keep, p := 1-r, 1.0
	for j := range g.cum {
		p = float64(p * keep)
		g.cum[j] = uint64(math.Ceil(float64((1 - p) * (1 << 53))))
	}
}

// next returns the index of the first hit in [i, end), or end if there
// is none. Each draw covers a block of up to gapBlock elements: a draw
// at or above the block's last entry means no hit in the block, so the
// walk skips it whole; otherwise a binary search finds the hit. Since
// the geometric gap is memoryless, the caller restarts the walk just
// past each hit. Cost: one Uint64 per hit plus one per empty block.
func (g *gapTable) next(rng *rand.Rand, i, end int) int {
	for i < end {
		b := min(gapBlock, end-i)
		u := rng.Uint64() >> 11
		if u >= g.cum[b-1] {
			i += b
			continue
		}
		// Binary search for the first entry above u; u < cum[b-1], so it
		// lies in the block. Both sides are below 2^54, so cum[k]-u-1
		// wraps to a set top bit iff cum[k] <= u, which steps j without
		// a branch: the hit position is random, so a branch would
		// mispredict about half the time.
		j := uint64(0)
		for s := uint64(gapBlock / 2); s > 0; s >>= 1 {
			j += s & -((g.cum[(j+s-1)%gapBlock] - u - 1) >> 63)
		}
		return i + int(j)
	}
	return end
}

// Sample realizes the plan: clears the state, pins the plan's fixed
// faults, then draws the random ones from rng. The draws are fixed by
// the plan — a gap walk over the switches stage-major on the combined
// switch rate with one kind draw per hit, then a gap walk over the
// links stage-major (see Resample) — so the realized state is a pure
// function of (plan, rng stream), the determinism the engine's
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
// coordinates.
//
// Random faults are skip-sampled (stream version FaultStreamVersion):
// switches are hit at the combined rate q = d + (1−d)·s, and each hit
// draws its kind — dead with probability d/q, otherwise stuck on a
// fair-coin port — which keeps P(dead) = d and P(stuck) = (1−d)·s.
// Links are hit at LinkDownRate. A pinned fault owns its cell: a random
// hit on it still draws its kind but sets nothing. Each rate costs one
// draw per hit plus one per 64-element block with no hit, and the state
// is written only on a hit, so a trial costs O(faults), not O(fabric).
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
	if d, s := p.SwitchDeadRate, p.SwitchStuckRate; d > 0 || s > 0 {
		q := d + float64((1-d)*s)
		fs.switchGaps.set(q)
		deadT := bernoulliThreshold(d / q)
		end := len(fs.mode)
		for i := fs.switchGaps.next(rng, 0, end); i < end; i = fs.switchGaps.next(rng, i+1, end) {
			m := switchDead
			if s > 0 {
				if k := rng.Uint64(); k>>11 >= deadT {
					m = switchStuck0 + uint8(k&1)
				}
			}
			if fs.mode[i] == switchOK {
				fs.setSwitch(i, m)
			}
		}
	}
	if r := p.LinkDownRate; r > 0 {
		fs.linkGaps.set(r)
		end := len(fs.linkDown)
		for i := fs.linkGaps.next(rng, 0, end); i < end; i = fs.linkGaps.next(rng, i+1, end) {
			fs.setLink(i)
		}
	}
}
