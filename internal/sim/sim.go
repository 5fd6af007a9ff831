// Package sim is the system-evaluation substrate of this reproduction.
// The paper proves six multistage interconnection networks topologically
// equivalent but, being a theory paper, never runs them; sim supplies
// the missing systems-level meaning: a synchronous packet simulator for
// any permutation-defined MIN, with drop-on-conflict (unbuffered) and
// FIFO-queued (buffered) switch models, the classic traffic patterns,
// and a first-class fault model (dead/stuck switches, severed links).
// Isomorphic networks produce statistically identical results under
// uniform traffic — the downstream consequence of the paper's theorem.
//
// Both models drive the same compiled fabric kernel (see fabric.go):
// every crossbar decision of every model goes through Fabric.steer and
// every inter-stage move through Fabric.forward, so the switching logic
// — fault handling included — exists exactly once.
//
// Both models are allocation-free in steady state. A WaveRunner owns
// all per-wave scratch state (packet list, claim table, tie-break salt
// words, per-stage drop counters); a BufferedRunner owns the
// multi-lane ring FIFOs, arbitration pointers, latency histogram and
// occupancy accumulators of the queued model. The parallel trial
// engine in internal/engine gives each worker its own runner (and its
// own FaultState when a FaultPlan is in force). Fabric.RunBuffered
// remains as a convenience wrapper for one-off use.
//
// A FaultState is the one realized form of a FaultPlan. It is sized by
// stage count alone, so internal/route reads the same state through
// FaultState.Allows without compiling a fabric, and the bit-sliced
// kernel folds it into its own per-lane masks with
// BitWaveRunner.SetLaneFaults.
package sim

import (
	"fmt"
	"math/rand/v2"
)

// WaveResult reports one synchronous unbuffered wave.
type WaveResult struct {
	Offered      int
	Delivered    int
	Dropped      int
	DropStage    []int // drops per stage
	Misrouted    int   // packets that reached a wrong terminal (non-Banyan fabrics)
	FaultDropped int   // subset of Dropped killed directly by a fault (dead switch, severed link)
}

// flying is a packet in transit during one wave.
type flying struct {
	src, dst int
	link     uint64
}

// WaveRunner owns the scratch state of the wave model so that repeated
// waves through one fabric are allocation-free in steady state. A runner
// is NOT safe for concurrent use; create one per goroutine (the parallel
// engine gives each worker its own).
type WaveRunner struct {
	f         *Fabric
	faults    *FaultState
	pkts      []flying
	claimed   []int32  // outlink -> packet index claiming it
	salt      []uint64 // per-stage conflict tie-break words, bit c = cell c
	dropStage []int
	dsts      []int // destination buffer for RunTraffic
}

// NewWaveRunner returns a runner with all buffers sized for f.
func (f *Fabric) NewWaveRunner() *WaveRunner {
	return &WaveRunner{
		f:         f,
		pkts:      make([]flying, 0, f.N),
		claimed:   make([]int32, f.N),
		salt:      make([]uint64, (f.H+63)/64),
		dropStage: make([]int, f.Spans),
		dsts:      make([]int, f.N),
	}
}

// SetFaults attaches a fault state the runner consults on every switch
// decision; nil restores the intact fabric. The state must be sized for
// the runner's stage count. The caller keeps ownership and may resample
// it between waves (the engine resamples per trial).
func (r *WaveRunner) SetFaults(fs *FaultState) error {
	if err := fs.fits(r.f.Spans); err != nil {
		return err
	}
	r.faults = fs
	return nil
}

// RunWave pushes one batch of packets through the network: dsts[i] is
// the destination of the packet injected at input terminal i, or -1 for
// no packet. Two packets wanting the same switch output collide; a
// per-stage salt word drawn from the rng picks the winner fairly and
// the loser is dropped. The salt discipline is a contract shared with
// the bit-sliced kernel (see bitfabric.go): at the start of every stage
// the runner draws ceil(H/64) uint64 words, and bit c of the stage's
// salt decides every conflict at cell c — set means the packet arriving
// on the odd inlink wins, clear the even one. A conflict is always
// between the cell's two inlinks, whose parities differ, so one salt
// bit per cell resolves it without order dependence, and the draw
// happens whether or not a conflict occurs, keeping the stream
// consumption a pure function of the stage count. An attached fault
// state is honored: dead switches and severed links kill packets
// (counted in FaultDropped), stuck switches force the crossbar and the
// misrouted packet is dropped downstream when its destination becomes
// unreachable.
//
// The returned WaveResult's DropStage slice is owned by the runner and
// overwritten by the next call; copy it if it must outlive the wave.
//
//minlint:hotpath
func (r *WaveRunner) RunWave(dsts []int, rng *rand.Rand) (WaveResult, error) {
	f := r.f
	if len(dsts) != f.N {
		return WaveResult{}, fmt.Errorf("sim: %d destinations, want %d", len(dsts), f.N) //minlint:allow hotalloc -- cold validation path
	}
	for i := range r.dropStage {
		r.dropStage[i] = 0
	}
	res := WaveResult{DropStage: r.dropStage}
	pkts := r.pkts[:0]
	for src, dst := range dsts {
		if dst < 0 {
			continue
		}
		if dst >= f.N {
			return WaveResult{}, fmt.Errorf("sim: destination %d out of range", dst) //minlint:allow hotalloc -- cold validation path
		}
		pkts = append(pkts, flying{src: src, dst: dst, link: uint64(src)})
	}
	res.Offered = len(pkts)
	claimed := r.claimed[:f.N]
	salt := r.salt
	for s := 0; s < f.Spans; s++ {
		// The stage's tie-break salt is drawn unconditionally (the
		// bit-sliced kernel shares this exact stream shape).
		for i := range salt {
			salt[i] = rng.Uint64()
		}
		for i := range claimed {
			claimed[i] = -1
		}
		// Claim pass. The winner of a contended output is decided by the
		// cell's salt bit (inlink parity), not by arrival order, so the
		// scan order is immaterial and no shuffle is needed: a later
		// salt-favored packet evicts the earlier claimant.
		for idx := range pkts {
			p := &pkts[idx]
			cell := p.link >> 1
			pt := f.steer(r.faults, s, int(cell), p.dst)
			if pt >= portFaulted {
				// Unreachable in this fabric, or killed by a fault.
				res.DropStage[s]++
				res.Dropped++
				if pt == portFaulted {
					res.FaultDropped++
				}
				p.dst = -1
				continue
			}
			out := cell<<1 | uint64(pt)
			if other := claimed[out]; other >= 0 {
				res.DropStage[s]++
				res.Dropped++
				win := salt[cell>>6] >> (cell & 63) & 1
				if p.link&1 == win {
					pkts[other].dst = -1
					claimed[out] = int32(idx)
					p.link = out
				} else {
					p.dst = -1
				}
				continue
			}
			claimed[out] = int32(idx)
			p.link = out
		}
		keep := pkts[:0]
		for _, p := range pkts {
			if p.dst < 0 {
				continue
			}
			if s < f.Spans-1 {
				p.link = f.forward(s, p.link)
			}
			keep = append(keep, p)
		}
		pkts = keep
	}
	for _, p := range pkts {
		if int(p.link) == p.dst {
			res.Delivered++
		} else {
			res.Misrouted++
		}
	}
	r.pkts = pkts[:0]
	return res, nil
}

// RunTraffic generates one wave of the pattern into the runner's
// destination buffer and runs it. Allocation-free for allocation-free
// patterns (every registry pattern qualifies).
func (r *WaveRunner) RunTraffic(pattern Traffic, rng *rand.Rand) (WaveResult, error) {
	pattern(r.dsts, rng)
	return r.RunWave(r.dsts, rng)
}
