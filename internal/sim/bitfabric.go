package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"minequiv/internal/bitops"
)

// This file is the bit-sliced wave kernel: 64 independent Monte Carlo
// waves packed as bit-planes in uint64 lanes (lane j = wave j) and
// steered through the whole fabric with word-parallel boolean algebra.
// A 2x2 crossbar decision is exactly one routing-tag bit plus one
// conflict bit, so one pass over the H cells of a stage — a handful of
// AND/OR/XOR per cell — advances all 64 waves at once.
//
// The kernel is byte-identical to the scalar WaveRunner by
// construction, not by luck; three contracts make that hold:
//
//  1. Tag planes. BitSliceable fabrics are the relabeled ones, whose
//     wiring is the Baseline with its cells renamed, so a packet's
//     whole route is the slot tag of its destination (Fabric.rtag),
//     whatever its source: bit s is the child slot taken at stage s,
//     the port the scalar port function steers XOR the cell's swap bit.
//     Plane tag[s] carries that bit for every in-flight lane, indexed
//     by current inlink, and the kernel follows each stage's slot-space
//     wire (stageKernel.slotNext).
//  2. Salt tie-breaks. Conflicts are strictly between the two inlinks
//     of one cell, so one salt bit per (stage, cell) — drawn as
//     ceil(H/64) uint64 words per stage from the wave's own rng, the
//     exact stream shape WaveRunner.RunWave consumes — picks the
//     winning inlink parity. The per-wave draws land row-major (one
//     word per wave) and are pivoted to per-cell lane words with
//     bitops.Transpose64.
//  3. Fault folding. The runner owns per-(stage, element) lane masks
//     for dead/stuck0/stuck1 switches and severed links as scratch;
//     SetLaneFaults and AddLaneFaults fold one realized FaultState — the
//     same state the scalar kernel and the router read — into a mask of
//     lanes by walking its sparse index of faulted elements, mapping
//     ports to slots through each switch's swap bit. The
//     per-cell algebra applies them in the scalar steer's exact
//     precedence:
//     dead kills first (FaultDropped), an upstream-derailed arrival
//     drops next (plain drop — its cell cannot reach its destination in
//     a Banyan fabric), stuck forces the port plane (derailing lanes
//     whose tag bit disagrees), a severed chosen outlink kills
//     (FaultDropped), and only then surviving conflicts are arbitrated.
//
// Derailment replaces the scalar's portUnreachable lookup: in a
// unique-path fabric a packet knocked off its path can never reach its
// destination, so a derailed lane is dropped on arrival at the next
// stage (unless a dead switch there upgrades the kill to FaultDropped)
// and a lane derailed at the last stage exits a wrong terminal —
// Misrouted, exactly the scalar classification.

// BitWaveResult reports one batch of up to 64 waves steered by a
// BitWaveRunner. Per-lane counters are indexed by lane (= position in
// the rngs slice handed to RunTraffic); lanes beyond the batch size are
// zero. DropStage is pooled across lanes and owned by the runner —
// overwritten by the next call, copy it if it must outlive the batch.
type BitWaveResult struct {
	Lanes        int
	Offered      [64]int
	Delivered    [64]int
	Dropped      [64]int
	Misrouted    [64]int
	FaultDropped [64]int
	DropStage    []int
}

// BitWaveRunner owns the bit-plane scratch of the bit-sliced wave
// kernel: tag planes (one per stage bit), live/derail planes, their
// double buffers, the salt block, the per-lane fault masks and per-lane
// counters. Like a WaveRunner it is allocation-free in steady state and
// NOT safe for concurrent use; create one per goroutine.
type BitWaveRunner struct {
	f *Fabric

	// Per-lane fault masks, allocated by the first fold; until then
	// every stage reads the all-zero row instead.
	dead, stuck0, stuck1 []uint64 // [Spans*H]: lanes whose switch is dead / stuck toward port 0 / 1
	linkDown             []uint64 // [Spans*N]: lanes with the outlink severed
	zero                 []uint64 // [N]: the intact stage's mask row

	tag, tagN   [][]uint64 // [Spans][N]: plane b, bit j = port at stage b of lane j's packet on this inlink
	live, liveN []uint64   // [N]: lanes with an in-flight packet on this inlink
	der, derN   []uint64   // [N]: subset of live knocked off its path by a stuck switch
	saltBlk     []uint64   // [Spans*ceil(H/64)*64]: tie-break salt, transposed to per-cell lane words
	dsts        []int      // per-wave destination buffer
	dstAll      []int32    // [N*64]: dstAll[src*64+j] = lane j's destination from src (-1 idle)

	dropStage                                 []int
	offered, dropped, misrouted, faultDropped [64]int
}

// NewBitWaveRunner returns a bit-sliced runner for f, or an error when
// the fabric does not qualify (see Fabric.BitSliceable).
func (f *Fabric) NewBitWaveRunner() (*BitWaveRunner, error) {
	if !f.BitSliceable() {
		return nil, fmt.Errorf("sim: fabric is not bit-sliceable (the kernel needs a Baseline-equivalent wiring)")
	}
	r := &BitWaveRunner{
		f:         f,
		zero:      make([]uint64, f.N),
		tag:       make([][]uint64, f.Spans),
		tagN:      make([][]uint64, f.Spans),
		live:      make([]uint64, f.N),
		liveN:     make([]uint64, f.N),
		der:       make([]uint64, f.N),
		derN:      make([]uint64, f.N),
		saltBlk:   make([]uint64, f.Spans*((f.H+63)/64)*64),
		dsts:      make([]int, f.N),
		dstAll:    make([]int32, f.N*64),
		dropStage: make([]int, f.Spans),
	}
	for b := range r.tag {
		r.tag[b] = make([]uint64, f.N)
		r.tagN[b] = make([]uint64, f.N)
	}
	return r, nil
}

// SetLaneFaults folds one realized FaultState into every lane set in
// the mask `lanes`, replacing whatever those lanes held (other lanes are
// untouched): it clears those lanes, then adds fs with AddLaneFaults.
// nil or an inactive state restores the intact fabric on them. A pinned
// plan folds into all lanes with one call on ^uint64(0). The state must
// be sized for the runner's stage count. Allocation-free after the
// first fold, which allocates the masks.
func (r *BitWaveRunner) SetLaneFaults(lanes uint64, fs *FaultState) error {
	if err := fs.fits(r.f.Spans); err != nil {
		return err
	}
	r.allocMasks()
	for i := range r.dead {
		r.dead[i] &^= lanes
		r.stuck0[i] &^= lanes
		r.stuck1[i] &^= lanes
	}
	for i := range r.linkDown {
		r.linkDown[i] &^= lanes
	}
	return r.AddLaneFaults(lanes, fs)
}

// AddLaneFaults is the one fold loop: it ORs the lanes set in `lanes`
// into the mask word of every element fs's sparse index lists, and
// clears nothing, so it costs O(faults). The state's switch and link
// indices are the masks' stage-major indices, with ports translated to
// the kernel's slots: on a switch whose swap bit is set, stuck0 and
// stuck1 exchange and a severed outlink's index flips bit 0. The
// engine refolds a batch with random rates this way: one
// SetLaneFaults(^uint64(0), nil) clears every lane, then each trial's
// realization is added to its own lane 1<<j. Allocation-free after the
// first fold.
//
//minlint:hotpath
func (r *BitWaveRunner) AddLaneFaults(lanes uint64, fs *FaultState) error {
	if err := fs.fits(r.f.Spans); err != nil {
		return err
	}
	if fs == nil {
		return nil
	}
	r.allocMasks()
	f := r.f
	for _, i := range fs.switches {
		st0, st1 := r.stuck0, r.stuck1
		if f.swapped(int(i)) == 1 {
			st0, st1 = st1, st0
		}
		switch fs.mode[i] {
		case switchDead:
			r.dead[i] |= lanes
		case switchStuck0:
			st0[i] |= lanes
		case switchStuck1:
			st1[i] |= lanes
		}
	}
	for _, i := range fs.links {
		r.linkDown[int(i)^int(f.swapped(int(i)>>1))] |= lanes
	}
	return nil
}

// allocMasks allocates the per-lane fault masks on the first fold.
func (r *BitWaveRunner) allocMasks() {
	if r.dead == nil {
		f := r.f
		r.dead = make([]uint64, f.Spans*f.H)
		r.stuck0 = make([]uint64, f.Spans*f.H)
		r.stuck1 = make([]uint64, f.Spans*f.H)
		r.linkDown = make([]uint64, f.Spans*f.N)
	}
}

// RunTraffic steers one batch of len(rngs) waves (1 to 64) through the
// fabric: lane j's wave draws its destinations and tie-break salt from
// rngs[j] in exactly the order WaveRunner.RunTraffic consumes one rng,
// so lane j reproduces the scalar wave of the same stream bit for bit.
// Allocation-free in steady state.
func (r *BitWaveRunner) RunTraffic(pattern Traffic, rngs []*rand.Rand) (BitWaveResult, error) {
	f := r.f
	lanes := len(rngs)
	if lanes < 1 || lanes > 64 {
		return BitWaveResult{}, fmt.Errorf("sim: %d lanes out of [1,64]", lanes)
	}
	n, N := f.Spans, f.N
	saltWords := (f.H + 63) / 64
	r.clearPlanes()
	// Phase one, lane-major: draw each wave's destinations and salts in
	// the scalar stream order, parking the destinations column-wise in
	// dstAll.
	for j, rng := range rngs {
		pattern(r.dsts, rng)
		off := 0
		for src, dst := range r.dsts {
			if dst >= N {
				return BitWaveResult{}, fmt.Errorf("sim: destination %d out of range", dst)
			}
			if dst >= 0 {
				off++
			} else {
				dst = -1
			}
			r.dstAll[src*64+j] = int32(dst)
		}
		r.offered[j] = off
		// The stage salts, drawn in the scalar order: per stage, word
		// ascending. Row j of each 64-word block is this wave's word.
		for w := 0; w < n*saltWords; w++ {
			r.saltBlk[w*64+j] = rng.Uint64()
		}
	}
	// Phase two, source-major: build the live and tag planes one source
	// at a time, so the per-plane bits accumulate in registers instead
	// of heap RMWs. Every source reads the one rtag row. Lanes beyond
	// the batch are masked out of live; their stale tag and salt bits
	// are harmless, as every kernel read is masked by live.
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = 1<<uint(lanes) - 1
	}
	// Four sources share one 64x64 transpose: lane j's four 16-bit tags
	// pack into one word, and after the pivot word 16q+b is exactly
	// plane b's lane word for source src+q. This replaces a per-lane
	// per-bit scatter (64*Spans dependent ops per source) with ~1/3 the
	// work in straight-line word ops. N is a multiple of 4, since
	// NewFabric compiles at least two stages.
	var blk [64]uint64
	rtag := f.rtag
	for src := 0; src < N; src += 4 {
		col := r.dstAll[src*64 : (src+4)*64]
		var lv0, lv1, lv2, lv3 uint64
		for j := 0; j < 64; j++ {
			d0, d1, d2, d3 := col[j], col[64+j], col[128+j], col[192+j]
			v0 := uint64(uint32(^d0) >> 31) // 1 when the lane targets d0
			v1 := uint64(uint32(^d1) >> 31)
			v2 := uint64(uint32(^d2) >> 31)
			v3 := uint64(uint32(^d3) >> 31)
			t0 := uint64(rtag[d0&^(d0>>31)]) & -v0 // idle reads slot 0, masked off
			t1 := uint64(rtag[d1&^(d1>>31)]) & -v1
			t2 := uint64(rtag[d2&^(d2>>31)]) & -v2
			t3 := uint64(rtag[d3&^(d3>>31)]) & -v3
			lv0 |= v0 << uint(j)
			lv1 |= v1 << uint(j)
			lv2 |= v2 << uint(j)
			lv3 |= v3 << uint(j)
			blk[j] = t0 | t1<<16 | t2<<32 | t3<<48
		}
		bitops.Transpose64(&blk)
		r.live[src] = lv0 & laneMask
		r.live[src+1] = lv1 & laneMask
		r.live[src+2] = lv2 & laneMask
		r.live[src+3] = lv3 & laneMask
		for b := 0; b < n; b++ {
			r.tag[b][src] = blk[b]
			r.tag[b][src+1] = blk[16+b]
			r.tag[b][src+2] = blk[32+b]
			r.tag[b][src+3] = blk[48+b]
		}
	}
	// Pivot each salt block from per-wave rows to per-cell lane words:
	// after the transpose, word c of stage s's row is the lane word
	// whose bit j is wave j's tie-break for cell c.
	for w := 0; w < n*saltWords; w++ {
		bitops.Transpose64((*[64]uint64)(r.saltBlk[w*64 : w*64+64]))
	}
	r.steerPlanes()
	res := BitWaveResult{
		Lanes:        lanes,
		Offered:      r.offered,
		Dropped:      r.dropped,
		Misrouted:    r.misrouted,
		FaultDropped: r.faultDropped,
		DropStage:    r.dropStage,
	}
	for j := 0; j < lanes; j++ {
		res.Delivered[j] = r.offered[j] - r.dropped[j] - r.misrouted[j]
	}
	return res, nil
}

// clearPlanes resets the stage-0-visible state and counters for a new
// batch. The live and tag planes are NOT cleared: both packers assign
// every word of every plane, and every other kernel read is masked by a
// live bit, so stale contents are unreachable.
func (r *BitWaveRunner) clearPlanes() {
	clear(r.der)
	clear(r.dropStage)
	r.offered = [64]int{}
	r.dropped = [64]int{}
	r.misrouted = [64]int{}
	r.faultDropped = [64]int{}
}

// steerPlanes is the kernel: one pass per stage over the H cells,
// advancing all lanes with word-parallel boolean algebra in the scalar
// steer's exact fault precedence.
//
//minlint:hotpath
func (r *BitWaveRunner) steerPlanes() {
	f := r.f
	n, N, H := f.Spans, f.N, f.H
	saltWords := (H + 63) / 64
	for s := 0; s < n; s++ {
		last := s == n-1
		deadRow, st0Row, st1Row, ldRow := r.zero, r.zero, r.zero, r.zero
		if r.dead != nil {
			deadRow, st0Row, st1Row = r.dead[s*H:], r.stuck0[s*H:], r.stuck1[s*H:]
			ldRow = r.linkDown[s*N:]
		}
		// Fixed lengths let the compiler drop the per-cell bounds checks.
		deadRow, st0Row, st1Row, ldRow = deadRow[:H], st0Row[:H], st1Row[:H], ldRow[:N]
		saltRow := r.saltBlk[s*saltWords*64 : (s+1)*saltWords*64]
		tagS := r.tag[s]
		var next []uint64
		if !last {
			next = f.stages[s].slotNext
		}
		for c := 0; c < H; c++ {
			in0, in1 := 2*c, 2*c+1
			la, lb := r.live[in0], r.live[in1]
			if la|lb == 0 {
				if !last {
					r.liveN[next[in0]] = 0
					r.liveN[next[in1]] = 0
				}
				continue
			}
			// Dead switch: every arrival dies here, FaultDropped.
			dead := deadRow[c]
			if m := la & dead; m != 0 {
				r.countFault(s, m)
				la &^= m
			}
			if m := lb & dead; m != 0 {
				r.countFault(s, m)
				lb &^= m
			}
			// Upstream-derailed arrivals: off the unique path, this cell
			// cannot reach their destination — plain drop (the scalar's
			// portUnreachable classification).
			if m := la & r.der[in0]; m != 0 {
				r.countPlain(s, m)
				la &^= m
			}
			if m := lb & r.der[in1]; m != 0 {
				r.countPlain(s, m)
				lb &^= m
			}
			// Port planes; a stuck switch forces them, derailing the
			// lanes whose tag bit disagrees (tracked, dropped later).
			pA, pB := tagS[in0], tagS[in1]
			s0, s1 := st0Row[c], st1Row[c]
			fA := (pA &^ s0) | s1
			fB := (pB &^ s0) | s1
			ndA, ndB := la&(fA^pA), lb&(fB^pB)
			pA, pB = fA, fB
			// Severed chosen outlink: FaultDropped.
			ld0, ld1 := ldRow[in0], ldRow[in1]
			if m := la & ((ld0 &^ pA) | (ld1 & pA)); m != 0 {
				r.countFault(s, m)
				la &^= m
			}
			if m := lb & ((ld0 &^ pB) | (ld1 & pB)); m != 0 {
				r.countFault(s, m)
				lb &^= m
			}
			// Conflict: both inlinks live and wanting the same port. The
			// cell's salt bit picks the winning inlink parity — set means
			// inlink 1 wins (the scalar contract).
			if cf := la & lb &^ (pA ^ pB); cf != 0 {
				sw := saltRow[c]
				dcA, dcB := cf&sw, cf&^sw
				if dcA != 0 {
					r.countPlain(s, dcA)
					la &^= dcA
				}
				if dcB != 0 {
					r.countPlain(s, dcB)
					lb &^= dcB
				}
			}
			// Movement: split each inlink by chosen port, merge per
			// outlink, carry the derail marks of this stage's stuck
			// flips.
			m0A, m1A := la&^pA, la&pA
			m0B, m1B := lb&^pB, lb&pB
			d0 := (ndA & m0A) | (ndB & m0B)
			d1 := (ndA & m1A) | (ndB & m1B)
			if last {
				// Outlinks are terminals. A derailed exit is a wrong
				// terminal (unique-path argument) — Misrouted; everything
				// else exits at its destination.
				r.countMisrouted(d0)
				r.countMisrouted(d1)
				continue
			}
			na, nb := next[in0], next[in1]
			r.liveN[na], r.liveN[nb] = m0A|m0B, m1A|m1B
			r.derN[na], r.derN[nb] = d0, d1
			for b := s + 1; b < n; b++ {
				tb, tnb := r.tag[b], r.tagN[b]
				tnb[na] = (tb[in0] & m0A) | (tb[in1] & m0B)
				tnb[nb] = (tb[in0] & m1A) | (tb[in1] & m1B)
			}
		}
		if !last {
			r.live, r.liveN = r.liveN, r.live
			r.der, r.derN = r.derN, r.der
			r.tag, r.tagN = r.tagN, r.tag
		}
	}
}

// countFault books a fault-kill mask at stage s: pooled DropStage plus
// per-lane Dropped and FaultDropped.
func (r *BitWaveRunner) countFault(s int, m uint64) {
	r.dropStage[s] += bits.OnesCount64(m)
	for ; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		r.dropped[j]++
		r.faultDropped[j]++
	}
}

// countPlain books a plain drop mask at stage s.
func (r *BitWaveRunner) countPlain(s int, m uint64) {
	r.dropStage[s] += bits.OnesCount64(m)
	for ; m != 0; m &= m - 1 {
		r.dropped[bits.TrailingZeros64(m)]++
	}
}

// countMisrouted books a wrong-terminal exit mask.
func (r *BitWaveRunner) countMisrouted(m uint64) {
	for ; m != 0; m &= m - 1 {
		r.misrouted[bits.TrailingZeros64(m)]++
	}
}

// mix64 is a splitmix64 finalizer for the benchmark sweep's synthetic
// salts (the kernel benchmark must not depend on an rng).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BitSteerSweep drives the bit-sliced kernel across the whole fabric
// once: full load on all 64 lanes (lane-invariant destinations derived
// from salt), deterministic synthetic tie-break salts, one steerPlanes
// pass. It exists for the kernel benchmark, mirroring Fabric.SteerSweep
// (the plane algebra is unexported); the accumulated drop/misroute
// count defeats dead-code elimination. Allocation-free.
func (r *BitWaveRunner) BitSteerSweep(salt int) uint64 {
	f := r.f
	n, N := f.Spans, f.N
	r.clearPlanes()
	all := ^uint64(0)
	for src := 0; src < N; src++ {
		dst := (src + salt) & (N - 1)
		tag := uint64(f.rtag[dst])
		r.live[src] = all
		for b := 0; b < n; b++ {
			r.tag[b][src] = (tag >> uint(b) & 1) * all
		}
	}
	for i := range r.saltBlk {
		r.saltBlk[i] = mix64(uint64(salt)<<32 + uint64(i))
	}
	r.steerPlanes()
	var acc uint64
	for j := 0; j < 64; j++ {
		acc += uint64(r.dropped[j] + r.misrouted[j])
	}
	return acc
}
