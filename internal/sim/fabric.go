package sim

import (
	"fmt"
	"math/bits"

	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// This file is the fabric kernel: the one compiled, immutable model of a
// MIN's switching hardware that every simulation model drives. A stage
// is a bank of 2x2 crossbar switches plus the link permutation carrying
// its outlinks to the next stage's inlinks; the kernel exposes exactly
// two operations — steer (the crossbar decision at one switch, fault
// state included) and forward (the inter-stage wire) — and both the
// unbuffered WaveRunner and the queued BufferedRunner are written
// against them. There is deliberately no second copy of the per-stage
// crossbar logic anywhere: a fault mode added to steer is instantly
// honored by every model.

// Port sentinels returned by steer. Values 0 and 1 are real output
// ports; the sentinels classify why a packet cannot be switched.
const (
	// portUnreachable: the intact fabric has no path from this cell to
	// the destination (non-Banyan gap, or a packet knocked off its
	// unique path by an earlier stuck switch).
	portUnreachable = 0xFF
	// portFaulted: a fault kills the packet here — its switch is dead,
	// or the outlink it must take is severed.
	portFaulted = 0xFE
)

// stageKernel is one compiled stage's wiring: the outgoing link
// permutation and, on a relabeled fabric, the bit kernel's slot-space
// copy of it. The switch bank's port function is not stored per stage:
// a relabeled fabric computes it from key and sigma, and the table path
// reads it off the Fabric's reach rows (see port).
type stageKernel struct {
	// next carries outlink x of this stage to inlink next[x] of the
	// following stage; nil for the last stage, whose outlinks are the
	// output terminals themselves.
	next perm.Perm
	// slotNext is the wire the bit kernel follows, indexed by child
	// slot instead of port: slotNext[2c+v] = next[2c+(v^swap)], with
	// swap the cell's swap bit. Relabeled fabrics only.
	slotNext perm.Perm
}

// Fabric is a compiled simulation model of one MIN: per-stage 2x2
// switch banks with destination routing that works for ANY
// permutation-defined network, PIPID or not, plus the inter-stage link
// permutations. A Fabric is immutable and safe for concurrent use;
// mutable per-trial state (runner scratch, fault state) lives outside
// it.
//
// A fabric takes one of two forms. A Baseline-equivalent wiring is
// compiled relabeled: by the paper's theorem it is the Baseline with
// its cells renamed, so its routing is the Baseline's destination-tag
// routing read through that renaming, in O(n·H + N) state (sigma, key,
// rtag). Every other wiring takes the table path: one reach bit-row of
// N bits per cell of stages 1..Spans-1, (n-1)·H·N/8 bytes, from which a
// port is read as "does child 0, else child 1, reach dst". Only the
// scalar kernels read a table-path fabric.
type Fabric struct {
	N      int // terminals
	H      int // cells per stage
	Spans  int // stages
	stages []stageKernel
	// banyan records unique-path reachability, decided while compiling:
	// the port function collapses a two-port choice toward port 0, so
	// path multiplicity is not observable from it afterwards.
	banyan bool

	// The table form, nil on a relabeled fabric. With W = ⌈N/64⌉ words
	// per row:
	//   reach[((s-1)·H + c)·W :][:W] is the set of output terminals
	//     cell c of stage s >= 1 reaches, one bit per terminal;
	//   kids[s·H + c][p] (s < Spans-1) is the offset in reach of the
	//     row of the stage-(s+1) cell that port p of cell c enters,
	//     hoisted so a lookup loads one offset pair, then one word
	//     per port.
	reach []uint64
	kids  [][2]int32

	// The relabeled form, nil on the table path. With φ the isomorphism
	// onto the Baseline and m = Spans-1:
	//   sigma[dst] = φ_m(dst>>1)<<1 | dst&1, dst's Baseline terminal;
	//   key[s*H+c] = φ_s(c)<<1 with bit m-s replaced by the cell's swap
	//     bit, the Baseline slot its port 0 leads to (0 at the last
	//     stage);
	//   rtag[dst] has bit s = bit m-s of sigma[dst], the Baseline slot
	//     taken at stage s toward dst from any source.
	sigma, key []uint32
	rtag       []uint16
}

// MaxFabricStages bounds the stage count NewFabric compiles. It is set
// by the table path, whose reach rows hold one bit per (cell, dst) at
// stages 1..n-1: (n-1)·2^(2n-4) bytes, 590 KB at 10 stages, 218 MB at
// 14, ~940 MB at 15 and ~4 GB at 16. A relabeled fabric holds
// O(n·2^n) words.
const MaxFabricStages = 14

// NewFabric compiles a wiring of link permutations. It first decides
// Baseline-equivalence with equiv.Certify: a wiring that certifies is
// compiled relabeled from the labels Certify reads, its isomorphism to
// the Baseline (compileRelabeled), and every other wiring — non-Banyan,
// or Banyan but failing P(1,*) or P(*,n), like the tail cycles — takes
// the table path (compileTables). Both forms steer every packet
// identically. Fabrics of fewer than two or more than MaxFabricStages
// stages are refused before anything is allocated.
func NewFabric(perms []perm.Perm) (*Fabric, error) {
	n := len(perms) + 1
	if n < 2 {
		return nil, fmt.Errorf("sim: a fabric needs at least 2 stages, got %d", n)
	}
	if n > MaxFabricStages {
		return nil, fmt.Errorf("sim: %d stages exceeds the fabric bound of %d", n, MaxFabricStages)
	}
	N := 1 << uint(n)
	for s, p := range perms {
		if p.N() != N {
			return nil, fmt.Errorf("sim: stage %d permutation on %d symbols, want %d", s, p.N(), N)
		}
	}
	if g, err := midigraph.FromLinkPerms(n, perms); err == nil {
		var f *Fabric
		if equiv.Certify(g, func(labels []uint64) { f = compileRelabeled(perms, labels) }) {
			return f, nil
		}
	}
	return compileTables(perms), nil
}

// compileRelabeled compiles an equivalent wiring from its isomorphism
// φ onto the Baseline, flat by stage: φ_s(c) = phi[s*h+c]. In the
// Baseline, a cell at stage s keeps the top s bits of its label and its
// outlink to slot v sets bit m-1-s to v, so the path toward dst is
// forced (slot s is bit m-s of sigma[dst]) and a cell reaches dst iff
// its label agrees with sigma[dst]>>1 on those top s bits. The isomorphism carries both facts over, with the
// relabeled cell's port its slot XOR its swap bit, so port decides
// both from key and sigma.
func compileRelabeled(perms []perm.Perm, phi []uint64) *Fabric {
	n := len(perms) + 1
	N, h, m := 1<<uint(n), 1<<uint(n-1), n-1
	f := &Fabric{
		N: N, H: h, Spans: n, stages: make([]stageKernel, n), banyan: true,
		sigma: make([]uint32, N), key: make([]uint32, n*h), rtag: make([]uint16, N),
	}
	for dst := range f.sigma {
		sg := uint32(phi[m*h+dst>>1])<<1 | uint32(dst&1)
		f.sigma[dst] = sg
		f.rtag[dst] = uint16(bits.Reverse32(sg) >> uint(32-n))
	}
	for s := 0; s < n; s++ {
		var slotNext perm.Perm
		if s < m {
			slotNext = make(perm.Perm, N)
			f.stages[s].next, f.stages[s].slotNext = perms[s], slotNext
		}
		bit := uint(m - s)
		for c := 0; c < h; c++ {
			var swap uint32
			if s < m {
				swap = uint32(phi[(s+1)*h+int(perms[s][2*c]>>1)]) >> uint(m-1-s) & 1
				slotNext[2*c], slotNext[2*c+1] = perms[s][2*c+int(swap)], perms[s][2*c+1-int(swap)]
			}
			f.key[s*h+c] = uint32(phi[s*h+c])<<1&^(1<<bit) | swap<<bit
		}
	}
	return f
}

// compileTables compiles the table path's reach rows in one backward
// pass over the stages. A cell reaches dst iff one of its two children
// does, so its row is the OR of its children's rows, and the last
// stage's cell c reaches terminals 2c and 2c+1. The port function reads
// the same two child rows: port 0 when child 0 reaches dst, else port 1
// when child 1 does, else portUnreachable. Unreachable (cell, dst)
// pairs are tolerated, so non-Banyan networks can still be simulated
// for comparison; a non-empty AND of a cell's two child rows (both
// ports lead to some dst, resolved toward port 0) makes the fabric
// non-Banyan. Stage 0's rows are never read, so stage 0 only runs that
// check. No other check is needed: a stage-0 cell has N port sequences
// to the terminals, so when no cell ever offers both ports for one
// destination they end at N distinct terminals, and every stage-0 cell
// reaches every destination. The sizes must already be validated.
func compileTables(perms []perm.Perm) *Fabric {
	n := len(perms) + 1
	N := 1 << uint(n)
	h, w := N/2, (N+63)/64
	f := &Fabric{
		N: N, H: h, Spans: n, stages: make([]stageKernel, n), banyan: true,
		reach: make([]uint64, (n-1)*h*w), kids: make([][2]int32, (n-1)*h),
	}
	last := f.reach[(n-2)*h*w:]
	for c := 0; c < h; c++ {
		last[c*w+c>>5] = 3 << uint(2*c&63)
	}
	for s := n - 2; s >= 0; s-- {
		f.stages[s].next = perms[s]
		below, kids := s*h*w, f.kids[s*h:(s+1)*h]
		for x, y := range perms[s] {
			kids[x>>1][x&1] = int32(below + int(y>>1)*w)
		}
		var rows []uint64
		if s > 0 {
			rows = f.reach[(s-1)*h*w : below]
		}
		for c := 0; c < h; c++ {
			r0, r1 := f.reach[kids[c][0]:][:w], f.reach[kids[c][1]:][:w]
			for i := range r0 {
				if r0[i]&r1[i] != 0 {
					f.banyan = false
				}
				if rows != nil {
					rows[c*w+i] = r0[i] | r1[i]
				}
			}
		}
	}
	return f
}

// BitSliceable reports whether the bit-sliced wave kernel can drive
// this fabric: whether it compiled relabeled, which by the paper's
// theorem is whether the wiring is Baseline-equivalent (Banyan and
// P(1,*) and P(*,n)). Other fabrics are scalar-only. The kernel packs
// one source-independent slot tag per destination (rtag), which only
// the relabeled form has. Uniqueness is load-bearing for byte-identity
// too: the bit kernel drops a fault-derailed packet on arrival at the
// next stage, which matches the scalar portUnreachable lookup only when
// no off-path cell can reach the destination — the Banyan property,
// which every equivalent wiring has.
func (f *Fabric) BitSliceable() bool { return f.rtag != nil }

// swapped returns the swap bit of the switch at stage-major index
// i = s*H + c: 1 when its port 0 leads to child slot 1. Relabeled
// fabrics only.
func (f *Fabric) swapped(i int) uint32 {
	s := i >> uint(f.Spans-1) // H = 2^(Spans-1)
	return f.key[i] >> uint(f.Spans-1-s) & 1
}

// Banyan reports whether the compiled fabric has full unique-path
// reachability: every (stage-0 cell, destination) pair routable and no
// stage ever offered both ports for one destination.
func (f *Fabric) Banyan() bool { return f.banyan }

// port is the logical port function of the intact fabric: the output
// port (0/1) leading from (stage s, cell) toward output terminal dst,
// or portUnreachable. It is steer with no fault state.
func (f *Fabric) port(s, cell, dst int) uint8 { return f.steer(nil, s, cell, dst) }

// keyPort is port on a relabeled fabric: p = (key ^ sigma[dst]) >> (m-s),
// whose bits above 0 are zero iff the cell's Baseline label agrees with
// dst's on the top s bits (the cell reaches dst) and whose bit 0 is
// then the slot XOR the swap bit.
//
//minlint:hotpath
func (f *Fabric) keyPort(s, cell, dst int) uint8 {
	if p := (f.key[s*f.H+cell] ^ f.sigma[dst]) >> uint(f.Spans-1-s); p <= 1 {
		return uint8(p)
	}
	return portUnreachable
}

// tablePort is port on the table path below the last stage: port 0
// when the row of the cell that port 0 enters holds dst, else port 1
// when port 1's does, else portUnreachable. It reads both rows and
// branches on neither: under random traffic the port is random, so a
// branch on it cannot be predicted, and a branching lookup made the
// scalar wave loop ~40% slower at 10 stages.
//
//minlint:hotpath
func (f *Fabric) tablePort(s, cell, dst int) uint8 {
	k, w, b := &f.kids[s*f.H+cell], dst>>6, uint(dst&63)
	r0 := f.reach[int(k[0])+w] >> b & 1
	r1 := f.reach[int(k[1])+w] >> b & 1
	// Port 1 iff only r1 is set; when neither is, (r0|r1)-1 sets every
	// bit, which is portUnreachable.
	return uint8(r1&^r0 | ((r0 | r1) - 1))
}

// lastPort is port on the table path at the last stage, whose outlinks
// are the terminals: cell reaches only terminals 2·cell and 2·cell+1,
// each on the port of its low bit.
//
//minlint:hotpath
func lastPort(cell, dst int) uint8 {
	if p := uint(dst ^ cell<<1); p <= 1 {
		return uint8(p)
	}
	return portUnreachable
}

// steer is THE 2x2 crossbar decision: the output port a packet at
// (stage s, cell) headed for dst leaves on, honoring the fault state
// (nil or inactive = intact fabric). Returns portFaulted when a fault
// kills the packet here (dead switch, or the only usable outlink
// severed) and portUnreachable when the intact wiring offers no path.
// Allocation-free; both simulation models route every packet of every
// cycle through this one function.
//
//minlint:hotpath
func (f *Fabric) steer(fs *FaultState, s, cell, dst int) uint8 {
	// The forms are told apart here rather than in port, so that each
	// lookup inlines into steer.
	var pt uint8
	switch {
	case f.key != nil:
		pt = f.keyPort(s, cell, dst)
	case s < f.Spans-1:
		pt = f.tablePort(s, cell, dst)
	default:
		pt = lastPort(cell, dst)
	}
	if !fs.Active() {
		return pt
	}
	switch fs.mode[s*f.H+cell] {
	case switchOK:
	case switchDead:
		return portFaulted
	case switchStuck0:
		if pt == portUnreachable {
			return pt
		}
		pt = 0
	case switchStuck1:
		if pt == portUnreachable {
			return pt
		}
		pt = 1
	}
	if pt == portUnreachable {
		return pt
	}
	out := cell<<1 | int(pt)
	if fs.linkDown[s*f.N+out] {
		return portFaulted
	}
	return pt
}

// forward carries outlink `out` of stage s along the inter-stage wire to
// the next stage's inlink. Must not be called for the last stage, whose
// outlinks are terminals.
//
//minlint:hotpath
func (f *Fabric) forward(s int, out uint64) uint64 {
	return f.stages[s].next.Apply(out)
}

// SteerSweep drives the kernel across the whole fabric once: for every
// stage and cell it steers a destination derived from salt and, when a
// real port comes back, forwards the outlink. It exists for the kernel
// benchmark (steer/forward are unexported); the accumulated return
// value defeats dead-code elimination.
//
//minlint:hotpath
func (f *Fabric) SteerSweep(fs *FaultState, salt int) uint64 {
	var acc uint64
	for s := 0; s < f.Spans; s++ {
		for c := 0; c < f.H; c++ {
			dst := (c*2 + salt) & (f.N - 1)
			pt := f.steer(fs, s, c, dst)
			if pt < portFaulted {
				out := uint64(c)<<1 | uint64(pt)
				if s < f.Spans-1 {
					out = f.forward(s, out)
				}
				acc += out
			}
			acc++
		}
	}
	return acc
}
