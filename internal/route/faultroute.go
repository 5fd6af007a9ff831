package route

import (
	"fmt"

	"minequiv/internal/perm"
	"minequiv/internal/sim"
)

// FaultyRouter routes on a permutation-defined network by backward
// reachability over the surviving wiring. With a nil fault state it is
// the generic router for any intact fabric: on a Banyan network it
// finds the unique path, and elsewhere the first path that prefers
// port 0 at the earliest stage. It keeps the reachability table of the
// last destination routed, so routing one pair costs O(n·h) time and
// space. A FaultyRouter is NOT safe for concurrent use.
type FaultyRouter struct {
	n      int
	h      int
	perms  []perm.Perm
	faults *sim.FaultState // nil = intact fabric
	// canReach[s*h+cell]: cell at stage s reaches output dst through
	// surviving switches and links; dst is -1 until the first Route.
	canReach []bool
	dst      int
}

// NewFaultyRouter wraps per-stage link permutations (length n-1, each
// on 2^n symbols) and a realized fault state sized for n stages; nil
// routes on the intact fabric.
func NewFaultyRouter(perms []perm.Perm, fs *sim.FaultState) (*FaultyRouter, error) {
	n := len(perms) + 1
	N := 1 << uint(n)
	for s, p := range perms {
		if p.N() != N {
			return nil, fmt.Errorf("route: stage %d permutation on %d symbols, want %d", s, p.N(), N)
		}
	}
	if fs != nil && fs.Stages() != n {
		return nil, fmt.Errorf("route: fault state sized for %d stages, network has %d", fs.Stages(), n)
	}
	return &FaultyRouter{n: n, h: N / 2, perms: perms, faults: fs, canReach: make([]bool, n*N/2), dst: -1}, nil
}

// reach returns the surviving-reachability table for one destination,
// rebuilding it in place unless dst was the last one asked for.
func (r *FaultyRouter) reach(dst int) []bool {
	if r.dst == dst {
		return r.canReach
	}
	h, cr, fs := r.h, r.canReach, r.faults
	// Last stage: only cell dst>>1 can deliver, through its dst port.
	last := cr[(r.n-1)*h:]
	clear(last)
	last[dst>>1] = fs.Allows(r.n-1, dst)
	for s := r.n - 2; s >= 0; s-- {
		next, row, below := r.perms[s], cr[s*h:(s+1)*h], cr[(s+1)*h:(s+2)*h]
		for c := range row {
			out := c << 1
			row[c] = fs.Allows(s, out) && below[next[out]>>1] || fs.Allows(s, out|1) && below[next[out|1]>>1]
		}
	}
	r.dst = dst
	return cr
}

// N returns the number of terminals.
func (r *FaultyRouter) N() int { return 1 << uint(r.n) }

// Route computes a path from src to dst avoiding every faulty element,
// or fails when the surviving fabric offers none. On a Banyan fabric
// the surviving path, when it exists, is the unique intact path (faults
// only remove paths, never add them). The error reads "no path" on the
// intact fabric (nil fault state) and "no fault-free path" under any
// fault state, even an all-clear one.
func (r *FaultyRouter) Route(src, dst int) (Path, error) {
	nTerm := r.N()
	if src < 0 || dst < 0 || src >= nTerm || dst >= nTerm {
		return Path{}, fmt.Errorf("route: terminal out of range (src=%d dst=%d N=%d)", src, dst, nTerm)
	}
	cr := r.reach(dst)
	link := src
	path := Path{Src: src, Dst: dst, Hops: make([]Hop, 0, r.n)}
	for s := 0; s < r.n; s++ {
		cell := link >> 1
		if !cr[s*r.h+cell] {
			what := "path"
			if r.faults != nil {
				what = "fault-free path"
			}
			return Path{}, fmt.Errorf("route: no %s from %d to %d (stuck at stage %d cell %d)", what, src, dst, s, cell)
		}
		d := dst & 1
		if s < r.n-1 {
			// cr marks the cell, so one of its ports reaches on; take
			// port 0 when it does.
			out := cell << 1
			d = 0
			if !r.faults.Allows(s, out) || !cr[(s+1)*r.h+int(r.perms[s][out]>>1)] {
				d = 1
			}
		}
		path.Hops = append(path.Hops, Hop{Stage: s, Cell: cell, InPort: link & 1, OutPort: d})
		link = cell<<1 | d
		if s < r.n-1 {
			link = int(r.perms[s][link])
		}
	}
	return path, nil
}

// CountAdmissible enumerates all N! permutations (practical only for
// N <= 8) and counts those the degraded fabric routes without any
// outlink conflict: every source must have a surviving path and no two
// paths may share a link. With no fault state this is the classical
// count: an n-stage Banyan network has n·N/2 switches and realizes
// exactly 2^(switch count) of the N! permutations.
func (r *FaultyRouter) CountAdmissible() (admissible, total uint64, err error) {
	n := r.N()
	if n > 8 {
		return 0, 0, fmt.Errorf("route: CountAdmissible limited to N <= 8, got %d", n)
	}
	// Precompute each (src, dst) path's outlink trace once; nil = no
	// surviving path.
	traces := make([][][]int, n)
	for src := 0; src < n; src++ {
		traces[src] = make([][]int, n)
		for dst := 0; dst < n; dst++ {
			p, err := r.Route(src, dst)
			if err != nil {
				continue
			}
			tr := make([]int, r.n)
			for s, h := range p.Hops {
				tr[s] = h.Cell<<1 | h.OutPort
			}
			traces[src][dst] = tr
		}
	}
	pi := perm.Identity(n)
	claimed := make([][]bool, r.n)
	for s := range claimed {
		claimed[s] = make([]bool, n)
	}
	admitted := func() bool {
		for s := range claimed {
			for i := range claimed[s] {
				claimed[s][i] = false
			}
		}
		for src := 0; src < n; src++ {
			tr := traces[src][pi[src]]
			if tr == nil {
				return false
			}
			for s, out := range tr {
				if claimed[s][out] {
					return false
				}
				claimed[s][out] = true
			}
		}
		return true
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			total++
			if admitted() {
				admissible++
			}
			return
		}
		for i := k; i < n; i++ {
			pi[k], pi[i] = pi[i], pi[k]
			rec(k + 1)
			pi[k], pi[i] = pi[i], pi[k]
		}
	}
	rec(0)
	return admissible, total, nil
}
