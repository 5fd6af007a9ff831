package route

import (
	"fmt"

	"minequiv/internal/perm"
)

// The tag router's conflict analysis is the reference the reachability
// router's admissibility count and the simulator are checked against.

// conflict describes two inputs colliding on one switch output.
type conflict struct {
	Stage      int
	Cell       uint64
	Port       uint64
	SrcA, SrcB uint64
}

func (c conflict) String() string {
	return fmt.Sprintf("stage %d cell %d port %d: inputs %d and %d collide",
		c.Stage, c.Cell, c.Port, c.SrcA, c.SrcB)
}

// permutationConflicts routes all N inputs simultaneously, input i to
// output pi[i], and reports every switch-output collision. A permutation
// is admissible (realizable in one pass) iff the result is empty. This
// is the classic blocking analysis of banyan networks: they have unique
// paths, so conflicts cannot be routed around.
func (r *Router) permutationConflicts(pi perm.Perm) ([]conflict, error) {
	if pi.N() != r.N() {
		return nil, fmt.Errorf("route: permutation on %d symbols, want %d", pi.N(), r.N())
	}
	if err := pi.Validate(); err != nil {
		return nil, err
	}
	var conflicts []conflict
	// owner[cell<<1|port] = first input using that outlink this stage.
	owner := make([]int64, r.N())
	links := make([]uint64, r.N()) // current link label per input
	for i := range links {
		links[i] = uint64(i)
	}
	for s := 0; s < r.n; s++ {
		for i := range owner {
			owner[i] = -1
		}
		for src := 0; src < r.N(); src++ {
			cell := links[src] >> 1
			d := (pi[src] >> uint(r.tagPos[s])) & 1
			out := cell<<1 | d
			if prev := owner[out]; prev >= 0 {
				conflicts = append(conflicts, conflict{
					Stage: s, Cell: cell, Port: d,
					SrcA: uint64(prev), SrcB: uint64(src),
				})
			} else {
				owner[out] = int64(src)
			}
			links[src] = out
		}
		if s < r.n-1 {
			for src := range links {
				links[src] = r.thetas[s].Apply(links[src])
			}
		}
	}
	return conflicts, nil
}

// admissible reports whether pi is realizable without conflicts.
func (r *Router) admissible(pi perm.Perm) (bool, error) {
	cs, err := r.permutationConflicts(pi)
	if err != nil {
		return false, err
	}
	return len(cs) == 0, nil
}

// realizedPermutation computes the terminal permutation produced by an
// explicit switch-setting assignment: settings[s][cell] is 0 for a
// straight switch (port p -> p) and 1 for a crossed one (p -> 1-p). In a
// Banyan network distinct settings realize distinct permutations, and
// every realized permutation is admissible.
func (r *Router) realizedPermutation(settings [][]uint64) (perm.Perm, error) {
	h := r.N() / 2
	if len(settings) != r.n {
		return nil, fmt.Errorf("route: want %d setting stages, got %d", r.n, len(settings))
	}
	for s := range settings {
		if len(settings[s]) != h {
			return nil, fmt.Errorf("route: stage %d has %d settings, want %d", s, len(settings[s]), h)
		}
	}
	pi := make(perm.Perm, r.N())
	for src := 0; src < r.N(); src++ {
		link := uint64(src)
		for s := 0; s < r.n; s++ {
			cell := link >> 1
			port := link & 1
			out := port ^ (settings[s][cell] & 1)
			link = cell<<1 | out
			if s < r.n-1 {
				link = r.thetas[s].Apply(link)
			}
		}
		pi[src] = link
	}
	if err := pi.Validate(); err != nil {
		return nil, fmt.Errorf("route: settings did not realize a permutation: %w", err)
	}
	return pi, nil
}

// pathsEqual reports whether two paths traverse the same cells and ports.
func pathsEqual(a, b Path) bool {
	if a.Src != b.Src || a.Dst != b.Dst || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			return false
		}
	}
	return true
}
