// Package route implements the "very simple bit directed routing" that
// §4 of the paper credits PIPID-built networks with (Router). Every
// other wiring routes by backward reachability through FaultyRouter,
// which with no fault state is the generic router for intact fabrics
// and otherwise avoids the faulty switches and links of a realized
// sim.FaultState; there is no separate intact-only router.
//
// Terminal model. A network with n stages has N = 2^n input terminals
// and N output terminals. Input terminal a enters the stage-0 cell a>>1
// on port a&1. At each stage the switch chooses an output port d; the
// outlink label is (cell<<1)|d; the stage's link permutation carries it
// to the next stage's inlink, whose high n-1 bits name the next cell.
// The outlinks of the last stage are the output terminals themselves.
//
// For a PIPID network the port choice made at stage s ends up, untouched,
// at one fixed bit position of the output terminal label (the "tag
// position"); routing is then: read the destination's bit at that
// position and set the switch accordingly — no state, no lookup.
package route

import (
	"fmt"

	"minequiv/internal/pipid"
)

// Step records one hop of a routed path.
type Step struct {
	Stage   int    // 0-based stage index
	Cell    uint64 // cell label at this stage
	InPort  uint64 // port the packet arrived on (0/1)
	OutPort uint64 // port chosen to leave on (0/1)
}

// Path is a full route from an input terminal to an output terminal.
type Path struct {
	Src, Dst uint64
	Steps    []Step
}

// Router performs bit-directed routing on a PIPID-defined network.
type Router struct {
	n      int
	thetas []pipid.IndexPerm
	tagPos []int // tagPos[s] = output-terminal bit controlled by stage s
}

// NewRouter derives the tag positions for a PIPID network. It fails when
// some stage's port choice is overwritten before reaching the output —
// exactly the degenerate (non-Banyan) situations, e.g. a stage with
// theta^{-1}(0) = 0.
func NewRouter(thetas []pipid.IndexPerm) (*Router, error) {
	n := len(thetas) + 1
	for s, th := range thetas {
		if th.W() != n {
			return nil, fmt.Errorf("route: stage %d theta on %d bits, want %d", s, th.W(), n)
		}
	}
	r := &Router{n: n, thetas: thetas, tagPos: make([]int, n)}
	// The choice bit enters at link position 0 after stage s's switch and
	// is then carried through theta_s, ..., theta_{n-2}. Input position i
	// of A_theta appears at output position theta^{-1}(i).
	for s := 0; s < n; s++ {
		pos := 0
		for t := s; t < n-1; t++ {
			pos = r.thetas[t].Inverse().Theta[pos]
			if pos == 0 && t < n-2 {
				// Will be overwritten by the next switch's choice only if
				// it sits at position 0 when entering a switch; it always
				// does (position 0 IS the port). Overwrite happens at
				// every switch, so landing on 0 before the last stage
				// kills the bit.
				break
			}
		}
		r.tagPos[s] = pos
	}
	// Bits 0 is always the last stage's tag. Validate distinctness.
	seen := make([]bool, n)
	for s, p := range r.tagPos {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("route: stage %d tag position %d collides or out of range (network not Banyan)", s, p)
		}
		seen[p] = true
	}
	return r, nil
}

// TagPositions returns, per stage s, which destination bit the switch
// at stage s consumes. The slice is a copy.
func (r *Router) TagPositions() []int {
	out := make([]int, len(r.tagPos))
	copy(out, r.tagPos)
	return out
}

// N returns the number of terminals.
func (r *Router) N() int { return 1 << uint(r.n) }

// Route computes the unique path from input terminal src to output
// terminal dst using destination-tag bits.
func (r *Router) Route(src, dst uint64) (Path, error) {
	nTerm := uint64(r.N())
	if src >= nTerm || dst >= nTerm {
		return Path{}, fmt.Errorf("route: terminal out of range (src=%d dst=%d N=%d)", src, dst, nTerm)
	}
	link := src
	path := Path{Src: src, Dst: dst, Steps: make([]Step, 0, r.n)}
	for s := 0; s < r.n; s++ {
		cell := link >> 1
		inPort := link & 1
		d := (dst >> uint(r.tagPos[s])) & 1
		path.Steps = append(path.Steps, Step{Stage: s, Cell: cell, InPort: inPort, OutPort: d})
		link = cell<<1 | d
		if s < r.n-1 {
			link = r.thetas[s].Apply(link)
		}
	}
	if link != dst {
		return Path{}, fmt.Errorf("route: tag routing landed on %d, want %d (internal error)", link, dst)
	}
	return path, nil
}

// VerifyAllPairs routes every (src, dst) terminal pair through r and
// checks the paths are valid; for a Banyan network this exercises all
// N^2 unique paths. It returns the number of routed pairs.
func (r *Router) VerifyAllPairs() (int, error) {
	n := uint64(r.N())
	for src := uint64(0); src < n; src++ {
		for dst := uint64(0); dst < n; dst++ {
			if _, err := r.Route(src, dst); err != nil {
				return 0, fmt.Errorf("route: pair (%d,%d): %w", src, dst, err)
			}
		}
	}
	return int(n * n), nil
}
