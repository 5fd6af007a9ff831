// Package route routes packets through a permutation-defined network.
// There is one router, FaultyRouter, which routes by backward
// reachability: with no fault state it is the router for every intact
// fabric, and otherwise it avoids the faulty switches and links of a
// realized sim.FaultState. On a Banyan network it finds the unique path.
//
// Terminal model. A network with n stages has N = 2^n input terminals
// and N output terminals. Input terminal a enters the stage-0 cell a>>1
// on port a&1. At each stage the switch chooses an output port d; the
// outlink label is (cell<<1)|d; the stage's link permutation carries it
// to the next stage's inlink, whose high n-1 bits name the next cell.
// The outlinks of the last stage are the output terminals themselves.
//
// The "very simple bit directed routing" that §4 of the paper credits
// PIPID networks with is kept as data: TagPositions derives, from the
// index permutations alone, the output-terminal bit each stage's port
// choice ends up at. On such a network the unique path toward dst leaves
// the stage-s switch on port bit TagPositions[s] of dst, which is what
// the router's paths are checked against.
package route

import (
	"fmt"

	"minequiv/internal/pipid"
)

// Hop records one stage of a routed path.
type Hop struct {
	Stage   int `json:"stage"`   // 0-based stage index
	Cell    int `json:"cell"`    // switch cell at this stage
	InPort  int `json:"inPort"`  // port the packet arrived on (0/1)
	OutPort int `json:"outPort"` // port chosen to leave on (0/1)
}

// Path is a full route from an input terminal to an output terminal.
type Path struct {
	Src  int   `json:"src"`
	Dst  int   `json:"dst"`
	Hops []Hop `json:"hops"`
}

// TagPositions derives the destination-tag schedule of a PIPID network
// from its stage index permutations: tags[s] is the output-terminal bit
// that the switch at stage s sets. It fails when some stage's port
// choice is overwritten before reaching the output, which happens
// exactly on the degenerate (non-Banyan) wirings, e.g. a stage with
// theta^{-1}(0) = 0.
func TagPositions(thetas []pipid.IndexPerm) ([]int, error) {
	n := len(thetas) + 1
	inv := make([][]int, len(thetas))
	for s, th := range thetas {
		if th.W() != n {
			return nil, fmt.Errorf("route: stage %d theta on %d bits, want %d", s, th.W(), n)
		}
		inv[s] = th.Inverse().Theta
	}
	// The choice bit enters at link position 0 after stage s's switch and
	// is then carried through theta_s, ..., theta_{n-2}. Input position i
	// of A_theta appears at output position theta^{-1}(i).
	tags := make([]int, n)
	for s := range tags {
		pos := 0
		for t := s; t < n-1; t++ {
			pos = inv[t][pos]
			if pos == 0 && t < n-2 {
				// Position 0 is the next switch's port, so landing there
				// before the last stage overwrites the bit.
				break
			}
		}
		tags[s] = pos
	}
	// Bit 0 is always the last stage's tag. Validate distinctness.
	seen := make([]bool, n)
	for s, p := range tags {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("route: stage %d tag position %d collides or out of range (network not Banyan)", s, p)
		}
		seen[p] = true
	}
	return tags, nil
}
