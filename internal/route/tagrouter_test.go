package route

import (
	"fmt"

	"minequiv/internal/pipid"
)

// Router is the §4 tag router, kept as a test oracle: it follows the
// schedule TagPositions derives, reading one fixed destination bit per
// stage with no state and no lookup, so FaultyRouter's paths can be
// checked against a router that shares none of its code.
type Router struct {
	n      int
	thetas []pipid.IndexPerm
	tagPos []int // tagPos[s] = output-terminal bit controlled by stage s
}

// NewRouter derives the tag positions for a PIPID network; it fails
// exactly where TagPositions does.
func NewRouter(thetas []pipid.IndexPerm) (*Router, error) {
	tags, err := TagPositions(thetas)
	if err != nil {
		return nil, err
	}
	return &Router{n: len(tags), thetas: thetas, tagPos: tags}, nil
}

// N returns the number of terminals.
func (r *Router) N() int { return 1 << uint(r.n) }

// Route computes the unique path from input terminal src to output
// terminal dst using destination-tag bits.
func (r *Router) Route(src, dst int) (Path, error) {
	nTerm := r.N()
	if src < 0 || dst < 0 || src >= nTerm || dst >= nTerm {
		return Path{}, fmt.Errorf("route: terminal out of range (src=%d dst=%d N=%d)", src, dst, nTerm)
	}
	link := src
	path := Path{Src: src, Dst: dst, Hops: make([]Hop, 0, r.n)}
	for s := 0; s < r.n; s++ {
		cell := link >> 1
		inPort := link & 1
		d := (dst >> uint(r.tagPos[s])) & 1
		path.Hops = append(path.Hops, Hop{Stage: s, Cell: cell, InPort: inPort, OutPort: d})
		link = cell<<1 | d
		if s < r.n-1 {
			link = int(r.thetas[s].Apply(uint64(link)))
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
	n := r.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if _, err := r.Route(src, dst); err != nil {
				return 0, fmt.Errorf("route: pair (%d,%d): %w", src, dst, err)
			}
		}
	}
	return n * n, nil
}
