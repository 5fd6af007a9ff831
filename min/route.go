package min

import (
	"fmt"

	"minequiv/internal/route"
)

// Hop records one stage of a routed path. Field docs are on
// route.Hop.
type Hop = route.Hop

// Path is a full route from an input terminal to an output terminal.
type Path = route.Path

// Route computes the path from input terminal src to output terminal
// dst with the reachability router that RouteUnderFaults also uses. It
// finds the unique path on Banyan networks, which on a PIPID-defined one
// is the path the paper's §4 destination tags (TagPositions) steer; on
// other networks it takes the path preferring port 0 at the earliest
// stage, and it fails when no path exists.
func Route(nw *Network, src, dst int) (Path, error) {
	if src < 0 || dst < 0 {
		return Path{}, fmt.Errorf("min: negative terminal (src=%d dst=%d)", src, dst)
	}
	r, err := route.NewFaultyRouter(nw.topo.LinkPerms, nil)
	if err != nil {
		return Path{}, err
	}
	return r.Route(src, dst)
}

// TagPositions returns the destination-tag schedule of a PIPID network:
// the switch at stage s reads destination bit TagPositions[s]. This is
// the "very simple bit directed routing" the paper credits PIPID
// networks with; it errors for non-PIPID or degenerate networks.
func TagPositions(nw *Network) ([]int, error) {
	if !nw.IsPIPID() {
		return nil, fmt.Errorf("min: %s is not PIPID-defined", nw.Name())
	}
	return route.TagPositions(nw.topo.IndexPerms)
}

// CountAdmissible enumerates all N! full permutations of the terminals
// (practical only for N <= 8, i.e. 3 stages) and counts those the
// network can route without any switch conflict. A Banyan network
// realizes exactly 2^(switch count) of them. It accepts only PIPID
// networks with a tag schedule; the count is the reachability router's.
func CountAdmissible(nw *Network) (admissible, total uint64, err error) {
	if !nw.IsPIPID() {
		return 0, 0, fmt.Errorf("min: %s is not PIPID-defined", nw.Name())
	}
	if _, err := route.TagPositions(nw.topo.IndexPerms); err != nil {
		return 0, 0, err
	}
	r, err := route.NewFaultyRouter(nw.topo.LinkPerms, nil)
	if err != nil {
		return 0, 0, err
	}
	return r.CountAdmissible()
}
