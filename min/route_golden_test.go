package min

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// routeGoldenDigest is the SHA-256 of every line TestRouteGoldenNonPIPID
// records: one per (wiring, stages, src, dst), holding either Route's
// path or its error text. Any change to the reachability router's path
// choice or error bytes moves it.
const routeGoldenDigest = "c91e86d7e31f7399ec4004bc364f26c3f3053707c9a2822dfe2c757ecbe3ca66"

// rotateInner relabels the cells of every inner stage (1..n-2) of a
// wiring by c -> c+k mod H. The result is isomorphic to the input and
// keeps its terminals, but for k != 0 its first link permutation no
// longer fixes 0, so it is never PIPID-defined: Route takes the
// reachability path on it.
func rotateInner(perms [][]int, k int) [][]int {
	stages := len(perms) + 1
	h := 1 << uint(stages-1)
	relabel := func(s, c, by int) int {
		if s == 0 || s == stages-1 {
			return c
		}
		return (c + by + h) % h
	}
	out := make([][]int, len(perms))
	for s, p := range perms {
		row := make([]int, len(p))
		for x := range row {
			// x is an outlink of stage s under the new labels.
			in := p[relabel(s, x>>1, -k)<<1|x&1]
			row[x] = relabel(s+1, in>>1, k)<<1 | in&1
		}
		out[s] = row
	}
	return out
}

func identityWiring(stages int) [][]int {
	perms := make([][]int, stages-1)
	for s := range perms {
		perms[s] = make([]int, 1<<uint(stages))
		for x := range perms[s] {
			perms[s][x] = x
		}
	}
	return perms
}

// routeGoldenNets lists the non-PIPID wirings the golden pins at one
// stage count: relabeled Banyan networks (one unique path per pair),
// the tail-cycle counterexample, and two non-Banyan wirings with both
// unreachable and multi-path pairs.
func routeGoldenNets(t *testing.T, stages int) []*Network {
	t.Helper()
	omegaHead := identityWiring(stages)
	omegaHead[0] = MustBuild(Omega, stages).LinkPerms()[0]
	wirings := []struct {
		name  string
		perms [][]int
	}{
		{"baseline-rot", rotateInner(MustBuild(Baseline, stages).LinkPerms(), 1)},
		{"omega-rot", rotateInner(MustBuild(Omega, stages).LinkPerms(), 3)},
		{"identity-rot", rotateInner(identityWiring(stages), 1)},
		{"omega-head-rot", rotateInner(omegaHead, 1)},
	}
	var nets []*Network
	for _, w := range wirings {
		nw, err := FromLinkPerms(w.name, stages, w.perms)
		if err != nil {
			t.Fatalf("%s n=%d: %v", w.name, stages, err)
		}
		nets = append(nets, nw)
	}
	tc, err := TailCycle(stages)
	if err != nil {
		t.Fatal(err)
	}
	return append(nets, tc)
}

// lexFirstPaths enumerates every port sequence from src and returns,
// per destination, the number of paths reaching it and the
// lexicographically smallest port sequence (stage 0 most significant)
// among them: the path a reachability router that prefers port 0 must
// choose.
func lexFirstPaths(nw *Network, src int) (count []int, first []int) {
	n, N := nw.Stages(), nw.Terminals()
	perms := nw.LinkPerms()
	count, first = make([]int, N), make([]int, N)
	for ports := 0; ports < N; ports++ {
		link := src
		for s := 0; s < n; s++ {
			link = link&^1 | ports>>uint(n-1-s)&1
			if s < n-1 {
				link = perms[s][link]
			}
		}
		if count[link] == 0 {
			first[link] = ports
		}
		count[link]++
	}
	return count, first
}

// TestRouteGoldenNonPIPID pins min.Route on wirings without a PIPID
// construction, where it routes by backward reachability: for every
// pair the path, or the error text, is hashed into a committed digest.
// The enumeration oracle checks each record independently: a pair
// routes iff some path exists, and the route is the path preferring
// port 0 at the earliest stage.
func TestRouteGoldenNonPIPID(t *testing.T) {
	h := sha256.New()
	var banyan, unreachable, multi bool
	for stages := 3; stages <= 5; stages++ {
		for _, nw := range routeGoldenNets(t, stages) {
			if nw.IsPIPID() {
				t.Fatalf("%s n=%d is PIPID-defined; the golden needs the reachability path", nw.Name(), stages)
			}
			allUnique := true
			for src := 0; src < nw.Terminals(); src++ {
				count, first := lexFirstPaths(nw, src)
				for dst := 0; dst < nw.Terminals(); dst++ {
					p, err := Route(nw, src, dst)
					if err != nil {
						fmt.Fprintf(h, "%s n=%d %d->%d: %v\n", nw.Name(), stages, src, dst, err)
					} else {
						fmt.Fprintf(h, "%s n=%d %d->%d: %v\n", nw.Name(), stages, src, dst, p.Hops)
					}
					allUnique = allUnique && count[dst] == 1
					unreachable = unreachable || count[dst] == 0
					multi = multi || count[dst] > 1
					switch {
					case count[dst] == 0 && err == nil:
						t.Fatalf("%s n=%d %d->%d: routed a pair with no path", nw.Name(), stages, src, dst)
					case count[dst] > 0 && err != nil:
						t.Fatalf("%s n=%d %d->%d: %v", nw.Name(), stages, src, dst, err)
					case err == nil:
						ports := 0
						for _, hop := range p.Hops {
							ports = ports<<1 | hop.OutPort
						}
						if ports != first[dst] {
							t.Fatalf("%s n=%d %d->%d: ports %b, want the first path %b", nw.Name(), stages, src, dst, ports, first[dst])
						}
					}
				}
			}
			banyan = banyan || allUnique
		}
	}
	if !banyan || !unreachable || !multi {
		t.Fatalf("golden coverage: banyan=%v unreachable=%v multi-path=%v, want all", banyan, unreachable, multi)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != routeGoldenDigest {
		t.Fatalf("route golden digest %s, want %s", got, routeGoldenDigest)
	}
}

// routeGoldenPIPIDDigest is the SHA-256 of every line
// TestRouteGoldenPIPID records: each network's TagPositions result, then
// one line per (src, dst) holding Route's path or its error text.
const routeGoldenPIPIDDigest = "e521ec13fa5f222d21f05441ba4b665dda248b3cc7cb1ac9feb0d4280cf1f30f"

// degenerateWiring is a PIPID wiring whose first stage keeps the port
// bit in place, so the next switch overwrites stage 0's choice: the
// network is not Banyan, has no tag schedule, and some pairs have no
// path while others have two.
func degenerateWiring(t *testing.T, stages int) *Network {
	t.Helper()
	thetas := make([][]int, stages-1)
	for s := range thetas {
		th := make([]int, stages)
		for j := range th {
			th[j] = (j + 1) % stages // perfect shuffle
			if s == 0 {
				th[j] = j
			}
		}
		thetas[s] = th
	}
	nw, err := FromIndexPerms("degenerate", stages, thetas)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestRouteGoldenPIPID pins min.Route and TagPositions on PIPID-defined
// wirings: every catalog network at n = 2..7 and a degenerate PIPID
// wiring at n = 3..5. For every pair the path, or the error text, is
// hashed into a committed digest. Independently of the digest, each
// catalog hop must leave on the port its stage's tag bit names, the hops
// must chain through the link permutations to dst, and the degenerate
// wiring's routes must match the port-0-first path enumeration.
func TestRouteGoldenPIPID(t *testing.T) {
	h := sha256.New()
	var unreachable, multi bool
	check := func(nw *Network) {
		stages := nw.Stages()
		if !nw.IsPIPID() {
			t.Fatalf("%s n=%d is not PIPID-defined", nw.Name(), stages)
		}
		tags, tagErr := TagPositions(nw)
		fmt.Fprintf(h, "%s n=%d tags: %v %v\n", nw.Name(), stages, tags, tagErr)
		perms := nw.LinkPerms()
		for src := 0; src < nw.Terminals(); src++ {
			var count, first []int
			if tagErr != nil {
				count, first = lexFirstPaths(nw, src)
			}
			for dst := 0; dst < nw.Terminals(); dst++ {
				p, err := Route(nw, src, dst)
				if err != nil {
					fmt.Fprintf(h, "%s n=%d %d->%d: %v\n", nw.Name(), stages, src, dst, err)
				} else {
					fmt.Fprintf(h, "%s n=%d %d->%d: %v\n", nw.Name(), stages, src, dst, p.Hops)
				}
				if tagErr != nil {
					unreachable = unreachable || count[dst] == 0
					multi = multi || count[dst] > 1
					switch {
					case count[dst] == 0 && err == nil:
						t.Fatalf("%s n=%d %d->%d: routed a pair with no path", nw.Name(), stages, src, dst)
					case count[dst] > 0 && err != nil:
						t.Fatalf("%s n=%d %d->%d: %v", nw.Name(), stages, src, dst, err)
					case err == nil:
						ports := 0
						for _, hop := range p.Hops {
							ports = ports<<1 | hop.OutPort
						}
						if ports != first[dst] {
							t.Fatalf("%s n=%d %d->%d: ports %b, want the first path %b", nw.Name(), stages, src, dst, ports, first[dst])
						}
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s n=%d %d->%d: %v", nw.Name(), stages, src, dst, err)
				}
				link := src
				for s, hop := range p.Hops {
					if hop.Cell != link>>1 || hop.InPort != link&1 {
						t.Fatalf("%s n=%d %d->%d: hop %d at cell %d port %d, want link %d", nw.Name(), stages, src, dst, s, hop.Cell, hop.InPort, link)
					}
					if want := dst >> uint(tags[s]) & 1; hop.OutPort != want {
						t.Fatalf("%s n=%d %d->%d: stage %d port %d, want tag bit %d = %d", nw.Name(), stages, src, dst, s, hop.OutPort, tags[s], want)
					}
					link = hop.Cell<<1 | hop.OutPort
					if s < stages-1 {
						link = perms[s][link]
					}
				}
				if link != dst {
					t.Fatalf("%s n=%d %d->%d: path ends at %d", nw.Name(), stages, src, dst, link)
				}
			}
		}
	}
	for stages := 2; stages <= 7; stages++ {
		for _, name := range CatalogNames() {
			check(MustBuild(name, stages))
		}
	}
	for stages := 3; stages <= 5; stages++ {
		check(degenerateWiring(t, stages))
	}
	if !unreachable || !multi {
		t.Fatalf("golden coverage: unreachable=%v multi-path=%v, want both", unreachable, multi)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != routeGoldenPIPIDDigest {
		t.Fatalf("PIPID route golden digest %s, want %s", got, routeGoldenPIPIDDigest)
	}
}
