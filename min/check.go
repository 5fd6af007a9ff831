package min

import (
	"fmt"

	"minequiv/internal/conn"
	"minequiv/internal/equiv"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
)

// WindowCheck reports one P(i,j) window property: the window spanning
// the paper's 1-based stages i..j must have exactly 2^(n-1-(j-i))
// connected components. Field docs are on midigraph.WindowResult.
type WindowCheck = midigraph.WindowResult

// Report is the structured outcome of checking the paper's
// characterization on one network: the network is baseline-equivalent
// iff it is Banyan and every prefix window P(1,j) and suffix window
// P(i,n) holds. Field docs are on equiv.Report.
type Report = equiv.Report

// Check evaluates the paper's characterization theorem — the Banyan
// property plus the window families P(1,*) and P(*,n) — and returns the
// structured report. It takes the certified path first: Baseline
// labels read off the two window sweeps that carry every arc onto the
// Baseline prove the network equivalent, and then the report is fixed
// by the stage count. Only a network that fails the path pays for the
// full check, whose report says which condition fails.
func Check(nw *Network) Report {
	if equiv.Certify(nw.graph(), nil) {
		return equivalentReport(nw)
	}
	return checkReport(nw)
}

// checkReport is the report of the full characterization check: the
// union-find sweeps of both window families and the Banyan pass.
func checkReport(nw *Network) Report {
	rep := equiv.Check(nw.graph())
	rep.Network = nw.Name()
	return rep
}

// IsBaselineEquivalent is the headline predicate of the paper: Check's
// certified path, without the report.
func IsBaselineEquivalent(nw *Network) bool { return equiv.Certify(nw.graph(), nil) }

// CheckAllWindows evaluates every P(i,j) window, 1 <= i <= j <= n. The
// theorem only needs the prefix and suffix families Check reports; the
// full table is what the counterexample analysis inspects.
func CheckAllWindows(nw *Network) []WindowCheck { return nw.graph().CheckAllWindows() }

// Isomorphism is a stage-respecting node bijection between two networks
// with the same stage count: Maps[s][x] is the image of the stage-s
// switch cell x.
type Isomorphism struct {
	Maps [][]int `json:"maps"`
}

func fromInternalIso(iso equiv.Isomorphism) Isomorphism {
	maps := make([][]int, len(iso.Maps))
	for s, m := range iso.Maps {
		row := make([]int, m.N())
		for i, v := range m {
			row[i] = int(v)
		}
		maps[s] = row
	}
	return Isomorphism{Maps: maps}
}

// Verify checks that iso is a genuine isomorphism from a onto b: every
// per-stage map a bijection, every arc of a carried to an arc of b.
func (iso Isomorphism) Verify(a, b *Network) error {
	maps := make([]perm.Perm, len(iso.Maps))
	for s, m := range iso.Maps {
		row := make(perm.Perm, len(m))
		for i, v := range m {
			if v < 0 {
				return fmt.Errorf("min: stage %d map has negative entry %d", s, v)
			}
			row[i] = uint64(v)
		}
		maps[s] = row
	}
	return equiv.Isomorphism{Maps: maps}.Verify(a.graph(), b.graph())
}

// Iso constructs the explicit isomorphism from nw onto the Baseline
// network of the same size that the characterization theorem promises:
// the labels of Check's certified path, copied once. A network that
// fails the path gets equiv.IsoToBaseline's error, which carries the
// full check's report.
func Iso(nw *Network) (Isomorphism, error) {
	if iso, ok := certifiedIso(nw.graph()); ok {
		return *iso, nil
	}
	_, err := equiv.IsoToBaseline(nw.graph())
	return Isomorphism{}, err
}

// certifiedIso runs the certified path of Check and, when it
// certifies, copies the labels once into the isomorphism's maps.
func certifiedIso(g *midigraph.Graph) (*Isomorphism, bool) {
	var iso *Isomorphism
	ok := equiv.Certify(g, func(labels []uint64) {
		h := g.CellsPerStage()
		flat := make([]int, len(labels))
		for i, v := range labels {
			flat[i] = int(v)
		}
		iso = &Isomorphism{Maps: make([][]int, len(labels)/h)}
		for s := range iso.Maps {
			iso.Maps[s] = flat[s*h : (s+1)*h : (s+1)*h]
		}
	})
	return iso, ok
}

// CheckIso is Check plus, when the network is baseline-equivalent,
// the isomorphism Iso returns (nil otherwise). It runs Check's
// certified path once and builds the maps from its labels, so only a
// rejected network pays for the full check. The error is Iso's, for a
// network the full check calls equivalent that fails to certify, a
// contradiction of the theorem.
func CheckIso(nw *Network) (Report, *Isomorphism, error) {
	if iso, ok := certifiedIso(nw.graph()); ok {
		return equivalentReport(nw), iso, nil
	}
	rep := checkReport(nw)
	if rep.Equivalent {
		_, err := equiv.IsoToBaseline(nw.graph())
		return Report{}, nil, err
	}
	return rep, nil, nil
}

// equivalentReport is Check's report on a baseline-equivalent network:
// Banyan, and every window P(1,j) and P(i,n) with the component count
// it expects.
func equivalentReport(nw *Network) Report {
	g := nw.graph()
	n := g.Stages()
	rep := Report{
		Network: nw.Name(), Stages: n, Equivalent: true, Banyan: true,
		Prefix: make([]WindowCheck, n), Suffix: make([]WindowCheck, n),
	}
	for k := 1; k <= n; k++ {
		e := g.ExpectedComponents(1, k)
		rep.Prefix[k-1] = WindowCheck{I: 1, J: k, Components: e, Expected: e, OK: true}
		e = g.ExpectedComponents(k, n)
		rep.Suffix[k-1] = WindowCheck{I: k, J: n, Components: e, Expected: e, OK: true}
	}
	return rep
}

// IsoBetween constructs an isomorphism from a onto b. Both networks must
// be baseline-equivalent (the maps are composed through Baseline).
func IsoBetween(a, b *Network) (Isomorphism, error) {
	iso, err := equiv.IsoBetween(a.graph(), b.graph())
	if err != nil {
		return Isomorphism{}, err
	}
	return fromInternalIso(iso), nil
}

// Equivalent decides topological equivalence of two same-size networks.
// When both are baseline-equivalent (each decided as Check decides it)
// they are equivalent; when exactly one is they are not; when neither
// is, an exact backtracking search settles it for small networks (up to
// 6 stages) and an error is returned beyond that bound.
func Equivalent(a, b *Network) (bool, error) {
	return equiv.AreEquivalent(a.graph(), b.graph())
}

// EquivalentMatrix computes the full pairwise equivalence matrix of the
// given networks, sharding the per-network characterizations and the
// per-pair decisions across workers (<= 0 means GOMAXPROCS). Each
// network is characterized exactly once — not once per pair — and the
// result is deterministic for any worker count. The semantics per pair
// are those of Equivalent; the diagonal is true by reflexivity.
func EquivalentMatrix(nets []*Network, workers int) ([][]bool, error) {
	graphs := make([]*midigraph.Graph, len(nets))
	for i, nw := range nets {
		graphs[i] = nw.graph()
	}
	return equiv.PairwiseEquivalent(graphs, workers)
}

// IndependentStages reports whether every stage of a PIPID-defined
// network induces an independent connection — the §4 theorem's route
// from PIPID structure to baseline-equivalence. It errors on
// non-PIPID networks, where the notion does not apply stage-wise.
func IndependentStages(nw *Network) (bool, error) {
	if nw.topo.IndexPerms == nil {
		return false, fmt.Errorf("min: %s is not PIPID-defined", nw.Name())
	}
	for _, theta := range nw.topo.IndexPerms {
		if !conn.FromIndexPerm(theta).IsIndependent() {
			return false, nil
		}
	}
	return true, nil
}
