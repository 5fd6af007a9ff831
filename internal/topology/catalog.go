package topology

import (
	"fmt"
	"sort"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
)

// Network bundles a named MI-digraph with the definition it was built
// from, when a permutation-level definition exists.
type Network struct {
	Name       string
	Graph      *midigraph.Graph
	IndexPerms []pipid.IndexPerm // per-stage theta, nil when not PIPID-defined
	LinkPerms  []perm.Perm       // per-stage link permutation, nil when not permutation-defined
}

// FromIndexPerms builds a network from per-stage PIPID index
// permutations (one per inter-stage connection).
func FromIndexPerms(name string, n int, ips []pipid.IndexPerm) (Network, error) {
	if len(ips) != n-1 {
		return Network{}, fmt.Errorf("topology: want %d index perms for %d stages, got %d",
			n-1, n, len(ips))
	}
	lps := make([]perm.Perm, n-1)
	for s, ip := range ips {
		if ip.W() != n {
			return Network{}, fmt.Errorf("topology: stage %d theta on %d bits, want %d", s, ip.W(), n)
		}
		lps[s] = ip.ToPerm()
	}
	return Network{Name: name, Graph: midigraph.FromValidLinkPerms(lps), IndexPerms: ips, LinkPerms: lps}, nil
}

// FromLinkPerms builds a network from arbitrary per-stage link
// permutations; IndexPerms is populated for the stages that happen to be
// PIPID (all or nothing). Each of lps must already be a validated
// bijection on the 2^n link labels (min.FromLinkPerms checks its rows
// once, as it copies them); only their count is checked here, and
// midigraph.FromLinkPerms is the validating build.
func FromLinkPerms(name string, n int, lps []perm.Perm) (Network, error) {
	if len(lps) != n-1 {
		return Network{}, fmt.Errorf("topology: want %d link perms for %d stages, got %d",
			n-1, n, len(lps))
	}
	g := midigraph.FromValidLinkPerms(lps)
	ips := make([]pipid.IndexPerm, len(lps))
	allPIPID := true
	for s, lp := range lps {
		ip, ok := pipid.Detect(lp)
		if !ok {
			allPIPID = false
			break
		}
		ips[s] = ip
	}
	if !allPIPID {
		ips = nil
	}
	return Network{Name: name, Graph: g, IndexPerms: ips, LinkPerms: lps}, nil
}

// The canonical catalog names.
const (
	NameBaseline        = "baseline"
	NameReverseBaseline = "reverse-baseline"
	NameOmega           = "omega"
	NameFlip            = "flip"
	NameIndirectCube    = "indirect-binary-cube"
	NameModifiedDM      = "modified-data-manipulator"
)

// Build constructs a catalog network by name for n stages. The six names
// above are the "classical" networks of Wu & Feng that the paper's main
// corollary proves equivalent.
func Build(name string, n int) (Network, error) {
	if n < 2 || n > midigraph.MaxStages {
		return Network{}, fmt.Errorf("topology: stage count %d out of range [2,%d]", n, midigraph.MaxStages)
	}
	var ips []pipid.IndexPerm
	switch name {
	case NameBaseline:
		ips = BaselineIndexPerms(n)
	case NameReverseBaseline:
		ips = ReverseBaselineIndexPerms(n)
	case NameOmega:
		ips = OmegaIndexPerms(n)
	case NameFlip:
		ips = FlipIndexPerms(n)
	case NameIndirectCube:
		ips = IndirectBinaryCubeIndexPerms(n)
	case NameModifiedDM:
		ips = ModifiedDataManipulatorIndexPerms(n)
	default:
		return Network{}, fmt.Errorf("topology: unknown network %q (have %v)", name, Names())
	}
	return FromIndexPerms(name, n, ips)
}

// MustBuild is Build that panics on error, for test and example setup.
func MustBuild(name string, n int) Network {
	nw, err := Build(name, n)
	if err != nil {
		panic(err)
	}
	return nw
}

// Names lists the catalog names in stable order.
func Names() []string {
	names := []string{
		NameBaseline, NameReverseBaseline, NameOmega,
		NameFlip, NameIndirectCube, NameModifiedDM,
	}
	sort.Strings(names)
	return names
}

// BuildAll constructs every catalog network for n stages.
func BuildAll(n int) ([]Network, error) {
	var out []Network
	for _, name := range Names() {
		nw, err := Build(name, n)
		if err != nil {
			return nil, err
		}
		out = append(out, nw)
	}
	return out, nil
}
