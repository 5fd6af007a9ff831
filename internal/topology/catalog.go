package topology

import (
	"fmt"

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

// CatalogEntry describes one catalog network. min.NetworkInfo aliases
// it, so its JSON tags are the GET /v1/networks wire form.
type CatalogEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// catalog is the one table of the built-in networks, sorted by name:
// each one's name, description and per-stage index permutations.
var catalog = [...]struct {
	CatalogEntry
	indexPerms func(n int) []pipid.IndexPerm
}{
	{CatalogEntry{NameBaseline, "the Baseline network (recursive half-size definition)"}, BaselineIndexPerms},
	{CatalogEntry{NameFlip, "Batcher's Flip network from STARAN (inverse shuffle)"}, FlipIndexPerms},
	{CatalogEntry{NameIndirectCube, "Pease's indirect binary n-cube (ascending butterflies)"}, IndirectBinaryCubeIndexPerms},
	{CatalogEntry{NameModifiedDM, "Feng's modified data manipulator (descending butterflies)"}, ModifiedDataManipulatorIndexPerms},
	{CatalogEntry{NameOmega, "Lawrie's Omega network (perfect shuffle at every stage)"}, OmegaIndexPerms},
	{CatalogEntry{NameReverseBaseline, "Baseline with all arcs reversed (subshuffle stages)"}, ReverseBaselineIndexPerms},
}

// Build constructs a catalog network by name for n stages. The six
// catalog networks are the "classical" networks of Wu & Feng that the
// paper's main corollary proves equivalent.
func Build(name string, n int) (Network, error) {
	if n < 2 || n > midigraph.MaxStages {
		return Network{}, fmt.Errorf("topology: stage count %d out of range [2,%d]", n, midigraph.MaxStages)
	}
	for _, e := range catalog {
		if e.Name == name {
			return FromIndexPerms(name, n, e.indexPerms(n))
		}
	}
	return Network{}, fmt.Errorf("topology: unknown network %q (have %v)", name, Names())
}

// MustBuild is Build that panics on error, for test and example setup.
func MustBuild(name string, n int) Network {
	nw, err := Build(name, n)
	if err != nil {
		panic(err)
	}
	return nw
}

// Catalog lists the catalog networks in stable (name) order.
func Catalog() []CatalogEntry {
	out := make([]CatalogEntry, len(catalog))
	for i, e := range catalog {
		out[i] = e.CatalogEntry
	}
	return out
}

// Names lists the catalog names in stable order.
func Names() []string {
	names := make([]string, len(catalog))
	for i, e := range catalog {
		names[i] = e.Name
	}
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
