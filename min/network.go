package min

import (
	"fmt"
	"sync"

	"minequiv/internal/ascii"
	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// The classical catalog names — the six networks of Wu & Feng that the
// paper's main corollary proves pairwise baseline-equivalent — plus the
// tail-cycle counterexample reachable through TailCycle.
const (
	Baseline        = topology.NameBaseline
	ReverseBaseline = topology.NameReverseBaseline
	Omega           = topology.NameOmega
	Flip            = topology.NameFlip
	IndirectCube    = topology.NameIndirectCube
	ModifiedDM      = topology.NameModifiedDM
)

// MaxStages bounds the stage count of every constructor.
const MaxStages = midigraph.MaxStages

// NetworkInfo describes one catalog entry.
type NetworkInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

var catalogInfo = map[string]string{
	Baseline:        "the Baseline network (recursive half-size definition)",
	ReverseBaseline: "Baseline with all arcs reversed (subshuffle stages)",
	Omega:           "Lawrie's Omega network (perfect shuffle at every stage)",
	Flip:            "Batcher's Flip network from STARAN (inverse shuffle)",
	IndirectCube:    "Pease's indirect binary n-cube (ascending butterflies)",
	ModifiedDM:      "Feng's modified data manipulator (descending butterflies)",
}

// Catalog lists the built-in networks in stable order.
func Catalog() []NetworkInfo {
	names := topology.Names()
	out := make([]NetworkInfo, len(names))
	for i, name := range names {
		out[i] = NetworkInfo{Name: name, Description: catalogInfo[name]}
	}
	return out
}

// CatalogNames lists the built-in network names in stable order.
func CatalogNames() []string { return topology.Names() }

// Network is an n-stage multistage interconnection network on 2^n input
// and 2^n output terminals, with 2x2 switches. The zero value is not
// usable; obtain one from Build, FromLinkPerms, FromIndexPerms,
// TailCycle, or a Builder. A Network is immutable and safe for
// concurrent use; the simulation fabric it compiles on the first
// Simulate or SimulateBuffered is shared.
type Network struct {
	topo topology.Network

	fabricOnce sync.Once
	fabric     *sim.Fabric
	fabricErr  error
}

func newNetwork(t topology.Network) *Network { return &Network{topo: t} }

// Build constructs a catalog network by name with the given stage count
// (stages in [2, MaxStages]; the network has 2^stages terminals).
func Build(name string, stages int) (*Network, error) {
	t, err := topology.Build(name, stages)
	if err != nil {
		return nil, err
	}
	return newNetwork(t), nil
}

// MustBuild is Build that panics on error, for examples and tests.
func MustBuild(name string, stages int) *Network {
	nw, err := Build(name, stages)
	if err != nil {
		panic(err)
	}
	return nw
}

// TailCycle builds the paper's tail-cycle counterexample: a Banyan
// network (full unique-path reachability) that still is NOT
// baseline-equivalent, because the last connection's cycle breaks the
// P(i,n) window family. Requires stages >= 3.
func TailCycle(stages int) (*Network, error) {
	perms, err := randnet.TailCycleLinkPerms(stages)
	if err != nil {
		return nil, err
	}
	g, err := midigraph.FromLinkPerms(stages, perms)
	if err != nil {
		return nil, err
	}
	return newNetwork(topology.Network{Name: "tail-cycle", Graph: g, LinkPerms: perms}), nil
}

// FromLinkPerms builds a network from explicit per-stage link
// permutations: perms[s][x] is the inlink of stage s+1 wired to outlink
// x of stage s. There must be stages-1 of them, each a permutation of
// {0..2^stages-1}. PIPID structure is detected automatically, giving the
// network a destination-tag schedule (TagPositions) when present.
func FromLinkPerms(name string, stages int, perms [][]int) (*Network, error) {
	if stages < 2 || stages > MaxStages {
		return nil, fmt.Errorf("min: stage count %d out of range [2,%d]", stages, MaxStages)
	}
	if len(perms) != stages-1 {
		return nil, fmt.Errorf("min: want %d link permutations for %d stages, got %d",
			stages-1, stages, len(perms))
	}
	lps := make([]perm.Perm, len(perms))
	for s, p := range perms {
		lp := make(perm.Perm, len(p))
		for i, v := range p {
			if v < 0 {
				return nil, fmt.Errorf("min: stage %d permutation has negative entry %d", s, v)
			}
			lp[i] = uint64(v)
		}
		if err := lp.Validate(); err != nil {
			return nil, fmt.Errorf("min: stage %d: %w", s, err)
		}
		if lp.N() != 1<<uint(stages) {
			return nil, fmt.Errorf("min: stage %d permutation on %d symbols, want %d",
				s, lp.N(), 1<<uint(stages))
		}
		lps[s] = lp
	}
	t, err := topology.FromLinkPerms(name, stages, lps)
	if err != nil {
		return nil, err
	}
	return newNetwork(t), nil
}

// FromIndexPerms builds a PIPID network from explicit per-stage index
// permutations: thetas[s] maps bit positions of the link label, with
// thetas[s][j] the source position of output bit j. There must be
// stages-1 of them, each a permutation of {0..stages-1}.
func FromIndexPerms(name string, stages int, thetas [][]int) (*Network, error) {
	if stages < 2 || stages > MaxStages {
		return nil, fmt.Errorf("min: stage count %d out of range [2,%d]", stages, MaxStages)
	}
	if len(thetas) != stages-1 {
		return nil, fmt.Errorf("min: want %d index permutations for %d stages, got %d",
			stages-1, stages, len(thetas))
	}
	ips := make([]pipid.IndexPerm, len(thetas))
	for s, th := range thetas {
		ip, err := pipid.New(append([]int(nil), th...))
		if err != nil {
			return nil, fmt.Errorf("min: stage %d: %w", s, err)
		}
		if ip.W() != stages {
			return nil, fmt.Errorf("min: stage %d theta on %d bits, want %d", s, ip.W(), stages)
		}
		ips[s] = ip
	}
	t, err := topology.FromIndexPerms(name, stages, ips)
	if err != nil {
		return nil, err
	}
	return newNetwork(t), nil
}

// Name returns the network's name.
func (nw *Network) Name() string { return nw.topo.Name }

// Stages returns the number of switch stages n.
func (nw *Network) Stages() int { return nw.topo.Graph.Stages() }

// Terminals returns the number of input (= output) terminals, 2^n.
func (nw *Network) Terminals() int { return nw.topo.Graph.Terminals() }

// CellsPerStage returns the number of 2x2 switches per stage, 2^(n-1).
func (nw *Network) CellsPerStage() int { return nw.topo.Graph.CellsPerStage() }

// IsPIPID reports whether every stage is an index-digit permutation, the
// precondition for the paper's §4 bit-directed routing.
func (nw *Network) IsPIPID() bool { return nw.topo.IndexPerms != nil }

// LinkPerms returns a copy of the per-stage link permutations.
func (nw *Network) LinkPerms() [][]int {
	out := make([][]int, len(nw.topo.LinkPerms))
	for s, lp := range nw.topo.LinkPerms {
		row := make([]int, lp.N())
		for i, v := range lp {
			row[i] = int(v)
		}
		out[s] = row
	}
	return out
}

// IndexPerms returns a copy of the per-stage index permutations (thetas)
// and true when the network is PIPID-defined, or nil and false.
func (nw *Network) IndexPerms() ([][]int, bool) {
	if nw.topo.IndexPerms == nil {
		return nil, false
	}
	out := make([][]int, len(nw.topo.IndexPerms))
	for s, ip := range nw.topo.IndexPerms {
		out[s] = append([]int(nil), ip.Theta...)
	}
	return out, true
}

// graph exposes the MI-digraph to the façade's own files.
func (nw *Network) graph() *midigraph.Graph { return nw.topo.Graph }

// Fingerprint returns the network's canonical arc hash: a 64-bit FNV-1a
// digest of the stage count and every stage's ordered child arrays.
// Two networks have the same fingerprint exactly when they have
// identical wiring (same arcs, same (f,g) slot order), regardless of
// how they were constructed — catalog name, link permutations, index
// permutations, or a Builder all hash the arcs they produce. It is a
// structural identity, not an isomorphism invariant.
func (nw *Network) Fingerprint() uint64 {
	g := nw.topo.Graph
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			hash ^= (v >> uint(shift)) & 0xff
			hash *= prime64
		}
	}
	mix(uint64(g.Stages()))
	for s := 0; s < g.Stages()-1; s++ {
		for _, c := range g.ChildSlice(s) {
			mix(uint64(c))
		}
	}
	return hash
}

// compiledFabric lazily compiles the simulation fabric (routing tables)
// once per Network. Only the simulators call it; routing validates
// fault plans by shape and never needs the fabric.
func (nw *Network) compiledFabric() (*sim.Fabric, error) {
	nw.fabricOnce.Do(func() {
		nw.fabric, nw.fabricErr = sim.NewFabric(nw.topo.LinkPerms)
	})
	return nw.fabric, nw.fabricErr
}

// DrawOptions controls Draw's text rendering.
type DrawOptions struct {
	Tuples   bool   // print labels as binary tuples (the paper's Fig 2 style)
	OneBased bool   // number stages 1..n as the paper does
	Title    string // optional heading
}

// Draw renders the network stage by stage as plain text: each line shows
// a switch cell and its ordered children in the next stage.
func (nw *Network) Draw(opt DrawOptions) string {
	return ascii.Network(nw.topo.Graph, ascii.Options{
		Tuples: opt.Tuples, OneBased: opt.OneBased, Title: opt.Title,
	})
}
