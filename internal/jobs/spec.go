// Package jobs is minserve's resilient asynchronous job plane: it
// turns a sweep specification (networks × loads × fault rates, a fixed
// trial count per cell) into trial-index-preserving shards, runs the
// shards on a worker pool, and checkpoints every finished shard to an
// append-only CRC-framed log so that a crashed or SIGTERM'd server
// resumes the job and produces a result byte-identical to an
// uninterrupted run.
//
// The byte-identity contract rests on two facts. First, the engine
// derives every trial's random stream from (seed, trial index), so a
// shard is a pure function of (spec, shard index) — re-running it
// after a failed attempt, after a crash, or on a different worker
// yields the same engine.WavePartial. Second, partials are exact
// integer sums (engine.WavePartial), so merging them in shard-index
// order at finalize time is independent of execution history.
// Everything else in this package — retries, quarantine, the
// checkpoint log — only decides *whether* a shard result exists, never
// *what* it is.
package jobs

import (
	"fmt"
	"slices"
	"strings"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// Spec is a sweep specification: the full cross product of Networks ×
// Loads × FaultRates, each cell running TrialsPerCell wave trials of
// Scenario traffic through a Stages-stage fabric. The zero values of
// the optional fields normalize to a single intact, full-load, uniform
// sweep.
type Spec struct {
	Networks      []string  `json:"networks"`
	Stages        int       `json:"stages"`
	Loads         []float64 `json:"loads,omitempty"`
	FaultRates    []float64 `json:"faultRates,omitempty"` // switch-dead probability per cell; 0 = intact
	Scenario      string    `json:"scenario,omitempty"`
	Kernel        string    `json:"kernel,omitempty"`
	TrialsPerCell int       `json:"trialsPerCell"`
	Seed          uint64    `json:"seed,omitempty"`
	ShardTrials   int       `json:"shardTrials,omitempty"` // trials per shard; defaulted by the manager
}

// normalize fills defaults in place. It runs before validation and
// before the spec is persisted, so the stored spec — and therefore the
// result bytes derived from it — never depend on which optional fields
// the submitter spelled out.
func (s *Spec) normalize(defaultShardTrials int) {
	if len(s.Loads) == 0 {
		s.Loads = []float64{1}
	}
	if len(s.FaultRates) == 0 {
		s.FaultRates = []float64{0}
	}
	if s.Scenario == "" {
		s.Scenario = sim.DefaultScenario
	}
	if s.Kernel == "" {
		s.Kernel = engine.KernelAuto.String()
	}
	if s.Seed == 0 {
		s.Seed = engine.DefaultSeed
	}
	if s.ShardTrials <= 0 {
		s.ShardTrials = defaultShardTrials
	}
	if s.ShardTrials > s.TrialsPerCell && s.TrialsPerCell > 0 {
		s.ShardTrials = s.TrialsPerCell
	}
}

// validate checks a normalized spec against the catalog and basic
// bounds. Resource-policy limits (max trials, max cells) belong to the
// serving layer; the checks here are the ones that would make the
// sweep meaningless or unrunnable.
func (s Spec) validate() error {
	if len(s.Networks) == 0 {
		return fmt.Errorf("jobs: networks must name at least one topology")
	}
	for _, n := range s.Networks {
		if !slices.Contains(topology.Names(), n) {
			return fmt.Errorf("jobs: unknown network %q (known: %s)", n, strings.Join(topology.Names(), ", "))
		}
	}
	if s.Stages < 2 || s.Stages > sim.MaxFabricStages {
		return fmt.Errorf("jobs: stages must be in [2,%d], got %d", sim.MaxFabricStages, s.Stages)
	}
	if s.TrialsPerCell < 1 {
		return fmt.Errorf("jobs: trialsPerCell must be >= 1")
	}
	if _, ok := sim.LookupScenario(s.Scenario); !ok {
		return fmt.Errorf("jobs: unknown scenario %q (known: %s)", s.Scenario, strings.Join(sim.ScenarioNames(), ", "))
	}
	var k engine.Kernel
	if err := k.UnmarshalText([]byte(s.Kernel)); err != nil {
		return err
	}
	for _, l := range s.Loads {
		if l <= 0 || l > 1 {
			return fmt.Errorf("jobs: load %v out of (0, 1]", l)
		}
	}
	for _, r := range s.FaultRates {
		if r < 0 || r >= 1 {
			return fmt.Errorf("jobs: fault rate %v out of [0, 1)", r)
		}
	}
	return nil
}

// Cells returns the number of grid cells a normalized spec spans.
func (s Spec) Cells() int {
	return len(s.Networks) * len(s.Loads) * len(s.FaultRates)
}

// Cell identifies one grid cell plus the seed root its trials draw
// from. The root is derived from (spec seed, cell index) through the
// same splitmix64 expansion the engine uses for trial streams, so
// cells are decorrelated from each other and from any direct use of
// the spec seed.
type Cell struct {
	Index     int
	Network   string
	Stages    int
	Load      float64
	FaultRate float64
	Scenario  string
	Kernel    string
	Seed      uint64
}

// grid is the shard geometry of a normalized spec: cells ordered
// networks-major (network, then load, then fault rate), each cell cut
// into ceil(trials/shardTrials) contiguous trial ranges. Shard s maps
// to cell s/shardsPerCell, range k = s%shardsPerCell covering trials
// [k·shardTrials, min(trials, (k+1)·shardTrials)).
type grid struct {
	spec          Spec
	cells         int
	shardsPerCell int
	shards        int
}

func newGrid(spec Spec) grid {
	spc := (spec.TrialsPerCell + spec.ShardTrials - 1) / spec.ShardTrials
	c := spec.Cells()
	return grid{spec: spec, cells: c, shardsPerCell: spc, shards: c * spc}
}

// cell resolves cell index c to its coordinates and seed root.
func (g grid) cell(c int) Cell {
	nl, nf := len(g.spec.Loads), len(g.spec.FaultRates)
	root, _ := engine.SeedPair(g.spec.Seed, uint64(c))
	return Cell{
		Index:     c,
		Network:   g.spec.Networks[c/(nl*nf)],
		Stages:    g.spec.Stages,
		Load:      g.spec.Loads[(c/nf)%nl],
		FaultRate: g.spec.FaultRates[c%nf],
		Scenario:  g.spec.Scenario,
		Kernel:    g.spec.Kernel,
		Seed:      root,
	}
}

// shard resolves shard index s to its cell and trial range.
func (g grid) shard(s int) (Cell, int, int) {
	c := s / g.shardsPerCell
	k := s % g.shardsPerCell
	lo := k * g.spec.ShardTrials
	hi := lo + g.spec.ShardTrials
	if hi > g.spec.TrialsPerCell {
		hi = g.spec.TrialsPerCell
	}
	return g.cell(c), lo, hi
}
