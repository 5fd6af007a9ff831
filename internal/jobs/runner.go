package jobs

import (
	"context"
	"fmt"
	"sync"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// Runner executes the trials [lo, hi) of one grid cell and returns
// their exact partial aggregate. A Runner must be a pure function of
// (cell, lo, hi): the scheduler re-invokes it on retry and after a
// crash, and the byte-identity contract assumes every invocation
// agrees. The manager's default is DefaultRunner; tests
// substitute wrappers that inject failures, stalls, and poison.
type Runner func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error)

// fabricCache memoizes compiled fabrics per (network, stages): every
// shard of a cell — and every cell sharing a topology — reuses one
// compiled link table instead of rebuilding it per shard.
type fabricCache struct {
	mu sync.Mutex
	m  map[string]*sim.Fabric
}

func (fc *fabricCache) get(network string, stages int) (*sim.Fabric, error) {
	key := fmt.Sprintf("%s|%d", network, stages)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if f, ok := fc.m[key]; ok {
		return f, nil
	}
	nw, err := topology.Build(network, stages)
	if err != nil {
		return nil, err
	}
	f, err := sim.NewFabric(nw.LinkPerms)
	if err != nil {
		return nil, err
	}
	if fc.m == nil {
		fc.m = map[string]*sim.Fabric{}
	}
	fc.m[key] = f
	return f, nil
}

// DefaultRunner returns the production Runner: it compiles (and
// caches) the cell's fabric, resolves the scenario at the cell's load
// through sim.Scenario.Traffic, the rule min.Simulate uses too, and
// hands the range to engine.RunWaveRange with the cell's derived seed
// root. Fabrics are shared across shards, and sim fabrics are safe for
// concurrent runners by construction.
func DefaultRunner() Runner {
	fc := &fabricCache{}
	return func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		f, err := fc.get(cell.Network, cell.Stages)
		if err != nil {
			return engine.WavePartial{}, err
		}
		sc, ok := sim.LookupScenario(cell.Scenario)
		if !ok {
			return engine.WavePartial{}, fmt.Errorf("jobs: unknown scenario %q", cell.Scenario)
		}
		params := sim.DefaultScenarioParams()
		params.Load = cell.Load
		pattern := sc.Traffic(params)
		cfg := engine.Config{Seed: cell.Seed}
		if err := cfg.Kernel.UnmarshalText([]byte(cell.Kernel)); err != nil {
			return engine.WavePartial{}, err
		}
		if cell.FaultRate > 0 {
			cfg.Faults = &sim.FaultPlan{SwitchDeadRate: cell.FaultRate}
		}
		return engine.RunWaveRange(ctx, f, pattern, lo, hi, cfg)
	}
}
