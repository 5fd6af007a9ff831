package jobs

import (
	"encoding/json"

	"minequiv/internal/engine"
)

// Stat is a cell's summary statistic, the one the serving layer
// reports for a single simulation too.
type Stat = engine.Stats

// CellResult is the finalized aggregate of one grid cell. Trials is
// the number actually aggregated; QuarantinedTrials counts trials
// lost to quarantined shards (Trials + QuarantinedTrials equals the
// spec's TrialsPerCell).
type CellResult struct {
	Network           string  `json:"network"`
	Stages            int     `json:"stages"`
	Load              float64 `json:"load"`
	FaultRate         float64 `json:"faultRate"`
	Trials            int     `json:"trials"`
	Offered           int64   `json:"offered"`
	Delivered         int64   `json:"delivered"`
	Dropped           int64   `json:"dropped"`
	Misrouted         int64   `json:"misrouted"`
	FaultDropped      int64   `json:"faultDropped"`
	Throughput        Stat    `json:"throughput"`
	QuarantinedTrials int     `json:"quarantinedTrials,omitempty"`
}

// QuarantinedShard reports one poison shard in a degraded result.
type QuarantinedShard struct {
	Shard  int    `json:"shard"`
	Cell   int    `json:"cell"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Reason string `json:"reason"`
}

// Result is the durable outcome of a job. Its JSON rendering is the
// byte-identity artifact: it is a pure function of (normalized spec,
// per-shard partials, quarantine set), marshaled from slices and
// structs only — no maps, no timestamps, no job ID — so an interrupted
// and resumed job renders the identical bytes an uninterrupted run
// would have.
type Result struct {
	Spec              Spec               `json:"spec"`
	Cells             []CellResult       `json:"cells"`
	Degraded          bool               `json:"degraded,omitempty"`
	QuarantinedShards []QuarantinedShard `json:"quarantinedShards,omitempty"`
}

// finalizeResult merges the per-shard partials cell by cell in shard
// index order and renders the result bytes. partials[s] is consulted
// only when done[s]; quarantined shards contribute their trial count
// to the cell's QuarantinedTrials instead.
func finalizeResult(g grid, done []bool, partials []engine.WavePartial, quarantined map[int]string) ([]byte, error) {
	res := Result{Spec: g.spec, Cells: make([]CellResult, 0, g.cells)}
	for c := 0; c < g.cells; c++ {
		cell := g.cell(c)
		var agg engine.WavePartial
		trials, lost := 0, 0
		for k := 0; k < g.shardsPerCell; k++ {
			s := c*g.shardsPerCell + k
			_, lo, hi := g.shard(s)
			if done[s] {
				agg.Merge(partials[s])
				trials += hi - lo
			} else {
				lost += hi - lo
			}
		}
		res.Cells = append(res.Cells, CellResult{
			Network:           cell.Network,
			Stages:            cell.Stages,
			Load:              cell.Load,
			FaultRate:         cell.FaultRate,
			Trials:            trials,
			Offered:           agg.Offered,
			Delivered:         agg.Delivered,
			Dropped:           agg.Dropped,
			Misrouted:         agg.Misrouted,
			FaultDropped:      agg.FaultDropped,
			Throughput:        agg.Throughput(),
			QuarantinedTrials: lost,
		})
	}
	for s := 0; s < g.shards; s++ {
		if reason, ok := quarantined[s]; ok {
			cell, lo, hi := g.shard(s)
			res.Degraded = true
			res.QuarantinedShards = append(res.QuarantinedShards, QuarantinedShard{
				Shard: s, Cell: cell.Index, Lo: lo, Hi: hi, Reason: reason,
			})
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
