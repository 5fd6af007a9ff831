package main

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minequiv/min"
	"minequiv/minserve"
)

// The traced run. Each op gets a root span; under it sit the handler
// span (the real request) and replay spans that redo the op's work
// through the public layer functions: minserve.EncodeBinaryRequest for
// the codec, min.Build / min.FromLinkPerms for topology, min.Check for
// the midigraph Analyzer sweep, min.Iso for equiv, min.Route and
// min.RouteUnderFaults for route, min.Simulate and min.SimulateBuffered
// for sim/engine. The replay runs after the handler returns, so a
// layer's share of the op is its replay span and the serving plane's
// own overhead is the handler span minus the op's compute replay.
// Cache hits replay no compute: the handler did none.

type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the op's root span
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the traced pass began
	End    int64  `json:"endNs"`
}

type tracer struct {
	start  time.Time
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []span
	// samples[name] holds per-op values of each per-layer timing.
	samples map[string][]float64
	// totals[name] accumulates work counts and their time, for per-unit
	// rates (ns per wave, ns per cycle).
	totals map[string]float64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), samples: map[string][]float64{}, totals: map[string]float64{}}
}

// opTrace collects one op's spans before they are merged.
type opTrace struct {
	tr      *tracer
	op      int64
	spans   []span
	samples map[string]float64
	totals  map[string]float64
	compute time.Duration // replayed façade time, for the overhead split
}

func (ot *opTrace) add(parent int, name string, start time.Time, d time.Duration) int {
	s := int64(start.Sub(ot.tr.start))
	ot.spans = append(ot.spans, span{Op: ot.op, ID: len(ot.spans), Parent: parent, Name: name, Start: s, End: s + int64(d)})
	return len(ot.spans) - 1
}

// timed runs f as a replay span under the root and returns its length.
func (ot *opTrace) timed(name string, compute bool, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	d := time.Since(start)
	ot.add(0, name, start, d)
	if compute {
		ot.compute += d
	}
	return d, err
}

func (ot *opTrace) sample(name string, v float64) { ot.samples[name] = v }
func (ot *opTrace) total(name string, v float64)  { ot.totals[name] += v }

// traceOp executes o with spans and replays its work.
func (tr *tracer) traceOp(t *target, o *op, results *sweepResults) outcome {
	ot := &opTrace{tr: tr, op: tr.nextOp.Add(1), samples: map[string]float64{}, totals: map[string]float64{}}
	rootStart := time.Now()
	ot.add(-1, "op."+o.kind, rootStart, 0)
	handlerStart := time.Now()
	res := t.exec(o, false, results)
	h := ot.add(0, "minserve.handler", handlerStart, res.latency)
	if o.kind == kindSweep {
		ot.add(h, "jobs.submit", handlerStart, res.submit)
		ot.sample("jobs.submit_us", us(res.submit))
	}
	if res.ok {
		ot.replay(o, &res)
		endpoint := o.endpoint
		if endpoint != "jobs" {
			ot.sample("minserve.overhead_us."+endpoint, us(res.latency-ot.compute))
		}
	}
	ot.spans[0].End = int64(time.Since(tr.start))

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, ot.spans...)
	for k, v := range ot.samples {
		tr.samples[k] = append(tr.samples[k], v)
	}
	for k, v := range ot.totals {
		tr.totals[k] += v
	}
	return res
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replay redoes o's work through the public layer functions.
func (ot *opTrace) replay(o *op, res *outcome) {
	if o.endpoint == "check" || o.endpoint == "route" || o.endpoint == "simulate" {
		body := o.jsonForm()
		d, _ := ot.timed("codec.transcode", false, func() error {
			_, err := minserve.EncodeBinaryRequest(o.endpoint, body)
			return err
		})
		ot.sample("codec.transcode_us."+o.endpoint, us(d))
	}
	switch o.kind {
	case kindCheck:
		if res.hits == 0 {
			ot.replayCheck(o.request().(*checkReq))
		}
	case kindBatch:
		if res.hits < res.cacheable {
			// Misses are rare here (a hot batch); replay every item so the
			// op's compute is never undercounted.
			for _, it := range o.batch {
				ot.replayCheck(it)
			}
		}
	case kindRoute:
		if res.hits == 0 {
			ot.replayRoute(o.request().(*routeReq))
		}
	case kindSimulate, kindSimFault, kindBuffered:
		ot.replaySim(o.sim, o.bitOK)
	case kindSweep:
		ot.replaySweepCell(o.sweep, int(ot.op))
	}
}

func (ot *opTrace) build(s netSpec) *min.Network {
	var nw *min.Network
	d, err := ot.timed("topology.build", true, func() (err error) {
		nw, err = buildNet(s)
		return err
	})
	if err != nil {
		return nil
	}
	ot.sample("topology.build_us", us(d))
	return nw
}

func (ot *opTrace) replayCheck(req *checkReq) {
	nw := ot.build(req.netSpec)
	if nw == nil {
		return
	}
	var rep min.Report
	d, _ := ot.timed("midigraph.check", true, func() error { rep = min.Check(nw); return nil })
	ot.sample("midigraph.check_us", us(d))
	if req.Iso && rep.Equivalent {
		d, _ := ot.timed("equiv.iso", true, func() error { _, err := min.Iso(nw); return err })
		ot.sample("equiv.iso_us", us(d))
	}
}

func (ot *opTrace) replayRoute(req *routeReq) {
	nw := ot.build(req.netSpec)
	if nw == nil {
		return
	}
	if req.Faults != nil && !req.Faults.Empty() {
		d, _ := ot.timed("route.faulty", true, func() error {
			_, err := min.RouteUnderFaults(nw, req.Src, req.Dst, *req.Faults)
			return err
		})
		ot.sample("route.faulty_us", us(d))
		return
	}
	d, _ := ot.timed("route.route", true, func() error {
		if _, err := min.Route(nw, req.Src, req.Dst); err != nil {
			return err
		}
		_, _ = min.TagPositions(nw) // the handler adds the schedule when PIPID
		return nil
	})
	ot.sample("route.route_us", us(d))
}

// replaySim runs the simulation twice on one fresh network: the first
// call compiles the fabric, the identical second runs warm. Their
// difference is the compile cost; the warm call is the kernel cost.
func (ot *opTrace) replaySim(req *simReq, bitOK bool) {
	nw := ot.build(req.netSpec)
	if nw == nil {
		return
	}
	opts := simOptions(req)
	run := func() error {
		if req.Model == "buffered" {
			_, err := min.SimulateBuffered(context.Background(), nw, opts...)
			return err
		}
		_, err := min.Simulate(context.Background(), nw, append(opts, min.WithWaves(req.Waves), min.WithKernel(min.KernelAuto))...)
		return err
	}
	ot.simPair(req.Stages, run, func(warm time.Duration) {
		if req.Model == "buffered" {
			ot.total("sim.buffered_ns", float64(warm))
			ot.total("sim.buffered_cycles", float64(max1(req.Replications)*(req.Cycles+req.Warmup)))
			return
		}
		ot.waveTotals(bitOK, warm, req.Waves)
	})
}

func (ot *opTrace) simPair(stages int, run func() error, warm func(time.Duration)) {
	first, err := ot.timed("sim.simulate", true, run)
	if err != nil {
		return
	}
	second, err := ot.timed("sim.simulate.warm", false, run)
	if err != nil {
		return
	}
	ot.sample("sim.compile_ms."+strconv.Itoa(stages), float64(first-second)/1e6)
	warm(second)
}

func (ot *opTrace) waveTotals(bitOK bool, warm time.Duration, waves int) {
	ot.total("sim.wave_ops", 1)
	if bitOK {
		ot.total("sim.bit_ops", 1)
		ot.total("sim.bit_ns", float64(warm))
		ot.total("sim.bit_waves", float64(waves))
	} else {
		ot.total("sim.scalar_ns", float64(warm))
		ot.total("sim.scalar_waves", float64(waves))
	}
}

// replaySweepCell replays one cell of a sweep, one shard's worth of
// trials, through min.Simulate: the same engine the job plane reaches
// through RunWaveRange.
func (ot *opTrace) replaySweepCell(s *sweepSpec, i int) {
	nw := ot.build(netSpec{Network: s.Networks[i%len(s.Networks)], Stages: s.Stages})
	if nw == nil {
		return
	}
	opts := []min.Option{
		min.WithSeed(s.Seed), min.WithScenario(s.Scenario), min.WithLoad(s.Loads[i%len(s.Loads)]),
		min.WithWaves(s.ShardTrials), min.WithKernel(min.KernelAuto),
	}
	if r := s.FaultRates[i%len(s.FaultRates)]; r > 0 {
		opts = append(opts, min.WithFaults(min.FaultPlan{SwitchDeadRate: r}))
	}
	run := func() error { _, err := min.Simulate(context.Background(), nw, opts...); return err }
	ot.simPair(s.Stages, run, func(warm time.Duration) { ot.waveTotals(true, warm, s.ShardTrials) })
}

// median of a metric's per-op samples; 0 when the workload has none.
func (tr *tracer) median(name string) float64 {
	v := append([]float64(nil), tr.samples[name]...)
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
