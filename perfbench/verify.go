package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"

	"minequiv/min"
)

// Output checks. Every op gets a quick check inline (status, framing,
// the equivalence verdict, the routed endpoints, the cache
// attribution); a seeded sample also gets a deep check after the timed
// window (iso maps verified against Baseline, routes and simulations
// compared to direct calls into the min façade). A failed check counts
// against error_rate like a failed request.

// Binary frame shapes, as fixed by the wire codec's version 1.
const (
	shapeCheckResponse    = 2
	shapeRouteResponse    = 4
	shapeSimulateResponse = 6
	shapeBatchResponse    = 8
	shapeJobResult        = 10
)

// Response mirrors of the JSON API.
type checkResp struct {
	Report min.Report       `json:"report"`
	Iso    *min.Isomorphism `json:"iso,omitempty"`
}

type routeResp struct {
	Network      string   `json:"network"`
	Path         min.Path `json:"path"`
	TagPositions []int    `json:"tagPositions,omitempty"`
}

type simResp struct {
	Model    string             `json:"model"`
	Wave     *min.WaveStats     `json:"wave,omitempty"`
	Buffered *min.BufferedStats `json:"buffered,omitempty"`
}

type batchResult struct {
	Status int
	Hit    bool
	Body   []byte
}

// quickCheck validates one 200 response and fills the cache
// attribution counts.
func quickCheck(o *op, rec *recorder, out *outcome) error {
	body := rec.body.Bytes()
	if o.bin != isFrame(body) {
		return fmt.Errorf("%s: response codec does not match the request's Accept", o.kind)
	}
	switch o.kind {
	case kindCheck, kindRoute:
		out.cacheable = 1
		if rec.h.Get("X-Cache") == "HIT" {
			out.hits = 1
		}
		if o.kind == kindRoute {
			r, err := decodeRoute(body, o.bin)
			if err != nil {
				return err
			}
			if r.Path.Src != o.route.Src || r.Path.Dst != o.route.Dst || len(r.Path.Hops) != o.route.Stages {
				return fmt.Errorf("route: got %d->%d in %d hops, want %d->%d in %d",
					r.Path.Src, r.Path.Dst, len(r.Path.Hops), o.route.Src, o.route.Dst, o.route.Stages)
			}
			return nil
		}
		c, err := decodeCheck(body, o.bin)
		if err != nil {
			return err
		}
		return checkVerdict(o.check, o.wantEquivalent, c)
	case kindBatch:
		items, err := decodeBatch(body, o.bin)
		if err != nil {
			return err
		}
		if len(items) != len(o.batch) {
			return fmt.Errorf("batch: %d responses for %d items", len(items), len(o.batch))
		}
		for i, it := range items {
			if it.Status != http.StatusOK {
				return fmt.Errorf("batch item %d: status %d", i, it.Status)
			}
			out.cacheable++
			if it.Hit {
				out.hits++
			}
			c, err := decodeCheck(it.Body, o.bin)
			if err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
			if err := checkVerdict(o.batch[i], o.wantEquivalent, c); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
	case kindSimulate, kindSimFault, kindBuffered:
		s, err := decodeSim(body, o.bin)
		if err != nil {
			return err
		}
		switch {
		case o.sim.Model == "buffered" && s.Buffered != nil:
			out.trials = s.Buffered.Replications
		case o.sim.Model != "buffered" && s.Wave != nil:
			out.trials = s.Wave.Waves
		default:
			return fmt.Errorf("%s: response of model %q", o.kind, s.Model)
		}
	}
	return nil
}

func checkVerdict(req *checkReq, want bool, c checkResp) error {
	if c.Report.Equivalent != want {
		return fmt.Errorf("check: equivalent=%v, the theorem says %v", c.Report.Equivalent, want)
	}
	if c.Report.Stages != req.Stages {
		return fmt.Errorf("check: stages %d, want %d", c.Report.Stages, req.Stages)
	}
	if req.Iso && want && c.Iso == nil {
		return errors.New("check: iso requested on an equivalent network but absent")
	}
	return nil
}

// deepCheck re-derives a sampled response through the min façade.
func deepCheck(o *op, resp []byte) error {
	switch o.kind {
	case kindCheck:
		c, err := decodeCheck(resp, o.bin)
		if err != nil {
			return err
		}
		if c.Iso == nil {
			return nil
		}
		nw, err := buildNet(o.spec(o.check.netSpec))
		if err != nil {
			return err
		}
		base, err := min.Build(min.Baseline, o.check.Stages)
		if err != nil {
			return err
		}
		if err := c.Iso.Verify(nw, base); err != nil {
			return fmt.Errorf("check: iso map fails Verify against baseline: %w", err)
		}
	case kindRoute:
		got, err := decodeRoute(resp, o.bin)
		if err != nil {
			return err
		}
		nw, err := buildNet(o.spec(o.route.netSpec))
		if err != nil {
			return err
		}
		var want min.Path
		if o.route.Faults != nil {
			want, err = min.RouteUnderFaults(nw, o.route.Src, o.route.Dst, *o.route.Faults)
		} else {
			want, err = min.Route(nw, o.route.Src, o.route.Dst)
		}
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Path, want) {
			return errors.New("route: path differs from a direct min.Route")
		}
	case kindSimulate, kindSimFault, kindBuffered:
		want, err := directSim(o.sim, o.bitOK)
		if err != nil {
			return err
		}
		if !o.bin {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), resp) {
				return fmt.Errorf("%s: response bytes differ from a direct min call", o.kind)
			}
			return nil
		}
		got, err := decodeSim(resp, true)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: binary response differs from a direct min call", o.kind)
		}
	}
	return nil
}

// directSim replays a simulate request through the façade with the
// server's defaults. On a bit-sliceable fabric at most 1024 waves the
// direct call forces the other kernel, so equal bytes also prove the
// bit and scalar kernels agree.
func directSim(req *simReq, bitOK bool) (simResp, error) {
	nw, err := buildNet(req.netSpec)
	if err != nil {
		return simResp{}, err
	}
	opts := simOptions(req)
	if req.Model == "buffered" {
		st, err := min.SimulateBuffered(context.Background(), nw, opts...)
		return simResp{Model: "buffered", Buffered: &st}, err
	}
	kernel := min.KernelAuto
	if bitOK && req.Waves <= 1024 {
		kernel = min.KernelScalar
	}
	st, err := min.Simulate(context.Background(), nw, append(opts, min.WithWaves(req.Waves), min.WithKernel(kernel))...)
	return simResp{Model: "wave", Wave: &st}, err
}

// simOptions maps a request to façade options the way the server does.
func simOptions(req *simReq) []min.Option {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opts := []min.Option{min.WithSeed(seed), min.WithWorkers(req.Workers)}
	if req.Faults != nil {
		opts = append(opts, min.WithFaults(*req.Faults))
	}
	if req.Scenario != "" {
		opts = append(opts, min.WithScenario(req.Scenario))
	}
	if req.Load != 0 {
		opts = append(opts, min.WithLoad(req.Load))
	}
	if req.HotProb != 0 || req.HotDst != 0 {
		opts = append(opts, min.WithHotspot(req.HotDst, req.HotProb))
	}
	if req.Model == "buffered" {
		opts = append(opts, min.WithReplications(max1(req.Replications)), min.WithQueue(req.Queue),
			min.WithLanes(max1(req.Lanes)), min.WithCycles(req.Cycles), min.WithWarmup(req.Warmup))
	}
	return opts
}

func max1(v int) int {
	if v == 0 {
		return 1
	}
	return v
}

func buildNet(s netSpec) (*min.Network, error) {
	if s.LinkPerms != nil {
		return min.FromLinkPerms(s.Network, s.Stages, s.LinkPerms)
	}
	return min.Build(s.Network, s.Stages)
}

// checkSweepResult checks a /result manifest: every cell present, none
// degraded, every trial run.
func checkSweepResult(o *op, result []byte) error {
	cells := o.sweep.cells()
	if o.bin {
		if _, err := openFrame(result, shapeJobResult); err != nil {
			return fmt.Errorf("sweep result: %w", err)
		}
		return nil
	}
	var res struct {
		Cells []struct {
			Trials int `json:"trials"`
		} `json:"cells"`
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(result, &res); err != nil {
		return fmt.Errorf("sweep result: %w", err)
	}
	if len(res.Cells) != cells || res.Degraded {
		return fmt.Errorf("sweep result: %d cells (want %d), degraded=%v", len(res.Cells), cells, res.Degraded)
	}
	for _, c := range res.Cells {
		if c.Trials != o.sweep.TrialsPerCell {
			return fmt.Errorf("sweep result: cell ran %d trials, want %d", c.Trials, o.sweep.TrialsPerCell)
		}
	}
	return nil
}

// --- response decoding --------------------------------------------------

func isFrame(b []byte) bool { return len(b) >= 8 && b[0] == 'M' && b[1] == 'B' }

func decodeCheck(b []byte, bin bool) (checkResp, error) {
	var c checkResp
	if !bin {
		return c, json.Unmarshal(b, &c)
	}
	f, err := openFrame(b, shapeCheckResponse)
	if err != nil {
		return c, err
	}
	c.Report.Network = f.str()
	c.Report.Stages = f.int()
	c.Report.Equivalent = f.bool()
	c.Report.Banyan = f.bool()
	c.Report.BanyanViolation = f.str()
	c.Report.Prefix = f.windows()
	c.Report.Suffix = f.windows()
	if f.bool() {
		c.Iso = &min.Isomorphism{Maps: f.perms()}
	}
	return c, f.finish()
}

func decodeRoute(b []byte, bin bool) (routeResp, error) {
	var r routeResp
	if !bin {
		return r, json.Unmarshal(b, &r)
	}
	f, err := openFrame(b, shapeRouteResponse)
	if err != nil {
		return r, err
	}
	r.Network = f.str()
	r.Path.Src = f.int()
	r.Path.Dst = f.int()
	if f.bool() {
		r.Path.Hops = make([]min.Hop, f.count())
		for i := range r.Path.Hops {
			r.Path.Hops[i] = min.Hop{Stage: f.int(), Cell: f.int(), InPort: f.int(), OutPort: f.int()}
		}
	}
	r.TagPositions = f.ints()
	return r, f.finish()
}

func decodeSim(b []byte, bin bool) (simResp, error) {
	var s simResp
	if !bin {
		return s, json.Unmarshal(b, &s)
	}
	f, err := openFrame(b, shapeSimulateResponse)
	if err != nil {
		return s, err
	}
	s.Model = f.str()
	if f.bool() {
		w := &min.WaveStats{}
		w.Network, w.Stages, w.Terminals, w.Scenario = f.str(), f.int(), f.int(), f.str()
		w.Waves, w.Seed = f.int(), f.u64()
		w.Offered, w.Delivered, w.Dropped, w.Misrouted, w.FaultDropped = f.int(), f.int(), f.int(), f.int(), f.int()
		w.Throughput = f.stat()
		s.Wave = w
	}
	if f.bool() {
		p := &min.BufferedStats{}
		p.Network, p.Stages, p.Terminals, p.Scenario = f.str(), f.int(), f.int(), f.str()
		p.Replications, p.Seed = f.int(), f.u64()
		p.Injected, p.Rejected, p.Delivered, p.Dropped = f.int(), f.int(), f.int(), f.int()
		p.FaultDropped, p.Misrouted, p.InFlight, p.MaxOccupancy = f.int(), f.int(), f.int(), f.int()
		p.Throughput, p.Latency = f.stat(), f.stat()
		p.LatencyP50, p.LatencyP95, p.LatencyP99 = f.stat(), f.stat(), f.stat()
		p.StageOccupancy = f.floats()
		s.Buffered = p
	}
	return s, f.finish()
}

func decodeBatch(b []byte, bin bool) ([]batchResult, error) {
	if !bin {
		var env struct {
			Responses []struct {
				Status int             `json:"status"`
				Cache  string          `json:"cache"`
				Body   json.RawMessage `json:"body"`
			} `json:"responses"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return nil, err
		}
		out := make([]batchResult, len(env.Responses))
		for i, r := range env.Responses {
			out[i] = batchResult{Status: r.Status, Hit: r.Cache == "hit", Body: r.Body}
		}
		return out, nil
	}
	f, err := openFrame(b, shapeBatchResponse)
	if err != nil {
		return nil, err
	}
	var out []batchResult
	if f.bool() {
		out = make([]batchResult, f.count())
		for i := range out {
			_ = f.str() // op
			out[i].Status = f.int()
			out[i].Hit = f.u64() == 2 // 0 none, 1 miss, 2 hit
			out[i].Body = f.bytes()
		}
	}
	return out, f.finish()
}

// frame reads one binary response frame: 'M' 'B' version shape, a
// little-endian u32 payload length, then uvarints, zigzag ints,
// little-endian float64s, one-byte bools and length-prefixed strings.
type frame struct {
	b   []byte
	off int
	err error
}

func openFrame(b []byte, shape byte) (*frame, error) {
	if !isFrame(b) || b[2] != 1 || b[3] != shape {
		return nil, fmt.Errorf("not a version-1 frame of shape %d", shape)
	}
	if n := binary.LittleEndian.Uint32(b[4:8]); int(n) != len(b)-8 {
		return nil, fmt.Errorf("frame length %d, body holds %d", n, len(b)-8)
	}
	return &frame{b: b, off: 8}, nil
}

func (f *frame) u64() uint64 {
	v, n := binary.Uvarint(f.b[f.off:])
	if n <= 0 {
		f.fail()
		return 0
	}
	f.off += n
	return v
}

func (f *frame) int() int { u := f.u64(); return int(int64(u>>1) ^ -int64(u&1)) }

func (f *frame) take(n int) []byte {
	if n < 0 || f.off+n > len(f.b) {
		f.fail()
		return nil
	}
	f.off += n
	return f.b[f.off-n : f.off]
}

func (f *frame) bool() bool {
	b := f.take(1)
	return len(b) == 1 && b[0] == 1
}

func (f *frame) f64() float64 {
	b := f.take(8)
	if len(b) < 8 {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (f *frame) count() int {
	n := f.u64()
	if n > uint64(len(f.b)) {
		f.fail()
		return 0
	}
	return int(n)
}

func (f *frame) str() string   { return string(f.take(f.count())) }
func (f *frame) bytes() []byte { return f.take(f.count()) }

func (f *frame) stat() min.Stat {
	return min.Stat{N: f.int(), Mean: f.f64(), Std: f.f64(), CI95: f.f64()}
}

func (f *frame) ints() []int {
	if !f.bool() {
		return nil
	}
	out := make([]int, f.count())
	for i := range out {
		out[i] = f.int()
	}
	return out
}

func (f *frame) floats() []float64 {
	if !f.bool() {
		return nil
	}
	out := make([]float64, f.count())
	for i := range out {
		out[i] = f.f64()
	}
	return out
}

func (f *frame) perms() [][]int {
	if !f.bool() {
		return nil
	}
	out := make([][]int, f.count())
	for i := range out {
		out[i] = f.ints()
	}
	return out
}

func (f *frame) windows() []min.WindowCheck {
	if !f.bool() {
		return nil
	}
	out := make([]min.WindowCheck, f.count())
	for i := range out {
		out[i] = min.WindowCheck{I: f.int(), J: f.int(), Components: f.int(), Expected: f.int(), OK: f.bool()}
	}
	return out
}

func (f *frame) fail() {
	if f.err == nil {
		f.err = errors.New("truncated or malformed frame")
	}
	f.off = len(f.b)
}

func (f *frame) finish() error {
	if f.err == nil && f.off != len(f.b) {
		f.err = errors.New("trailing bytes after frame payload")
	}
	return f.err
}
