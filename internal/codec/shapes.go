package codec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"minequiv/internal/jobs"
	"minequiv/min"
)

// The wire shapes. These are the single source of truth for the hot
// request/response bodies: minserve aliases them, so the JSON tags
// here ARE the JSON API (byte-for-byte, including field order and
// omitempty), and the binary payload layout below is their second
// rendering. Both codecs round-trip the same struct values. The shapes
// nested in them are declared once, with their JSON tags, in the
// package that computes them, and reach this file through min's
// aliases: the characterization report is equiv.Report and its
// windows midigraph.WindowResult, the simulation results are
// engine.WaveStats and engine.BufferedStats with the summary statistic
// engine.Stats, the fault plan is sim.FaultPlan (its binary kind tag is
// the sim.FaultKind value), and the routed path route.Path.
//
// A shape's binary layout is its walk (the layouts section below):
// each shape and nested shape has one function over the coder that
// lists its fields in wire order, and both Encode and Decode run it.
// Adding, reordering or making a field nillable is one edit to one
// walk; the ABI golden (TestABI) then says whether the wire moved.

// NetworkSpec names or defines the network a request operates on:
// either a catalog name (or "tail-cycle") with a stage count, or
// explicit per-stage permutations.
type NetworkSpec struct {
	Network    string  `json:"network,omitempty"`
	Stages     int     `json:"stages"`
	LinkPerms  [][]int `json:"linkPerms,omitempty"`
	IndexPerms [][]int `json:"indexPerms,omitempty"`
}

// CheckRequest asks for the characterization report of one network;
// with Iso true the explicit isomorphism onto Baseline is included
// (only present when the network is equivalent).
type CheckRequest struct {
	NetworkSpec
	Iso bool `json:"iso,omitempty"`
}

// CheckResponse is the /v1/check body.
type CheckResponse struct {
	Report min.Report       `json:"report"`
	Iso    *min.Isomorphism `json:"iso,omitempty"`
}

// RouteRequest asks for one routed path.
type RouteRequest struct {
	NetworkSpec
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Faults degrades the fabric: the route then avoids the plan's
	// pinned dead/stuck switches and severed links (random rates are
	// rejected — routing has no trial to sample them in).
	Faults *min.FaultPlan `json:"faults,omitempty"`
}

// RouteResponse is the /v1/route body.
type RouteResponse struct {
	Network string   `json:"network"`
	Path    min.Path `json:"path"`
	// TagPositions is the bit-directed routing schedule, present for
	// PIPID-defined networks.
	TagPositions []int `json:"tagPositions,omitempty"`
}

// SimulateRequest runs the wave model (default) or the buffered
// model. Zero-valued tunables take the min package defaults
// (min.DefaultWaves, DefaultReplications, DefaultQueue, DefaultLanes,
// DefaultCycles and DefaultWarmup, resolved before the server's limits
// are checked); Seed defaults to min.DefaultSeed so unseeded requests
// are reproducible too.
type SimulateRequest struct {
	NetworkSpec
	Model    string  `json:"model,omitempty"` // "wave" (default) or "buffered"
	Scenario string  `json:"scenario,omitempty"`
	Load     float64 `json:"load,omitempty"`
	HotDst   int     `json:"hotDst,omitempty"`
	HotProb  float64 `json:"hotProb,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Workers  int     `json:"workers,omitempty"`
	// Faults degrades the fabric for the run: pinned faults hold for
	// every trial, random rates are redrawn per trial; the response
	// stays a pure function of the request body.
	Faults *min.FaultPlan `json:"faults,omitempty"`

	// Wave-model fields. Kernel selects the executor ("auto" default,
	// "scalar", "bit"); kernels are byte-identical per (seed, trial)
	// stream, so responses never depend on the choice.
	Waves  int    `json:"waves,omitempty"`
	Kernel string `json:"kernel,omitempty"`

	Replications int    `json:"replications,omitempty"` // buffered model
	Queue        int    `json:"queue,omitempty"`
	Lanes        int    `json:"lanes,omitempty"`
	Cycles       int    `json:"cycles,omitempty"`
	Warmup       int    `json:"warmup,omitempty"`
	Arbiter      string `json:"arbiter,omitempty"`
	LaneSelect   string `json:"laneSelect,omitempty"`
}

// SimulateResponse is the /v1/simulate body.
type SimulateResponse struct {
	Model    string             `json:"model"`
	Wave     *min.WaveStats     `json:"wave,omitempty"`
	Buffered *min.BufferedStats `json:"buffered,omitempty"`
}

// BatchItem is one batch sub-request: the operation and its verbatim
// single-endpoint request body. Raw bytes are preserved (not
// re-marshalled) so the response cache, keyed by request bytes, sees
// exactly what a single call would send. Bin marks the payload codec inside a binary
// envelope; the JSON envelope can only carry JSON payloads, so it has
// no wire rendering there.
type BatchItem struct {
	Op      string          `json:"op"` // "check", "route" or "simulate"
	Request json.RawMessage `json:"request"`
	Bin     bool            `json:"-"`
}

// BatchRequest is the /v1/batch envelope.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// Cache-attribution values of a BatchResult.
const (
	CacheNone = 0 // op carries no attribution (simulate), or an error
	CacheMiss = 1
	CacheHit  = 2
)

// BatchResult is one positional sub-response of a binary batch
// envelope; Body is the verbatim single-endpoint response (a binary
// frame, or a JSON error envelope — errors are always JSON).
type BatchResult struct {
	Op     string
	Status int
	Cache  uint8 // CacheNone/CacheMiss/CacheHit
	Body   []byte
}

// BatchResponse is the binary /v1/batch response envelope.
type BatchResponse struct {
	Responses []BatchResult
}

// JobSpec and JobResult give the job plane's sweep spec and result
// manifest their binary rendering; the structs (and their JSON form)
// live with the scheduler.
type (
	JobSpec   = jobs.Spec
	JobResult = jobs.Result
)

// --- layouts --------------------------------------------------------
//
// One walk per shape and nested shape (see above). shape is the one
// dispatch table: the only place a shape id meets its Go type.

// shape runs v's walk inside a frame of its shape id, found by v's
// pointer type.
func (c *coder) shape(v any) error {
	switch v := v.(type) {
	case *CheckRequest:
		return frame(c, ShapeCheckRequest, v, (*coder).checkRequest)
	case *CheckResponse:
		return frame(c, ShapeCheckResponse, v, (*coder).checkResponse)
	case *RouteRequest:
		return frame(c, ShapeRouteRequest, v, (*coder).routeRequest)
	case *RouteResponse:
		return frame(c, ShapeRouteResponse, v, (*coder).routeResponse)
	case *SimulateRequest:
		return frame(c, ShapeSimulateRequest, v, (*coder).simulateRequest)
	case *SimulateResponse:
		return frame(c, ShapeSimulateResponse, v, (*coder).simulateResponse)
	case *BatchRequest:
		return frame(c, ShapeBatchRequest, v, (*coder).batchRequest)
	case *BatchResponse:
		return frame(c, ShapeBatchResponse, v, (*coder).batchResponse)
	case *JobSpec:
		return frame(c, ShapeJobSpec, v, (*coder).jobSpec)
	case *JobResult:
		return frame(c, ShapeJobResult, v, (*coder).jobResult)
	}
	if c.dec {
		return fmt.Errorf("codec: cannot decode into %T", v)
	}
	return fmt.Errorf("codec: cannot encode %T", v)
}

//minlint:hotpath
func (c *coder) networkSpec(v *NetworkSpec) {
	c.str(&v.Network)
	c.int(&v.Stages)
	c.perms(&v.LinkPerms)
	c.perms(&v.IndexPerms)
}

//minlint:hotpath
func (c *coder) faultPlan(v *min.FaultPlan) {
	slice(c, &v.Faults, (*coder).faults)
	c.f64(&v.SwitchDeadRate)
	c.f64(&v.SwitchStuckRate)
	c.f64(&v.LinkDownRate)
}

// faults is a fault plan's hot loop, one per direction: the kind tag,
// then stage, cell and link.
//
//minlint:hotpath
func (c *coder) faults(s []min.Fault) {
	if !c.dec {
		buf := c.buf
		for i := range s {
			f := &s[i]
			buf = binary.AppendUvarint(buf, uint64(f.Kind))
			buf = appendInt(buf, f.Stage)
			buf = appendInt(buf, f.Cell)
			buf = appendInt(buf, f.Link)
		}
		c.buf = buf
		return
	}
	for i := range s {
		s[i] = min.Fault{Kind: c.faultKind(), Stage: c.getInt(), Cell: c.getInt(), Link: c.getInt()}
	}
}

// faultKind reads a fault-kind tag, the sim.FaultKind value; a tag
// outside the four kinds fails the frame.
//
//minlint:hotpath
func (c *coder) faultKind() min.FaultKind {
	tag := c.getU64()
	if tag < uint64(min.SwitchDead) || tag > uint64(min.LinkDown) {
		c.fail(ErrValue)
		return 0
	}
	return min.FaultKind(tag)
}

//minlint:hotpath
func (c *coder) stat(v *min.Stat) {
	c.int(&v.N)
	c.f64(&v.Mean)
	c.f64(&v.Std)
	c.f64(&v.CI95)
}

// windows is a report's window loop, one per direction: i, j, the
// component count, the expected count, then the verdict.
//
//minlint:hotpath
func (c *coder) windows(s []min.WindowCheck) {
	for i := range s {
		w := &s[i]
		if c.dec {
			w.I, w.J, w.Components, w.Expected = c.getInt(), c.getInt(), c.getInt(), c.getInt()
		} else {
			c.putInt(w.I)
			c.putInt(w.J)
			c.putInt(w.Components)
			c.putInt(w.Expected)
		}
		c.bool(&w.OK)
	}
}

// hops is a path's hop loop, one per direction: stage, cell, input
// port, output port.
//
//minlint:hotpath
func (c *coder) hops(s []min.Hop) {
	if !c.dec {
		for i := range s {
			h := &s[i]
			c.putInt(h.Stage)
			c.putInt(h.Cell)
			c.putInt(h.InPort)
			c.putInt(h.OutPort)
		}
		return
	}
	for i := range s {
		s[i] = min.Hop{Stage: c.getInt(), Cell: c.getInt(), InPort: c.getInt(), OutPort: c.getInt()}
	}
}

//minlint:hotpath
func (c *coder) checkRequest(v *CheckRequest) {
	c.networkSpec(&v.NetworkSpec)
	c.bool(&v.Iso)
}

//minlint:hotpath
func (c *coder) checkResponse(v *CheckResponse) {
	r := &v.Report
	c.str(&r.Network)
	c.int(&r.Stages)
	c.bool(&r.Equivalent)
	c.bool(&r.Banyan)
	c.str(&r.BanyanViolation)
	slice(c, &r.Prefix, (*coder).windows)
	slice(c, &r.Suffix, (*coder).windows)
	ptr(c, &v.Iso, (*coder).isomorphism)
}

//minlint:hotpath
func (c *coder) isomorphism(v *min.Isomorphism) { c.perms(&v.Maps) }

//minlint:hotpath
func (c *coder) routeRequest(v *RouteRequest) {
	c.networkSpec(&v.NetworkSpec)
	c.int(&v.Src)
	c.int(&v.Dst)
	ptr(c, &v.Faults, (*coder).faultPlan)
}

//minlint:hotpath
func (c *coder) routeResponse(v *RouteResponse) {
	c.str(&v.Network)
	c.int(&v.Path.Src)
	c.int(&v.Path.Dst)
	slice(c, &v.Path.Hops, (*coder).hops)
	c.ints(&v.TagPositions)
}

//minlint:hotpath
func (c *coder) simulateRequest(v *SimulateRequest) {
	c.networkSpec(&v.NetworkSpec)
	c.str(&v.Model)
	c.str(&v.Scenario)
	c.f64(&v.Load)
	c.int(&v.HotDst)
	c.f64(&v.HotProb)
	c.u64(&v.Seed)
	c.int(&v.Workers)
	ptr(c, &v.Faults, (*coder).faultPlan)
	c.int(&v.Waves)
	c.str(&v.Kernel)
	c.int(&v.Replications)
	c.int(&v.Queue)
	c.int(&v.Lanes)
	c.int(&v.Cycles)
	c.int(&v.Warmup)
	c.str(&v.Arbiter)
	c.str(&v.LaneSelect)
}

//minlint:hotpath
func (c *coder) simulateResponse(v *SimulateResponse) {
	c.str(&v.Model)
	ptr(c, &v.Wave, (*coder).waveStats)
	ptr(c, &v.Buffered, (*coder).bufferedStats)
}

//minlint:hotpath
func (c *coder) waveStats(v *min.WaveStats) {
	c.str(&v.Network)
	c.int(&v.Stages)
	c.int(&v.Terminals)
	c.str(&v.Scenario)
	c.int(&v.Waves)
	c.u64(&v.Seed)
	c.int(&v.Offered)
	c.int(&v.Delivered)
	c.int(&v.Dropped)
	c.int(&v.Misrouted)
	c.int(&v.FaultDropped)
	c.stat(&v.Throughput)
}

//minlint:hotpath
func (c *coder) bufferedStats(v *min.BufferedStats) {
	c.str(&v.Network)
	c.int(&v.Stages)
	c.int(&v.Terminals)
	c.str(&v.Scenario)
	c.int(&v.Replications)
	c.u64(&v.Seed)
	c.int(&v.Injected)
	c.int(&v.Rejected)
	c.int(&v.Delivered)
	c.int(&v.Dropped)
	c.int(&v.FaultDropped)
	c.int(&v.Misrouted)
	c.int(&v.InFlight)
	c.int(&v.MaxOccupancy)
	c.stat(&v.Throughput)
	c.stat(&v.Latency)
	c.stat(&v.LatencyP50)
	c.stat(&v.LatencyP95)
	c.stat(&v.LatencyP99)
	c.floats(&v.StageOccupancy)
}

// batchRequest's item payloads alias the input buffer when decoded.
//
//minlint:hotpath
func (c *coder) batchRequest(v *BatchRequest) { slice(c, &v.Requests, (*coder).batchItems) }

//minlint:hotpath
func (c *coder) batchItems(s []BatchItem) {
	for i := range s {
		it := &s[i]
		c.str(&it.Op)
		c.bool(&it.Bin)
		c.bytes((*[]byte)(&it.Request))
	}
}

// batchResponse's sub-bodies alias the input buffer when decoded.
//
//minlint:hotpath
func (c *coder) batchResponse(v *BatchResponse) { slice(c, &v.Responses, (*coder).batchResults) }

//minlint:hotpath
func (c *coder) batchResults(s []BatchResult) {
	for i := range s {
		r := &s[i]
		c.str(&r.Op)
		c.int(&r.Status)
		c.cache(&r.Cache)
		c.bytes(&r.Body)
	}
}

// cache is a BatchResult's cache attribution; decoding a tag past
// CacheHit fails the frame.
//
//minlint:hotpath
func (c *coder) cache(p *uint8) {
	tag := uint64(*p)
	if c.u64(&tag); c.dec {
		if tag > CacheHit {
			c.fail(ErrValue)
		}
		*p = uint8(tag)
	}
}

//minlint:hotpath
func (c *coder) jobSpec(v *JobSpec) {
	c.strs(&v.Networks)
	c.int(&v.Stages)
	c.floats(&v.Loads)
	c.floats(&v.FaultRates)
	c.str(&v.Scenario)
	c.str(&v.Kernel)
	c.int(&v.TrialsPerCell)
	c.u64(&v.Seed)
	c.int(&v.ShardTrials)
}

//minlint:hotpath
func (c *coder) jobResult(v *JobResult) {
	c.jobSpec(&v.Spec)
	slice(c, &v.Cells, (*coder).cells)
	c.bool(&v.Degraded)
	slice(c, &v.QuarantinedShards, (*coder).quarantinedShards)
}

//minlint:hotpath
func (c *coder) cells(s []jobs.CellResult) {
	for i := range s {
		x := &s[i]
		c.str(&x.Network)
		c.int(&x.Stages)
		c.f64(&x.Load)
		c.f64(&x.FaultRate)
		c.int(&x.Trials)
		c.i64(&x.Offered)
		c.i64(&x.Delivered)
		c.i64(&x.Dropped)
		c.i64(&x.Misrouted)
		c.i64(&x.FaultDropped)
		c.stat(&x.Throughput)
		c.int(&x.QuarantinedTrials)
	}
}

//minlint:hotpath
func (c *coder) quarantinedShards(s []jobs.QuarantinedShard) {
	for i := range s {
		q := &s[i]
		c.int(&q.Shard)
		c.int(&q.Cell)
		c.int(&q.Lo)
		c.int(&q.Hi)
		c.str(&q.Reason)
	}
}
