package codec

import (
	"encoding/json"

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
// aliases: the fault plan is sim.FaultPlan (its binary kind tag is the
// sim.FaultKind value), the summary statistic engine.Stats, and the
// routed path route.Path.

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
// model. Zero-valued tunables take the min package defaults (waves
// 500, replications 1, queue 4, lanes 1, cycles 5000, warmup 500 —
// resolved before the server's limits are checked); Seed defaults to
// 1 so unseeded requests are reproducible too.
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

// --- encode ---------------------------------------------------------

//minlint:hotpath
func (e *Encoder) networkSpec(v *NetworkSpec) {
	e.str(v.Network)
	e.int(v.Stages)
	e.perms(v.LinkPerms)
	e.perms(v.IndexPerms)
}

//minlint:hotpath
func (e *Encoder) faultPlan(v *min.FaultPlan) {
	e.presence(v != nil)
	if v == nil {
		return
	}
	e.presence(v.Faults != nil)
	if v.Faults != nil {
		e.u64(uint64(len(v.Faults)))
		for i := range v.Faults {
			f := &v.Faults[i]
			e.u64(uint64(f.Kind))
			e.int(f.Stage)
			e.int(f.Cell)
			e.int(f.Link)
		}
	}
	e.f64(v.SwitchDeadRate)
	e.f64(v.SwitchStuckRate)
	e.f64(v.LinkDownRate)
}

//minlint:hotpath
func (e *Encoder) stat(v *min.Stat) {
	e.int(v.N)
	e.f64(v.Mean)
	e.f64(v.Std)
	e.f64(v.CI95)
}

//minlint:hotpath
func (e *Encoder) windows(s []min.WindowCheck) {
	e.presence(s != nil)
	if s == nil {
		return
	}
	e.u64(uint64(len(s)))
	for i := range s {
		w := &s[i]
		e.int(w.I)
		e.int(w.J)
		e.int(w.Components)
		e.int(w.Expected)
		e.bool(w.OK)
	}
}

// CheckRequest appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) CheckRequest(v *CheckRequest) {
	start := e.begin(ShapeCheckRequest)
	e.networkSpec(&v.NetworkSpec)
	e.bool(v.Iso)
	e.end(start)
}

// CheckResponse appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) CheckResponse(v *CheckResponse) {
	start := e.begin(ShapeCheckResponse)
	e.str(v.Report.Network)
	e.int(v.Report.Stages)
	e.bool(v.Report.Equivalent)
	e.bool(v.Report.Banyan)
	e.str(v.Report.BanyanViolation)
	e.windows(v.Report.Prefix)
	e.windows(v.Report.Suffix)
	e.presence(v.Iso != nil)
	if v.Iso != nil {
		e.perms(v.Iso.Maps)
	}
	e.end(start)
}

// RouteRequest appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) RouteRequest(v *RouteRequest) {
	start := e.begin(ShapeRouteRequest)
	e.networkSpec(&v.NetworkSpec)
	e.int(v.Src)
	e.int(v.Dst)
	e.faultPlan(v.Faults)
	e.end(start)
}

// RouteResponse appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) RouteResponse(v *RouteResponse) {
	start := e.begin(ShapeRouteResponse)
	e.str(v.Network)
	e.int(v.Path.Src)
	e.int(v.Path.Dst)
	e.presence(v.Path.Hops != nil)
	if v.Path.Hops != nil {
		e.u64(uint64(len(v.Path.Hops)))
		for i := range v.Path.Hops {
			h := &v.Path.Hops[i]
			e.int(h.Stage)
			e.int(h.Cell)
			e.int(h.InPort)
			e.int(h.OutPort)
		}
	}
	e.ints(v.TagPositions)
	e.end(start)
}

// SimulateRequest appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) SimulateRequest(v *SimulateRequest) {
	start := e.begin(ShapeSimulateRequest)
	e.networkSpec(&v.NetworkSpec)
	e.str(v.Model)
	e.str(v.Scenario)
	e.f64(v.Load)
	e.int(v.HotDst)
	e.f64(v.HotProb)
	e.u64(v.Seed)
	e.int(v.Workers)
	e.faultPlan(v.Faults)
	e.int(v.Waves)
	e.str(v.Kernel)
	e.int(v.Replications)
	e.int(v.Queue)
	e.int(v.Lanes)
	e.int(v.Cycles)
	e.int(v.Warmup)
	e.str(v.Arbiter)
	e.str(v.LaneSelect)
	e.end(start)
}

// SimulateResponse appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) SimulateResponse(v *SimulateResponse) {
	start := e.begin(ShapeSimulateResponse)
	e.str(v.Model)
	e.presence(v.Wave != nil)
	if w := v.Wave; w != nil {
		e.str(w.Network)
		e.int(w.Stages)
		e.int(w.Terminals)
		e.str(w.Scenario)
		e.int(w.Waves)
		e.u64(w.Seed)
		e.int(w.Offered)
		e.int(w.Delivered)
		e.int(w.Dropped)
		e.int(w.Misrouted)
		e.int(w.FaultDropped)
		e.stat(&w.Throughput)
	}
	e.presence(v.Buffered != nil)
	if b := v.Buffered; b != nil {
		e.str(b.Network)
		e.int(b.Stages)
		e.int(b.Terminals)
		e.str(b.Scenario)
		e.int(b.Replications)
		e.u64(b.Seed)
		e.int(b.Injected)
		e.int(b.Rejected)
		e.int(b.Delivered)
		e.int(b.Dropped)
		e.int(b.FaultDropped)
		e.int(b.Misrouted)
		e.int(b.InFlight)
		e.int(b.MaxOccupancy)
		e.stat(&b.Throughput)
		e.stat(&b.Latency)
		e.stat(&b.LatencyP50)
		e.stat(&b.LatencyP95)
		e.stat(&b.LatencyP99)
		e.floats(b.StageOccupancy)
	}
	e.end(start)
}

// BatchRequest appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) BatchRequest(v *BatchRequest) {
	start := e.begin(ShapeBatchRequest)
	e.presence(v.Requests != nil)
	if v.Requests != nil {
		e.u64(uint64(len(v.Requests)))
		for i := range v.Requests {
			it := &v.Requests[i]
			e.str(it.Op)
			e.bool(it.Bin)
			e.bytes(it.Request)
		}
	}
	e.end(start)
}

// BatchResponse appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) BatchResponse(v *BatchResponse) {
	start := e.begin(ShapeBatchResponse)
	e.presence(v.Responses != nil)
	if v.Responses != nil {
		e.u64(uint64(len(v.Responses)))
		for i := range v.Responses {
			r := &v.Responses[i]
			e.str(r.Op)
			e.int(r.Status)
			e.u64(uint64(r.Cache))
			e.bytes(r.Body)
		}
	}
	e.end(start)
}

// JobSpec appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) JobSpec(v *JobSpec) {
	start := e.begin(ShapeJobSpec)
	e.jobSpecBody(v)
	e.end(start)
}

//minlint:hotpath
func (e *Encoder) jobSpecBody(v *jobs.Spec) {
	e.strs(v.Networks)
	e.int(v.Stages)
	e.floats(v.Loads)
	e.floats(v.FaultRates)
	e.str(v.Scenario)
	e.str(v.Kernel)
	e.int(v.TrialsPerCell)
	e.u64(v.Seed)
	e.int(v.ShardTrials)
}

// JobResult appends v as one frame.
//
//minlint:hotpath
func (e *Encoder) JobResult(v *JobResult) {
	start := e.begin(ShapeJobResult)
	e.jobSpecBody(&v.Spec)
	e.presence(v.Cells != nil)
	if v.Cells != nil {
		e.u64(uint64(len(v.Cells)))
		for i := range v.Cells {
			c := &v.Cells[i]
			e.str(c.Network)
			e.int(c.Stages)
			e.f64(c.Load)
			e.f64(c.FaultRate)
			e.int(c.Trials)
			e.i64(c.Offered)
			e.i64(c.Delivered)
			e.i64(c.Dropped)
			e.i64(c.Misrouted)
			e.i64(c.FaultDropped)
			e.stat(&c.Throughput)
			e.int(c.QuarantinedTrials)
		}
	}
	e.bool(v.Degraded)
	e.presence(v.QuarantinedShards != nil)
	if v.QuarantinedShards != nil {
		e.u64(uint64(len(v.QuarantinedShards)))
		for i := range v.QuarantinedShards {
			q := &v.QuarantinedShards[i]
			e.int(q.Shard)
			e.int(q.Cell)
			e.int(q.Lo)
			e.int(q.Hi)
			e.str(q.Reason)
		}
	}
	e.end(start)
}

// --- decode ---------------------------------------------------------

func (d *Decoder) networkSpec(v *NetworkSpec) {
	v.Network = d.str()
	v.Stages = d.int()
	v.LinkPerms = d.permsInto(v.LinkPerms)
	v.IndexPerms = d.permsInto(v.IndexPerms)
}

func (d *Decoder) faultPlanInto(v *min.FaultPlan) *min.FaultPlan {
	if !d.presence() || d.err != nil {
		return nil
	}
	if v == nil {
		v = new(min.FaultPlan)
	}
	if !d.presence() {
		v.Faults = nil
	} else {
		n := d.count()
		if cap(v.Faults) < n || v.Faults == nil {
			v.Faults = make([]min.Fault, n)
		} else {
			v.Faults = v.Faults[:n]
		}
		d.faultLoop(v.Faults)
	}
	v.SwitchDeadRate = d.f64()
	v.SwitchStuckRate = d.f64()
	v.LinkDownRate = d.f64()
	return v
}

//minlint:hotpath
func (d *Decoder) faultLoop(s []min.Fault) {
	for i := range s {
		s[i] = min.Fault{Kind: d.faultKind(), Stage: d.int(), Cell: d.int(), Link: d.int()}
	}
}

// faultKind reads a fault-kind tag, the sim.FaultKind value; a tag
// outside the four kinds fails the frame.
//
//minlint:hotpath
func (d *Decoder) faultKind() min.FaultKind {
	tag := d.u64()
	if tag < uint64(min.SwitchDead) || tag > uint64(min.LinkDown) {
		d.fail(ErrValue)
		return 0
	}
	return min.FaultKind(tag)
}

//minlint:hotpath
func (d *Decoder) stat(v *min.Stat) {
	v.N = d.int()
	v.Mean = d.f64()
	v.Std = d.f64()
	v.CI95 = d.f64()
}

func (d *Decoder) windowsInto(s []min.WindowCheck) []min.WindowCheck {
	if !d.presence() || d.err != nil {
		return nil
	}
	n := d.count()
	if cap(s) < n || s == nil {
		s = make([]min.WindowCheck, n)
	} else {
		s = s[:n]
	}
	d.windowLoop(s)
	return s
}

//minlint:hotpath
func (d *Decoder) windowLoop(s []min.WindowCheck) {
	for i := range s {
		s[i] = min.WindowCheck{I: d.int(), J: d.int(), Components: d.int(), Expected: d.int(), OK: d.bool()}
	}
}

// CheckRequest decodes one frame into v, reusing its storage.
func (d *Decoder) CheckRequest(v *CheckRequest) error {
	if err := d.frame(ShapeCheckRequest); err != nil {
		return err
	}
	d.networkSpec(&v.NetworkSpec)
	v.Iso = d.bool()
	return d.finish()
}

// CheckResponse decodes one frame into v, reusing its storage.
func (d *Decoder) CheckResponse(v *CheckResponse) error {
	if err := d.frame(ShapeCheckResponse); err != nil {
		return err
	}
	v.Report.Network = d.str()
	v.Report.Stages = d.int()
	v.Report.Equivalent = d.bool()
	v.Report.Banyan = d.bool()
	v.Report.BanyanViolation = d.str()
	v.Report.Prefix = d.windowsInto(v.Report.Prefix)
	v.Report.Suffix = d.windowsInto(v.Report.Suffix)
	if !d.presence() {
		v.Iso = nil
	} else {
		if v.Iso == nil {
			v.Iso = new(min.Isomorphism)
		}
		v.Iso.Maps = d.permsInto(v.Iso.Maps)
	}
	return d.finish()
}

// RouteRequest decodes one frame into v, reusing its storage.
func (d *Decoder) RouteRequest(v *RouteRequest) error {
	if err := d.frame(ShapeRouteRequest); err != nil {
		return err
	}
	d.networkSpec(&v.NetworkSpec)
	v.Src = d.int()
	v.Dst = d.int()
	v.Faults = d.faultPlanInto(v.Faults)
	return d.finish()
}

// RouteResponse decodes one frame into v, reusing its storage.
func (d *Decoder) RouteResponse(v *RouteResponse) error {
	if err := d.frame(ShapeRouteResponse); err != nil {
		return err
	}
	v.Network = d.str()
	v.Path.Src = d.int()
	v.Path.Dst = d.int()
	if !d.presence() {
		v.Path.Hops = nil
	} else {
		n := d.count()
		if cap(v.Path.Hops) < n || v.Path.Hops == nil {
			v.Path.Hops = make([]min.Hop, n)
		} else {
			v.Path.Hops = v.Path.Hops[:n]
		}
		d.hopLoop(v.Path.Hops)
	}
	v.TagPositions = d.intsInto(v.TagPositions)
	return d.finish()
}

//minlint:hotpath
func (d *Decoder) hopLoop(s []min.Hop) {
	for i := range s {
		s[i] = min.Hop{Stage: d.int(), Cell: d.int(), InPort: d.int(), OutPort: d.int()}
	}
}

// SimulateRequest decodes one frame into v, reusing its storage.
func (d *Decoder) SimulateRequest(v *SimulateRequest) error {
	if err := d.frame(ShapeSimulateRequest); err != nil {
		return err
	}
	d.networkSpec(&v.NetworkSpec)
	v.Model = d.str()
	v.Scenario = d.str()
	v.Load = d.f64()
	v.HotDst = d.int()
	v.HotProb = d.f64()
	v.Seed = d.u64()
	v.Workers = d.int()
	v.Faults = d.faultPlanInto(v.Faults)
	v.Waves = d.int()
	v.Kernel = d.str()
	v.Replications = d.int()
	v.Queue = d.int()
	v.Lanes = d.int()
	v.Cycles = d.int()
	v.Warmup = d.int()
	v.Arbiter = d.str()
	v.LaneSelect = d.str()
	return d.finish()
}

// SimulateResponse decodes one frame into v, reusing its storage.
func (d *Decoder) SimulateResponse(v *SimulateResponse) error {
	if err := d.frame(ShapeSimulateResponse); err != nil {
		return err
	}
	v.Model = d.str()
	if !d.presence() {
		v.Wave = nil
	} else {
		if v.Wave == nil {
			v.Wave = new(min.WaveStats)
		}
		w := v.Wave
		w.Network = d.str()
		w.Stages = d.int()
		w.Terminals = d.int()
		w.Scenario = d.str()
		w.Waves = d.int()
		w.Seed = d.u64()
		w.Offered = d.int()
		w.Delivered = d.int()
		w.Dropped = d.int()
		w.Misrouted = d.int()
		w.FaultDropped = d.int()
		d.stat(&w.Throughput)
	}
	if !d.presence() {
		v.Buffered = nil
	} else {
		if v.Buffered == nil {
			v.Buffered = new(min.BufferedStats)
		}
		b := v.Buffered
		b.Network = d.str()
		b.Stages = d.int()
		b.Terminals = d.int()
		b.Scenario = d.str()
		b.Replications = d.int()
		b.Seed = d.u64()
		b.Injected = d.int()
		b.Rejected = d.int()
		b.Delivered = d.int()
		b.Dropped = d.int()
		b.FaultDropped = d.int()
		b.Misrouted = d.int()
		b.InFlight = d.int()
		b.MaxOccupancy = d.int()
		d.stat(&b.Throughput)
		d.stat(&b.Latency)
		d.stat(&b.LatencyP50)
		d.stat(&b.LatencyP95)
		d.stat(&b.LatencyP99)
		b.StageOccupancy = d.floatsInto(b.StageOccupancy)
	}
	return d.finish()
}

// BatchRequest decodes one frame into v. Item payloads alias the
// input buffer.
func (d *Decoder) BatchRequest(v *BatchRequest) error {
	if err := d.frame(ShapeBatchRequest); err != nil {
		return err
	}
	if !d.presence() {
		v.Requests = nil
	} else {
		n := d.count()
		if cap(v.Requests) < n || v.Requests == nil {
			v.Requests = make([]BatchItem, n)
		} else {
			v.Requests = v.Requests[:n]
		}
		for i := range v.Requests {
			it := &v.Requests[i]
			it.Op = d.str()
			it.Bin = d.bool()
			it.Request = d.rawBytes()
		}
	}
	return d.finish()
}

// BatchResponse decodes one frame into v. Sub-bodies alias the input
// buffer.
func (d *Decoder) BatchResponse(v *BatchResponse) error {
	if err := d.frame(ShapeBatchResponse); err != nil {
		return err
	}
	if !d.presence() {
		v.Responses = nil
	} else {
		n := d.count()
		if cap(v.Responses) < n || v.Responses == nil {
			v.Responses = make([]BatchResult, n)
		} else {
			v.Responses = v.Responses[:n]
		}
		for i := range v.Responses {
			r := &v.Responses[i]
			r.Op = d.str()
			r.Status = d.int()
			c := d.u64()
			if c > CacheHit {
				d.fail(ErrValue)
			}
			r.Cache = uint8(c)
			r.Body = d.rawBytes()
		}
	}
	return d.finish()
}

// JobSpec decodes one frame into v, reusing its storage.
func (d *Decoder) JobSpec(v *JobSpec) error {
	if err := d.frame(ShapeJobSpec); err != nil {
		return err
	}
	d.jobSpecBody(v)
	return d.finish()
}

func (d *Decoder) jobSpecBody(v *jobs.Spec) {
	v.Networks = d.strsInto(v.Networks)
	v.Stages = d.int()
	v.Loads = d.floatsInto(v.Loads)
	v.FaultRates = d.floatsInto(v.FaultRates)
	v.Scenario = d.str()
	v.Kernel = d.str()
	v.TrialsPerCell = d.int()
	v.Seed = d.u64()
	v.ShardTrials = d.int()
}

// JobResult decodes one frame into v, reusing its storage.
func (d *Decoder) JobResult(v *JobResult) error {
	if err := d.frame(ShapeJobResult); err != nil {
		return err
	}
	d.jobSpecBody(&v.Spec)
	if !d.presence() {
		v.Cells = nil
	} else {
		n := d.count()
		if cap(v.Cells) < n || v.Cells == nil {
			v.Cells = make([]jobs.CellResult, n)
		} else {
			v.Cells = v.Cells[:n]
		}
		for i := range v.Cells {
			c := &v.Cells[i]
			c.Network = d.str()
			c.Stages = d.int()
			c.Load = d.f64()
			c.FaultRate = d.f64()
			c.Trials = d.int()
			c.Offered = d.i64()
			c.Delivered = d.i64()
			c.Dropped = d.i64()
			c.Misrouted = d.i64()
			c.FaultDropped = d.i64()
			d.stat(&c.Throughput)
			c.QuarantinedTrials = d.int()
		}
	}
	v.Degraded = d.bool()
	if !d.presence() {
		v.QuarantinedShards = nil
	} else {
		n := d.count()
		if cap(v.QuarantinedShards) < n || v.QuarantinedShards == nil {
			v.QuarantinedShards = make([]jobs.QuarantinedShard, n)
		} else {
			v.QuarantinedShards = v.QuarantinedShards[:n]
		}
		for i := range v.QuarantinedShards {
			q := &v.QuarantinedShards[i]
			q.Shard = d.int()
			q.Cell = d.int()
			q.Lo = d.int()
			q.Hi = d.int()
			q.Reason = d.str()
		}
	}
	return d.finish()
}
