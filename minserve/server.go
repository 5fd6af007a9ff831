// Package minserve exposes the public min API as an HTTP JSON service.
// The request/response surface is built on minequiv/min and the
// standard library; the asynchronous job plane below it is the
// internal/jobs scheduler — the service is the proof that the façade
// API is sufficient for serving network construction, equivalence
// checking, routing and traffic simulation to external consumers at
// production load, including sweeps too long for one request.
//
// Endpoints (JSON unless noted; the POST work endpoints and the job
// result additionally speak the negotiated binary wire codec — see
// the codec paragraph below):
//
//	GET  /v1/networks   the catalog and the scenario registry
//	GET  /v1/limits     every operator-configured request/serving limit
//	GET  /v1/healthz    liveness: version, uptime, cache + serving stats
//	GET  /metrics       Prometheus text exposition (version 0.0.4)
//	POST /v1/check      characterization report (+ optional isomorphism)
//	POST /v1/route      one routed path, with the tag schedule when PIPID
//	POST /v1/simulate   wave or buffered statistics, seeded and reproducible
//	POST /v1/batch      up to MaxBatch heterogeneous check/route/simulate
//	                    sub-requests in one body, positionally answered
//
// Long-running sweeps run on the asynchronous job plane instead of
// inside one request:
//
//	POST   /v1/jobs              submit a sweep spec; 202 + job status
//	GET    /v1/jobs              list resident jobs
//	GET    /v1/jobs/{id}         job status (state, shard progress)
//	GET    /v1/jobs/{id}/result  the finalized result bytes (409 until
//	                             terminal; byte-stable across restarts)
//	GET    /v1/jobs/{id}/events  progress stream: SSE when the client
//	                             Accepts text/event-stream, JSON
//	                             long-poll (?since=N&waitMs=D) otherwise
//	DELETE /v1/jobs/{id}         cancel a live job
//
// Jobs are checkpointed per shard under Config.JobsDir: a crashed or
// restarted server resumes every unfinished job and the eventual
// result bytes are identical to an uninterrupted run's. Shards that
// keep failing are quarantined after their retry budget and the job
// completes degraded, its result naming what was lost.
//
// /v1/route and /v1/simulate accept an optional `faults` object (a
// min.FaultPlan): routing then avoids the pinned dead/stuck switches
// and severed links, and simulations degrade the fabric with per-trial
// fault sampling — still byte-reproducible from (seed, faults).
//
// Responses are deterministic: the same request body (same seed) yields
// a byte-identical response body. Request contexts are threaded through
// to the simulation engine, so a client that disconnects mid-simulation
// stops the run within one trial (batches stop within one sub-request).
//
// The work endpoints speak two wire codecs, negotiated per request:
// JSON (the default, byte-for-byte stable) and the internal/codec
// binary frame format. Content-Type: application/x-min-bin submits a
// binary request body, Accept: application/x-min-bin asks for a binary
// response, and the two directions are independent; any other
// Content-Type is rejected 415 unsupported_media_type. Binary
// sub-requests ride inside a binary /v1/batch envelope (flagged per
// item), POST /v1/jobs accepts a binary sweep spec, and GET
// /v1/jobs/{id}/result transcodes the manifest to binary on Accept.
// Error envelopes are always JSON.
//
// Errors use a structured envelope with stable machine-readable codes:
//
//	{"error":{"code":"bad_request","message":"...","status":400}}
//
// /v1/check and /v1/route are served through a bounded LRU response
// cache keyed by the exact request bytes (per endpoint and codec pair);
// a hit replays the exact bytes of the cold response (the X-Cache
// header, or the per-item `cache` field of a batch sub-response, says
// which happened). Two spellings of one request are distinct entries
// with byte-identical bodies. Config.CacheEntries bounds it; a negative
// value disables caching.
//
// The POST endpoints are admission-controlled: Config.MaxConcurrent
// requests execute at once, Config.MaxQueueDepth more may queue for up
// to Config.QueueWait, and everything beyond is shed with 429 +
// Retry-After. The GET endpoints — including every job status/result/
// events read — bypass admission so observability and job polling stay
// reachable under saturation; only job submission competes for slots.
package minserve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
	"minequiv/internal/sim"
	"minequiv/min"
)

// Config bounds what one request may ask of the server and how much
// concurrent work the server accepts.
type Config struct {
	// MaxBodyBytes caps the request body size. Default 1 MiB.
	MaxBodyBytes int64
	// MaxStages caps network size (terminals = 2^stages). Default 10.
	MaxStages int
	// MaxTrials caps waves (wave model) and replications (buffered).
	// Default 100000.
	MaxTrials int
	// MaxCycles caps cycles+warmup per buffered replication. Default
	// 200000.
	MaxCycles int
	// MaxWorkers caps the per-request worker count. Default GOMAXPROCS.
	MaxWorkers int
	// MaxFaults caps the pinned-fault list length of a request's fault
	// plan. Default 256.
	MaxFaults int
	// CacheEntries bounds the LRU response cache serving repeated
	// /v1/check and /v1/route requests (keyed by the exact request
	// bytes per endpoint and codec pair; hits are byte-identical to a
	// cold run). Default 256; negative disables caching.
	CacheEntries int
	// MaxBatch caps the sub-request count of one /v1/batch body.
	// Default 64.
	MaxBatch int
	// MaxConcurrent bounds how many admitted POST requests execute at
	// once. Default GOMAXPROCS; negative disables admission control
	// entirely (unbounded concurrency).
	MaxConcurrent int
	// MaxQueueDepth bounds how many requests may wait for an execution
	// slot beyond MaxConcurrent; excess is shed with 429. Default 64;
	// negative allows no waiters (shed as soon as all slots are busy).
	MaxQueueDepth int
	// QueueWait bounds how long one request may wait in the queue
	// before being shed. Default 1s; negative disables waiting.
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline covering queue wait
	// and execution; expiry yields 503 deadline_exceeded. Default 0
	// (no deadline).
	RequestTimeout time.Duration
	// JobsDir is where the job plane checkpoints sweeps. "" (the
	// default) runs jobs in memory only: they work, but do not survive
	// a restart.
	JobsDir string
	// JobWorkers bounds the job plane's shard executor pool. Default
	// GOMAXPROCS.
	JobWorkers int
	// JobTTL garbage-collects terminal jobs (and their checkpoint
	// directories) this long after they finish. Default 1h; negative
	// keeps them forever.
	JobTTL time.Duration
	// MaxJobs caps live (pending/running) jobs; submissions beyond it
	// are shed with 429. Default 16.
	MaxJobs int
	// MaxJobCells caps the grid size (networks × loads × fault rates)
	// of one submitted sweep. Default 256.
	MaxJobCells int
	// JobShardTrials is the default trials-per-shard granularity for
	// specs that leave shardTrials unset. Default 2048.
	JobShardTrials int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxStages <= 0 {
		c.MaxStages = 10
	}
	if c.MaxStages > min.MaxStages {
		c.MaxStages = min.MaxStages
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 100000
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 200000
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueueDepth == 0:
		c.MaxQueueDepth = 64
	case c.MaxQueueDepth < 0:
		c.MaxQueueDepth = 0
	}
	if c.QueueWait == 0 {
		c.QueueWait = time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.JobTTL == 0 {
		c.JobTTL = time.Hour
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 16
	}
	if c.MaxJobCells <= 0 {
		c.MaxJobCells = 256
	}
	if c.JobShardTrials <= 0 {
		c.JobShardTrials = 2048
	}
	return c
}

// Version identifies the service build; /v1/healthz reports it.
const Version = "0.10.0"

type server struct {
	cfg     Config
	cache   *responseCache // nil when CacheEntries < 0
	metrics *metrics
	adm     *admission // nil when MaxConcurrent < 0
	jobs    *jobs.Manager
	start   time.Time
	now     func() time.Time // injectable for the healthz golden test
}

func newServer(cfg Config) (*server, error) {
	cfg = cfg.withDefaults()
	ttl := cfg.JobTTL
	if ttl < 0 {
		ttl = 0 // the manager's "keep forever"
	}
	jm, err := jobs.Open(jobs.Config{
		Dir:         cfg.JobsDir,
		Workers:     cfg.JobWorkers,
		ShardTrials: cfg.JobShardTrials,
		TTL:         ttl,
		MaxActive:   cfg.MaxJobs,
	})
	if err != nil {
		return nil, err
	}
	return &server{
		cfg:     cfg,
		cache:   newResponseCache(cfg.CacheEntries),
		metrics: newMetrics(),
		adm:     newAdmission(cfg),
		jobs:    jm,
		start:   time.Now(),
		now:     time.Now,
	}, nil
}

// handler builds the route table: observability endpoints bypass
// admission, work endpoints go through it, and everything is
// instrumented.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/networks", s.handleNetworks)
	mux.HandleFunc("GET /v1/limits", s.handleLimits)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Job reads are observability: registered directly (not through
	// admit) so polling a running sweep can never be shed while the
	// synchronous plane is saturated. Submission is work and queues
	// with the other POSTs.
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	work := s.admit(http.HandlerFunc(s.handleWork))
	mux.Handle("POST /v1/check", work)
	mux.Handle("POST /v1/route", work)
	mux.Handle("POST /v1/simulate", work)
	mux.Handle("POST /v1/batch", work)
	mux.Handle("POST /v1/jobs", work)
	return s.instrument(mux)
}

// handleWork dispatches the admitted POST endpoints (they share one
// admission wrapper so a batch and a single request compete for the
// same slots).
func (s *server) handleWork(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/batch":
		s.handleBatch(w, r)
	case "/v1/jobs":
		s.handleJobSubmit(w, r)
	default:
		op := lookupOp(strings.TrimPrefix(r.URL.Path, "/v1/"))
		if op < 0 {
			http.NotFound(w, r)
			return
		}
		s.handleOp(w, r, op)
	}
}

// workOp is one row of the op table behind /v1/check, /v1/route and
// /v1/simulate and the matching /v1/batch sub-requests: exec decodes a
// request body under the negotiated request codec and computes the
// response value; runOp renders it, and caches it when cacheable.
type workOp struct {
	name      string
	exec      func(s *server, ctx context.Context, wi wire, body []byte) (any, error)
	cacheable bool
}

var workOps = [...]workOp{
	{name: "check", exec: (*server).execCheck, cacheable: true},
	{name: "route", exec: (*server).execRoute, cacheable: true},
	{name: "simulate", exec: (*server).execSimulate},
}

// lookupOp returns the op table index of name, or -1.
func lookupOp(name string) int {
	for i := range workOps {
		if workOps[i].name == name {
			return i
		}
	}
	return -1
}

// handleOp serves one single-op endpoint: negotiate, read the body,
// run the op, write the rendered bytes.
func (s *server) handleOp(w http.ResponseWriter, r *http.Request, op int) {
	wi, err := s.negotiate(r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	buf, err := s.readBody(w, r)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	defer bodyPool.Put(buf)
	resp, attr, err := s.runOp(r.Context(), op, wi, buf.Bytes())
	if err != nil {
		writeErr(w, r, err)
		return
	}
	writeWireBytes(w, http.StatusOK, resp, xCacheHeader[attr], wi.respBin)
}

// Server is the service plus its background job plane.
type Server struct {
	s *server
}

// New builds the service. Zero-value Config fields take the documented
// defaults. The only error source is opening the checkpoint directory
// (Config.JobsDir) and resuming the jobs found there.
func New(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// Handler returns the service's HTTP handler.
func (sv *Server) Handler() http.Handler { return sv.s.handler() }

// Close drains the job plane: no new shards start, in-flight shards
// finish and checkpoint, then the stores close. If ctx expires first
// the stragglers are aborted — their shards simply re-run after the
// next New on the same JobsDir. Idempotent.
func (sv *Server) Close(ctx context.Context) error { return sv.s.jobs.Drain(ctx) }

// bodyPool recycles the read buffers of the POST endpoints and the
// batch/metrics render buffers: a warm hit needs the request bytes only
// as the cache key for one probe, so the buffer is returned as soon as
// the handler finishes.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody slurps the request body into a pooled buffer under the
// configured size limit. The caller returns the buffer to bodyPool once
// its bytes are no longer referenced; anything stored past the handler
// must copy them first (the cache's put does).
func (s *server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		bodyPool.Put(buf)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &httpError{status: http.StatusRequestEntityTooLarge, code: CodeLimitExceeded, msg: err.Error()}
		}
		return nil, badRequest("invalid request body: %v", err)
	}
	return buf, nil
}

// decodeBytes decodes an in-memory JSON request body strictly (see
// codec.DecodeJSON); every failure is a 400 bad_request.
func decodeBytes(data []byte, v any) error {
	if err := codec.DecodeJSON(data, v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// The wire shapes of the work endpoints live in internal/codec — they
// are the single source of truth for both renderings (their JSON tags
// are this package's JSON API, their codec methods the binary one) —
// and are aliased here so the handlers read as before.
type (
	networkSpec      = codec.NetworkSpec
	checkRequest     = codec.CheckRequest
	checkResponse    = codec.CheckResponse
	routeRequest     = codec.RouteRequest
	routeResponse    = codec.RouteResponse
	simulateRequest  = codec.SimulateRequest
	simulateResponse = codec.SimulateResponse
)

// TailCycleName requests the paper's Banyan-but-not-equivalent
// counterexample in a networkSpec.
const TailCycleName = "tail-cycle"

func (s *server) buildNetwork(spec networkSpec) (*min.Network, error) {
	if spec.Stages > s.cfg.MaxStages {
		return nil, limitExceeded("stages must be in [2,%d], got %d", s.cfg.MaxStages, spec.Stages)
	}
	if spec.Stages < 2 {
		return nil, badRequest("stages must be in [2,%d], got %d", s.cfg.MaxStages, spec.Stages)
	}
	switch {
	case spec.LinkPerms != nil && spec.IndexPerms != nil:
		return nil, badRequest("give linkPerms or indexPerms, not both")
	case spec.LinkPerms != nil:
		name := spec.Network
		if name == "" {
			name = "custom"
		}
		return min.FromLinkPerms(name, spec.Stages, spec.LinkPerms)
	case spec.IndexPerms != nil:
		name := spec.Network
		if name == "" {
			name = "custom"
		}
		return min.FromIndexPerms(name, spec.Stages, spec.IndexPerms)
	case spec.Network == TailCycleName:
		return min.TailCycle(spec.Stages)
	case spec.Network != "":
		nw, err := min.Build(spec.Network, spec.Stages)
		if err != nil {
			return nil, unknownNetwork(err)
		}
		return nw, nil
	default:
		return nil, badRequest("missing network name or permutation definition")
	}
}

// networksResponse is the GET /v1/networks body; the request limits
// live in GET /v1/limits.
type networksResponse struct {
	Networks  []min.NetworkInfo  `json:"networks"`
	Scenarios []min.ScenarioInfo `json:"scenarios"`
}

func (s *server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, networksResponse{
		Networks:  min.Catalog(),
		Scenarios: min.Scenarios(),
	})
}

// limitsResponse is the GET /v1/limits body: every operator-configured
// bound a client needs to size its requests, including the serving
// limits (batch size, admission bounds, deadlines).
type limitsResponse struct {
	MaxBodyBytes     int64 `json:"maxBodyBytes"`
	MaxStages        int   `json:"maxStages"`
	MaxTrials        int   `json:"maxTrials"`
	MaxCycles        int   `json:"maxCycles"`
	MaxWorkers       int   `json:"maxWorkers"`
	MaxFaults        int   `json:"maxFaults"`
	MaxBatch         int   `json:"maxBatch"`
	CacheEntries     int   `json:"cacheEntries"`
	MaxConcurrent    int   `json:"maxConcurrent"`
	MaxQueueDepth    int   `json:"maxQueueDepth"`
	QueueWaitMs      int64 `json:"queueWaitMs"`
	RequestTimeoutMs int64 `json:"requestTimeoutMs"`
	MaxJobs          int   `json:"maxJobs"`
	MaxJobCells      int   `json:"maxJobCells"`
	JobShardTrials   int   `json:"jobShardTrials"`
	JobTTLMs         int64 `json:"jobTtlMs"`
}

func (s *server) handleLimits(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, limitsResponse{
		MaxBodyBytes:     s.cfg.MaxBodyBytes,
		MaxStages:        s.cfg.MaxStages,
		MaxTrials:        s.cfg.MaxTrials,
		MaxCycles:        s.cfg.MaxCycles,
		MaxWorkers:       s.cfg.MaxWorkers,
		MaxFaults:        s.cfg.MaxFaults,
		MaxBatch:         s.cfg.MaxBatch,
		CacheEntries:     s.cfg.CacheEntries,
		MaxConcurrent:    s.cfg.MaxConcurrent,
		MaxQueueDepth:    s.cfg.MaxQueueDepth,
		QueueWaitMs:      s.cfg.QueueWait.Milliseconds(),
		RequestTimeoutMs: s.cfg.RequestTimeout.Milliseconds(),
		MaxJobs:          s.cfg.MaxJobs,
		MaxJobCells:      s.cfg.MaxJobCells,
		JobShardTrials:   s.cfg.JobShardTrials,
		JobTTLMs:         s.cfg.JobTTL.Milliseconds(),
	})
}

// execCheck computes one /v1/check response: the characterization
// report, plus the isomorphism to the Baseline when asked for and the
// network is equivalent.
func (s *server) execCheck(_ context.Context, wi wire, body []byte) (any, error) {
	var req checkRequest
	if err := decodeRequest(wi, body, &req); err != nil {
		return nil, err
	}
	nw, err := s.buildNetwork(req.NetworkSpec)
	if err != nil {
		return nil, err
	}
	resp := checkResponse{Report: min.Check(nw)}
	if req.Iso && resp.Report.Equivalent {
		iso, err := min.Iso(nw)
		if err != nil {
			return nil, err
		}
		resp.Iso = &iso
	}
	return resp, nil
}

// ServingStats is the admission/serving-plane snapshot reported by
// GET /v1/healthz (the /metrics endpoint carries the same numbers in
// exposition format).
type ServingStats struct {
	Requests    uint64 `json:"requests"`
	InFlight    int64  `json:"inFlight"`
	QueueDepth  int64  `json:"queueDepth"`
	Shed        uint64 `json:"shed"`
	Disconnects uint64 `json:"disconnects"`
}

// healthzResponse is the GET /v1/healthz body: enough for a load
// balancer to gate on and for an operator to eyeball.
type healthzResponse struct {
	Status        string       `json:"status"`
	Version       string       `json:"version"`
	UptimeSeconds int64        `json:"uptimeSeconds"`
	Cache         CacheStats   `json:"cache"`
	Serving       ServingStats `json:"serving"`
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		Version:       Version,
		UptimeSeconds: int64(s.now().Sub(s.start) / time.Second),
		Cache:         s.cache.stats(),
		Serving: ServingStats{
			Requests:    s.metrics.requestsTotal(),
			InFlight:    s.metrics.inFlight.Load(),
			QueueDepth:  s.metrics.queueDepth.Load(),
			Shed:        s.metrics.shed.Load(),
			Disconnects: s.metrics.disconnects.Load(),
		},
	})
}

// checkFaults bounds a request's fault plan: the pinned list length is
// capped, coordinates and rates are validated downstream by the min
// layer (those failures surface as 400s through the normal error path).
func (s *server) checkFaults(p *min.FaultPlan) error {
	if p == nil {
		return nil
	}
	if len(p.Faults) > s.cfg.MaxFaults {
		return limitExceeded("fault list too long: %d > %d", len(p.Faults), s.cfg.MaxFaults)
	}
	return nil
}

// execRoute computes one /v1/route response: the path, plus the PIPID
// tag schedule on an intact fabric. A non-empty fault plan routes the
// degraded fabric by reachability instead.
func (s *server) execRoute(_ context.Context, wi wire, body []byte) (any, error) {
	var req routeRequest
	if err := decodeRequest(wi, body, &req); err != nil {
		return nil, err
	}
	nw, err := s.buildNetwork(req.NetworkSpec)
	if err != nil {
		return nil, err
	}
	if req.Src < 0 || req.Src >= nw.Terminals() || req.Dst < 0 || req.Dst >= nw.Terminals() {
		return nil, badRequest("terminal out of range [0,%d): src=%d dst=%d",
			nw.Terminals(), req.Src, req.Dst)
	}
	if err := s.checkFaults(req.Faults); err != nil {
		return nil, err
	}
	if req.Faults != nil && !req.Faults.Empty() {
		path, err := min.RouteUnderFaults(nw, req.Src, req.Dst, *req.Faults)
		if err != nil {
			return nil, err
		}
		// No tag schedule: a degraded fabric is routed by
		// reachability, not stateless destination tags.
		return routeResponse{Network: nw.Name(), Path: path}, nil
	}
	path, err := min.Route(nw, req.Src, req.Dst)
	if err != nil {
		return nil, err
	}
	resp := routeResponse{Network: nw.Name(), Path: path}
	if tags, err := min.TagPositions(nw); err == nil {
		resp.TagPositions = tags
	}
	return resp, nil
}

// execSimulate computes one /v1/simulate response. Simulations are not
// cached (they are cheap to replay only for the caller who knows the
// seed) but they are context-governed: ctx cancellation stops the
// engine within one trial.
func (s *server) execSimulate(ctx context.Context, wi wire, body []byte) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var req simulateRequest
	if err := decodeRequest(wi, body, &req); err != nil {
		return nil, err
	}
	nw, err := s.buildNetwork(req.NetworkSpec)
	if err != nil {
		return nil, err
	}
	if req.Workers < 0 || req.Workers > s.cfg.MaxWorkers {
		req.Workers = s.cfg.MaxWorkers
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if err := s.checkFaults(req.Faults); err != nil {
		return nil, err
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
	switch req.Model {
	case "", "wave":
		if req.Replications != 0 || req.Queue != 0 || req.Lanes != 0 || req.Cycles != 0 ||
			req.Warmup != 0 || req.Arbiter != "" || req.LaneSelect != "" {
			return nil, badRequest("buffered-model fields set on a wave request")
		}
		waves := req.Waves
		if waves == 0 {
			waves = 500
		}
		if waves < 1 {
			return nil, badRequest("waves must be in [1,%d], got %d", s.cfg.MaxTrials, waves)
		}
		if waves > s.cfg.MaxTrials {
			return nil, limitExceeded("waves must be in [1,%d], got %d", s.cfg.MaxTrials, waves)
		}
		kernel := min.Kernel(req.Kernel)
		if req.Kernel == "" {
			kernel = min.KernelAuto
		}
		st, err := min.Simulate(ctx, nw,
			append(opts, min.WithWaves(waves), min.WithKernel(kernel))...)
		if err != nil {
			return nil, err
		}
		return simulateResponse{Model: "wave", Wave: &st}, nil

	case "buffered":
		if req.Waves != 0 {
			return nil, badRequest("waves is a wave-model field; buffered runs use cycles/replications")
		}
		if req.Kernel != "" {
			return nil, badRequest("kernel selects the wave executor; the buffered model has no bit-sliced form")
		}
		// Resolve defaults BEFORE checking the operator's limits, so an
		// omitted field cannot slip a default past a cap set below it.
		// A zero field means "default"; negatives are rejected.
		reps := valueOr(req.Replications, 1)
		cycles := valueOr(req.Cycles, 5000)
		warmup := valueOr(req.Warmup, 500)
		queue := valueOr(req.Queue, 4)
		lanes := valueOr(req.Lanes, 1)
		if reps < 0 || cycles < 0 || warmup < 0 || queue < 0 || lanes < 0 {
			return nil, badRequest("negative buffered-model field")
		}
		if reps > s.cfg.MaxTrials {
			return nil, limitExceeded("replications must be <= %d, got %d", s.cfg.MaxTrials, reps)
		}
		if cycles+warmup > s.cfg.MaxCycles {
			return nil, limitExceeded("cycles+warmup must be <= %d, got %d", s.cfg.MaxCycles, cycles+warmup)
		}
		opts = append(opts,
			min.WithReplications(reps), min.WithQueue(queue), min.WithLanes(lanes),
			min.WithCycles(cycles), min.WithWarmup(warmup))
		if req.Arbiter != "" {
			opts = append(opts, min.WithArbiter(min.Arbiter(req.Arbiter)))
		}
		if req.LaneSelect != "" {
			opts = append(opts, min.WithLaneSelect(min.LaneSelect(req.LaneSelect)))
		}
		st, err := min.SimulateBuffered(ctx, nw, opts...)
		if errors.Is(err, sim.ErrBufferTooLarge) {
			// queue and lanes size the packet storage; the engine
			// refuses an oversize run before any worker allocates it.
			return nil, limitExceeded("%v", err)
		}
		if err != nil {
			return nil, err
		}
		return simulateResponse{Model: "buffered", Buffered: &st}, nil

	default:
		return nil, badRequest("unknown model %q (wave or buffered)", req.Model)
	}
}

// valueOr substitutes the default for an omitted (zero) request field.
func valueOr(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}
