package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"minequiv/minserve"
)

// target calls the minserve handler in-process: no socket, no
// connection pool, no kernel networking. Every byte a client would put
// on the wire is still built and parsed, so body sizes and codec work
// are real. A target belongs to one client goroutine: it reuses its
// response recorder from call to call, so the client adds as little
// garbage as it can to the heap the server's GC has to manage.
type target struct {
	h   http.Handler
	rec recorder
	// tmpl holds one prepared request per (method, path, codec); each
	// call sends a shallow copy with a fresh body reader.
	tmpl map[tmplKey]*http.Request
}

type tmplKey struct {
	method, path string
	bin          bool
}

func newTarget(h http.Handler) *target {
	return &target{h: h, rec: recorder{h: make(http.Header)}, tmpl: map[tmplKey]*http.Request{}}
}

// recorder is the in-process ResponseWriter; it keeps the whole body.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.h }
func (w *recorder) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// call issues one request and returns the response and the time spent
// inside the handler, at nanosecond resolution. The response is valid
// until the next call on t.
func (t *target) call(method, path string, body []byte, bin bool) (*recorder, time.Duration) {
	key := tmplKey{method, path, bin}
	tmpl := t.tmpl[key]
	if tmpl == nil {
		tmpl, _ = http.NewRequest(method, "http://perfbench"+path, nil)
		if body != nil {
			if bin {
				tmpl.Header.Set("Content-Type", minserve.MediaTypeBinary)
			} else {
				tmpl.Header.Set("Content-Type", "application/json")
			}
		}
		if bin {
			tmpl.Header.Set("Accept", minserve.MediaTypeBinary)
		}
		t.tmpl[key] = tmpl
	}
	req := new(http.Request)
	*req = *tmpl
	req.Body = http.NoBody
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	rec := &t.rec
	rec.status = 0
	rec.body.Reset()
	clear(rec.h)
	start := time.Now()
	t.h.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

func (t *target) get(path string) ([]byte, error) {
	rec, _ := t.call("GET", path, nil, false)
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, rec.status)
	}
	return rec.body.Bytes(), nil
}

// outcome is one executed op.
type outcome struct {
	op        *op
	latency   time.Duration
	wireBytes int // request plus response bodies, polls included
	ok        bool
	reason    string // why ok is false
	hits      int    // X-Cache HITs (batch: per-item hits)
	cacheable int    // responses that carry cache attribution
	trials    int    // waves, replications or job trials simulated
	polls     int    // sweep status polls
	submit    time.Duration
	resp      []byte // kept only for ops sampled for deep checks
	deep      bool
}

// exec runs o once against t. deep marks the op for a post-run deep
// check, so its response bytes are kept.
func (t *target) exec(o *op, deep bool, results *sweepResults) outcome {
	out := outcome{op: o, deep: deep}
	if o.kind == kindSweep {
		t.execSweep(o, &out, results)
		return out
	}
	rec, d := t.call("POST", "/v1/"+o.endpoint, o.body, o.bin)
	out.latency = d
	body := rec.body.Bytes()
	out.wireBytes = len(o.body) + len(body)
	if rec.status != http.StatusOK {
		out.reason = fmt.Sprintf("%s: status %d: %.200s", o.kind, rec.status, body)
		return out
	}
	if err := quickCheck(o, rec, &out); err != nil {
		out.reason = err.Error()
		return out
	}
	out.ok = true
	if deep {
		out.resp = bytes.Clone(body)
	}
	return out
}

// jobPollInterval paces sweep status polls.
const jobPollInterval = 2 * time.Millisecond

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// sweepResults keeps each sweep op's /result bytes so a resubmission of
// the same spec can be compared byte for byte. Only the sweep workload's
// single client writes it.
type sweepResults struct {
	mu   sync.Mutex
	byOp map[*op][]byte
}

func (t *target) execSweep(o *op, out *outcome, results *sweepResults) {
	start := time.Now()
	rec, d := t.call("POST", "/v1/jobs", o.body, o.bin)
	out.submit = d
	out.wireBytes = len(o.body) + rec.body.Len()
	if rec.status != http.StatusAccepted {
		out.latency = time.Since(start)
		out.reason = fmt.Sprintf("sweep submit: status %d: %.200s", rec.status, rec.body.Bytes())
		return
	}
	var st jobStatus
	if err := json.Unmarshal(rec.body.Bytes(), &st); err != nil {
		out.latency = time.Since(start)
		out.reason = "sweep submit response: " + err.Error()
		return
	}
	for st.State == "pending" || st.State == "running" {
		time.Sleep(jobPollInterval)
		rec, _ = t.call("GET", "/v1/jobs/"+st.ID, nil, false)
		out.polls++
		out.wireBytes += rec.body.Len()
		if rec.status != http.StatusOK {
			out.latency = time.Since(start)
			out.reason = fmt.Sprintf("sweep poll: status %d", rec.status)
			return
		}
		if err := json.Unmarshal(rec.body.Bytes(), &st); err != nil {
			out.latency = time.Since(start)
			out.reason = "sweep poll response: " + err.Error()
			return
		}
	}
	rec, _ = t.call("GET", "/v1/jobs/"+st.ID+"/result", nil, o.bin)
	out.latency = time.Since(start)
	out.wireBytes += rec.body.Len()
	if st.State != "done" || rec.status != http.StatusOK {
		out.reason = fmt.Sprintf("sweep ended %s, result status %d", st.State, rec.status)
		return
	}
	out.trials = o.sweep.cells() * o.sweep.TrialsPerCell
	result := bytes.Clone(rec.body.Bytes())
	if err := checkSweepResult(o, result); err != nil {
		out.reason = err.Error()
		return
	}
	results.mu.Lock()
	defer results.mu.Unlock()
	if o.original != nil {
		if first, ok := results.byOp[o.original]; ok && !bytes.Equal(first, result) {
			out.reason = "sweep: resubmitted spec returned different /result bytes"
			return
		}
	}
	results.byOp[o] = result
	out.ok = true
}

// sample is one successful op's latency, kept at nanosecond
// resolution in 8 bytes so a long run's samples stay small next to the
// server's own heap.
type sample struct {
	ns   uint32 // clamped at ~4.3s; no op of any workload comes near it
	kind uint8  // index into kinds
	bin  bool
}

var kinds = []string{kindCheck, kindRoute, kindBatch, kindSimulate, kindSimFault, kindBuffered, kindSweep}

func kindIndex(k string) uint8 {
	for i, n := range kinds {
		if n == k {
			return uint8(i)
		}
	}
	return 0
}

// tally accumulates one client's outcomes; clients merge theirs when a
// pass ends.
type tally struct {
	samples   []sample
	ops       int
	failed    int
	trials    float64
	wire      [2]float64 // request+response bytes, by codec (json, bin)
	opsBy     [2]float64
	hits      int
	cacheable int
	jobs      float64
	polls     float64
	submits   []float64 // sweep submit times, us
	failures  []string  // the first few reasons
	deep      []outcome // sampled responses awaiting a deep check
	slowest   []outcome // the five slowest ops
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (t *tally) add(o outcome) {
	t.ops++
	c := b2i(o.op.bin)
	t.wire[c] += float64(o.wireBytes)
	t.opsBy[c]++
	if o.op.kind == kindSweep {
		t.jobs++
		t.polls += float64(o.polls)
		t.submits = append(t.submits, us(o.submit))
	}
	if !o.ok {
		t.fail(o.reason)
		return
	}
	t.trials += float64(o.trials)
	t.hits += o.hits
	t.cacheable += o.cacheable
	t.samples = append(t.samples, sample{ns: uint32(min(o.latency, math.MaxUint32)), kind: kindIndex(o.op.kind), bin: o.op.bin})
	if o.deep {
		t.deep = append(t.deep, o)
	}
	o.resp = nil
	if len(t.slowest) < 5 || o.latency > t.slowest[4].latency {
		t.slowest = append(t.slowest, o)
		sort.Slice(t.slowest, func(i, j int) bool { return t.slowest[i].latency > t.slowest[j].latency })
		t.slowest = t.slowest[:min(5, len(t.slowest))]
	}
}

func (t *tally) fail(reason string) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, reason)
	}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.ops += o.ops
	t.failed += o.failed
	t.trials += o.trials
	for c := range t.wire {
		t.wire[c] += o.wire[c]
		t.opsBy[c] += o.opsBy[c]
	}
	t.hits += o.hits
	t.cacheable += o.cacheable
	t.jobs += o.jobs
	t.polls += o.polls
	t.submits = append(t.submits, o.submits...)
	for _, r := range o.failures {
		if len(t.failures) < 10 {
			t.failures = append(t.failures, r)
		}
	}
	t.deep = append(t.deep, o.deep...)
	for _, s := range o.slowest {
		t.slowest = append(t.slowest, s)
	}
	sort.Slice(t.slowest, func(i, j int) bool { return t.slowest[i].latency > t.slowest[j].latency })
	t.slowest = t.slowest[:min(5, len(t.slowest))]
}

// latencies returns the sorted latencies of the samples keep accepts.
func (t *tally) latencies(keep func(sample) bool) []time.Duration {
	var l []time.Duration
	for _, s := range t.samples {
		if keep == nil || keep(s) {
			l = append(l, time.Duration(s.ns))
		}
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

// pass is one timed closed-loop run of a workload.
type pass struct {
	elapsed time.Duration
	tally
	before scrape
	after  scrape
	rt     runtimeDelta
}

// runPass drives w's clients back to back for dur: each client waits
// for its reply before sending its next op. next[c] is client c's
// position in the op sequence and carries over between passes. tr,
// when non-nil, traces each op and replays its work through the façade
// after the handler call (see trace.go).
func runPass(h http.Handler, w *workload, dur time.Duration, next []int, results *sweepResults, deepEvery int, tr *tracer) (*pass, error) {
	t := newTarget(h)
	p := &pass{}
	runtime.GC() // start every pass from a collected heap
	var err error
	if p.before, err = scrapeServer(t); err != nil {
		return nil, err
	}
	// Preallocate every client's samples so the client's own heap
	// footprint is fixed before timing starts and does not move the GC's
	// pacing halfway through the pass.
	per := make([]tally, w.clients)
	for c := range per {
		per[c].samples = make([]sample, 0, int(float64(w.opsPerSec)*dur.Seconds()*1.5)+64)
	}
	sampler := startSampler()
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := newTarget(h)
			for n := 0; time.Now().Before(deadline); n++ {
				i := next[c]*w.clients + c
				if i >= len(w.ops) {
					next[c] = 0
					i = c
				}
				next[c]++
				o := w.ops[i]
				if tr != nil {
					per[c].add(tr.traceOp(t, o, results))
				} else {
					per[c].add(t.exec(o, deepEvery > 0 && n%deepEvery == 0, results))
				}
			}
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt = sampler.stop()
	if p.after, err = scrapeServer(t); err != nil {
		return nil, err
	}
	for c := range per {
		p.merge(&per[c])
	}
	return p, nil
}

// deepChecks runs the deep check on every sampled response of p; a
// failure turns a counted success into a failure.
func (p *pass) deepChecks() {
	for _, o := range p.deep {
		if err := deepCheck(o.op, o.resp); err != nil {
			p.fail("deep check: " + err.Error())
		}
	}
	p.deep = nil
}

// --- /metrics and /v1/healthz scraping ---------------------------------

// scrape is the server's own counters at one instant.
type scrape struct {
	metrics map[string]float64 // unlabelled samples by family name
	healthz healthz
}

type healthz struct {
	Status string `json:"status"`
}

func scrapeServer(t *target) (scrape, error) {
	s := scrape{metrics: map[string]float64{}}
	text, err := t.get("/metrics")
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			s.metrics[name] = v
		}
	}
	hz, err := t.get("/v1/healthz")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(hz, &s.healthz); err != nil {
		return s, fmt.Errorf("healthz: %w", err)
	}
	if s.healthz.Status != "ok" {
		return s, fmt.Errorf("healthz status %q", s.healthz.Status)
	}
	return s, nil
}

func (p *pass) delta(family string) float64 {
	return p.after.metrics[family] - p.before.metrics[family]
}

// --- runtime/metrics sampling ----------------------------------------

// sampler reads runtime/metrics every few milliseconds during a pass,
// keeping the heap peak and a coarse timeline of GC cycles, so a tail
// spike in the report can be set against the collections around it.
type sampler struct {
	stopc   chan struct{}
	done    chan struct{}
	start   time.Time
	first   []metrics.Sample
	peak    uint64
	samples []timelinePoint
}

type timelinePoint struct {
	AtMs      float64 `json:"atMs"`
	HeapMB    float64 `json:"heapMB"`
	GCCycles  uint64  `json:"gcCycles"`
	GCPauseMs float64 `json:"gcPauseMs"`
}

// runtimeDelta is what the runtime did during one pass.
type runtimeDelta struct {
	PeakHeapMB float64         `json:"peakHeapMB"`
	Allocs     uint64          `json:"allocs"`
	GCCycles   uint64          `json:"gcCycles"`
	GCPauseMs  float64         `json:"gcPauseMs"`
	Timeline   []timelinePoint `json:"timeline"`
}

var sampleNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// pauseSeconds estimates the total of a pause histogram from its bucket
// midpoints (the runtime keeps no exact sum).
func pauseSeconds(v metrics.Value) float64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := v.Float64Histogram()
	total := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total
}

func startSampler() *sampler {
	s := &sampler{stopc: make(chan struct{}), done: make(chan struct{}), start: time.Now(), first: readRuntime()}
	s.peak = s.first[0].Value.Uint64()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for n := 0; ; n++ {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			cur := readRuntime()
			if h := cur[0].Value.Uint64(); h > s.peak {
				s.peak = h
			}
			if n%20 == 0 {
				s.samples = append(s.samples, s.point(cur))
			}
		}
	}()
	return s
}

func (s *sampler) point(cur []metrics.Sample) timelinePoint {
	return timelinePoint{
		AtMs:      float64(time.Since(s.start)) / 1e6,
		HeapMB:    float64(cur[0].Value.Uint64()) / (1 << 20),
		GCCycles:  cur[1].Value.Uint64() - s.first[1].Value.Uint64(),
		GCPauseMs: (pauseSeconds(cur[3].Value) - pauseSeconds(s.first[3].Value)) * 1e3,
	}
}

func (s *sampler) stop() runtimeDelta {
	close(s.stopc)
	<-s.done
	last := readRuntime()
	if h := last[0].Value.Uint64(); h > s.peak {
		s.peak = h
	}
	end := s.point(last)
	return runtimeDelta{
		PeakHeapMB: float64(s.peak) / (1 << 20),
		Allocs:     last[2].Value.Uint64() - s.first[2].Value.Uint64(),
		GCCycles:   end.GCCycles,
		GCPauseMs:  end.GCPauseMs,
		Timeline:   append(s.samples, end),
	}
}

// --- latency statistics ------------------------------------------------

// quantile is the nearest-rank q-quantile of sorted, in milliseconds.
func quantile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i]) / 1e6
}
