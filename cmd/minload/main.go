// Command minload drives load against a live minserve instance over
// the network and reports served RPS and latency percentiles as JSON.
// In-process serving measurements, and CI's serving gate, are
// perfbench's (perfbench/README.md, .github/scripts/perfbench-ab.sh);
// minload is the client that crosses a real socket.
//
// Two modes:
//
//   - Closed loop (default): -conns workers issue requests
//     back-to-back; served RPS is the capacity of the box at that
//     concurrency.
//   - Open loop (-rps N, optionally -ramp A:B): arrivals are generated
//     at the target rate independent of completions, the honest way to
//     measure latency under offered load; arrivals that find every
//     worker busy are counted as dropped, not silently coalesced.
//
// The workload is a weighted mix of check/route/simulate/batch/job
// requests (-mix), rotated over -distinct parameter variants so the
// response cache sees a realistic hit pattern rather than one hot key.
// The -codec axis picks the wire codec for the generated load: "json"
// (default) speaks the plain JSON API, "bin" transcodes every request
// body into the negotiated binary codec (application/x-min-bin) at mix
// build time and asks for binary responses, so the same mix measures
// both wire formats and the report's per-op byte counters quantify the
// encoding win alongside the latency one.
// The job op exercises the async plane end to end: it submits a small
// sweep to /v1/jobs and polls the status endpoint until the job
// reaches a terminal state, so its measured latency is
// submit-to-completion and its polling traffic rides the admission
// bypass exactly like a real client's.
//
// -lint-metrics fetches /metrics after the run and fails on an
// exposition that does not lint clean.
//
// Usage:
//
//	minload -addr localhost:8080 -duration 5s -conns 8 -codec bin -o bin.json
//	minload -addr localhost:8080 -rps 2000 -ramp 500:4000 -duration 30s
//	minload -addr localhost:8080 -mix job=1 -stages 5 -lint-metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minequiv/minserve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minload:", err)
		os.Exit(1)
	}
}

// --- latency histogram ----------------------------------------------

// histGrowth is the geometric bucket ratio: 256 buckets starting at
// 1µs cover ~1µs to ~31s at <7% relative error, enough resolution for
// percentile reporting without per-sample storage.
const (
	histBuckets = 256
	histGrowth  = 1.07
)

// hist is a per-worker latency histogram; workers own one each (no
// sharing, no locks) and the main goroutine merges after the run.
type hist struct {
	buckets [histBuckets]uint64
	count   uint64
	sumUs   float64
	maxUs   float64
}

var histLog = math.Log(histGrowth)

func (h *hist) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	h.count++
	h.sumUs += us
	if us > h.maxUs {
		h.maxUs = us
	}
	idx := 0
	if us > 1 {
		idx = int(math.Log(us) / histLog)
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx]++
}

func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sumUs += o.sumUs
	if o.maxUs > h.maxUs {
		h.maxUs = o.maxUs
	}
}

// quantile returns the upper bound of the bucket holding the q-th
// sample — a ≤7% overestimate, consistently applied.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum > target {
			return math.Pow(histGrowth, float64(i+1))
		}
	}
	return h.maxUs
}

// --- workload -------------------------------------------------------

// op is one request template: path plus a rotation of bodies. idx is
// the op's position in the mix slice, the coordinate of its per-op
// counters.
type op struct {
	name   string
	idx    int
	weight float64
	bodies []string
}

// endpointFor maps a mix op name to the minserve endpoint name it
// posts to ("job" submits to /v1/jobs, "simfault" is a simulate body).
func endpointFor(name string) string {
	switch name {
	case "job":
		return "jobs"
	case "simfault":
		return "simulate"
	}
	return name
}

// opCounters is the per-op traffic accounting, shared across workers.
// bytesOut counts request-body bytes sent, bytesIn response-body bytes
// received (for the job op: submit plus every status poll), so the
// report shows the wire-size win of a codec, not just its latency.
type opCounters struct {
	requests atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// buildMix parses "check=0.55,route=0.25,simulate=0.1,batch=0.1" into
// weighted ops with -distinct body variants each.
func buildMix(spec string, stages, waves, distinct int) ([]op, error) {
	if distinct < 1 {
		distinct = 1
	}
	networks := []string{"omega", "baseline", "indirect-binary-cube", "flip"}
	checkBody := func(i int) string {
		st := 3 + i%(stages-2)
		return fmt.Sprintf(`{"network":%q,"stages":%d}`, networks[i%len(networks)], st)
	}
	bodies := func(gen func(int) string) []string {
		out := make([]string, distinct)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	gens := map[string]func(int) string{
		"check": checkBody,
		"route": func(i int) string {
			st := 3 + i%(stages-2)
			n := 1 << st
			return fmt.Sprintf(`{"network":%q,"stages":%d,"src":%d,"dst":%d}`,
				networks[i%len(networks)], st, i%n, (i*7+3)%n)
		},
		"simulate": func(i int) string {
			st := 3 + i%(stages-2)
			return fmt.Sprintf(`{"network":%q,"stages":%d,"waves":%d,"seed":%d}`,
				networks[i%len(networks)], st, waves, i+1)
		},
		// Degraded-fabric sweeps: simulate with a long pinned fault list,
		// the request shape where the wire codec dominates the cost (the
		// fault array is most of the body) rather than the kernel.
		"simfault": func(i int) string {
			st := 3 + i%(stages-2)
			n := 1 << st
			faults := make([]string, 0, 128)
			for j := 0; j < 128; j++ {
				switch j % 3 {
				case 0:
					faults = append(faults, fmt.Sprintf(`{"kind":"switch-dead","stage":%d,"cell":%d}`, j%st, (i+j)%(n/2)))
				case 1:
					faults = append(faults, fmt.Sprintf(`{"kind":"switch-stuck1","stage":%d,"cell":%d}`, j%st, (i+j)%(n/2)))
				default:
					faults = append(faults, fmt.Sprintf(`{"kind":"link-down","stage":%d,"link":%d}`, j%st, (i+j)%n))
				}
			}
			return fmt.Sprintf(`{"network":%q,"stages":%d,"waves":%d,"seed":%d,"faults":{"faults":[%s]}}`,
				networks[i%len(networks)], st, waves, i+1, strings.Join(faults, ","))
		},
		"batch": func(i int) string {
			var items []string
			for j := 0; j < 4; j++ {
				items = append(items, fmt.Sprintf(`{"op":"check","request":%s}`, checkBody(i*4+j)))
			}
			return `{"requests":[` + strings.Join(items, ",") + `]}`
		},
		// Small sweeps: a handful of shards each, so one job completes in
		// well under a second and the op measures the whole job-plane
		// round trip rather than a single long simulation.
		"job": func(i int) string {
			st := 3 + i%(stages-2)
			return fmt.Sprintf(`{"networks":[%q],"stages":%d,"trialsPerCell":%d,"shardTrials":%d,"seed":%d}`,
				networks[i%len(networks)], st, 4*waves, waves, i+1)
		},
	}
	var ops []op
	for _, part := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		w, err := strconv.ParseFloat(wstr, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		gen, ok := gens[name]
		if !ok {
			return nil, fmt.Errorf("mix entry %q: unknown op (check, route, simulate, simfault, batch, job)", part)
		}
		if w == 0 {
			continue
		}
		ops = append(ops, op{name: name, weight: w, bodies: bodies(gen)})
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	total := 0.0
	for i := range ops {
		total += ops[i].weight
	}
	for i := range ops {
		ops[i].weight /= total
		ops[i].idx = i
	}
	return ops, nil
}

// transcodeMix rewrites every request body in the mix into the binary
// wire codec, once, at build time — workers then send pre-encoded
// frames, so the generator measures the server's decode cost, not its
// own encode cost.
func transcodeMix(ops []op) error {
	for i := range ops {
		endpoint := endpointFor(ops[i].name)
		for j, body := range ops[i].bodies {
			enc, err := minserve.EncodeBinaryRequest(endpoint, []byte(body))
			if err != nil {
				return fmt.Errorf("transcode %s body: %w", ops[i].name, err)
			}
			ops[i].bodies[j] = string(enc)
		}
	}
	return nil
}

// pick selects an op by weight from r.
func pick(ops []op, r *rand.Rand) *op {
	x := r.Float64()
	for i := range ops {
		if x < ops[i].weight {
			return &ops[i]
		}
		x -= ops[i].weight
	}
	return &ops[len(ops)-1]
}

// --- client ---------------------------------------------------------

// client posts to a live server. binary sends the mix's pre-encoded
// binary bodies and asks for binary responses.
type client struct {
	base   string
	http   *http.Client
	binary bool
}

func (c *client) do(method, path, body string) (*http.Response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		if c.binary {
			req.Header.Set("Content-Type", minserve.MediaTypeBinary)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		req.ContentLength = int64(len(body))
	}
	if c.binary {
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	}
	return c.http.Do(req)
}

// post discards the response body and returns its size, so the per-op
// byte counters stay honest.
func (c *client) post(path, body string) (int, int, error) {
	resp, err := c.do("POST", path, body)
	if err != nil {
		return 0, 0, err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, int(n), nil
}

func (c *client) read(method, path, body string) (int, []byte, error) {
	resp, err := c.do(method, path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobPollInterval paces the job op's status polling; the reads bypass
// admission server-side, so this bounds client chatter, not load.
const jobPollInterval = 5 * time.Millisecond

// jobStatus is the slice of the wire status the driver needs. minload
// speaks the HTTP protocol (it may target a remote build), so it
// matches fields by wire name rather than importing the jobs package.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func jobTerminal(state string) bool {
	return state != "pending" && state != "running"
}

// doOp issues one mix operation and returns the status plus the wire
// bytes it moved (request bodies out, response bodies in). Every op
// except job is a single POST; job submits a sweep and polls until the
// job leaves the live states, so its latency sample spans
// submit-to-completion and its byte counts include the polling. A run
// deadline that lands mid-poll abandons the job (the server finishes
// it alone) and reports the submit's status.
func doOp(ctx context.Context, c *client, name, body string) (status, bytesOut, bytesIn int, err error) {
	bytesOut = len(body)
	if name != "job" {
		status, n, err := c.post("/v1/"+endpointFor(name), body)
		return status, bytesOut, n, err
	}
	status, resp, err := c.read("POST", "/v1/jobs", body)
	bytesIn = len(resp)
	if err != nil || status != http.StatusAccepted {
		return status, bytesOut, bytesIn, err
	}
	var st jobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return 0, bytesOut, bytesIn, fmt.Errorf("job submit response: %w", err)
	}
	for !jobTerminal(st.State) {
		if ctx.Err() != nil {
			return status, bytesOut, bytesIn, nil
		}
		time.Sleep(jobPollInterval)
		code, b, err := c.read("GET", "/v1/jobs/"+st.ID, "")
		bytesIn += len(b)
		if err != nil || code != http.StatusOK {
			return code, bytesOut, bytesIn, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return 0, bytesOut, bytesIn, fmt.Errorf("job status response: %w", err)
		}
	}
	if st.State != "done" {
		return http.StatusInternalServerError, bytesOut, bytesIn, nil
	}
	return http.StatusOK, bytesOut, bytesIn, nil
}

// tally is one run's accounting, shared by its workers: per-op traffic
// counters, status classes and the merged latency histogram.
type tally struct {
	ops          []opCounters
	errors, shed atomic.Uint64
	mu           sync.Mutex
	hist         hist
}

// issue runs one op and accounts for it: a latency sample in the
// worker's own histogram h, the op's traffic counters, and its status
// class (429 is shed; a transport error or any other status >= 400 is
// an error).
func (t *tally) issue(ctx context.Context, c *client, o *op, body string, h *hist) {
	start := time.Now()
	status, bytesOut, bytesIn, err := doOp(ctx, c, o.name, body)
	h.add(time.Since(start))
	cnt := &t.ops[o.idx]
	cnt.requests.Add(1)
	cnt.bytesOut.Add(uint64(bytesOut))
	cnt.bytesIn.Add(uint64(bytesIn))
	switch {
	case err == nil && status == http.StatusTooManyRequests:
		t.shed.Add(1)
	case err != nil || status >= 400:
		t.errors.Add(1)
	}
}

// merge folds a worker's histogram into the run's.
func (t *tally) merge(h *hist) {
	t.mu.Lock()
	t.hist.merge(h)
	t.mu.Unlock()
}

// --- report ---------------------------------------------------------

type latencyReport struct {
	P50Us  float64 `json:"p50Us"`
	P90Us  float64 `json:"p90Us"`
	P99Us  float64 `json:"p99Us"`
	MeanUs float64 `json:"meanUs"`
	MaxUs  float64 `json:"maxUs"`
}

// opReport is one op's traffic share of the run.
type opReport struct {
	Requests uint64 `json:"requests"`
	BytesIn  uint64 `json:"bytesIn"`
	BytesOut uint64 `json:"bytesOut"`
}

// report is one run's result, printed and optionally written to -o.
type report struct {
	Mode        string        `json:"mode"` // "closed" or "open"
	Mix         string        `json:"mix"`
	Codec       string        `json:"codec"`
	Conns       int           `json:"conns"`
	DurationSec float64       `json:"durationSec"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	Shed        uint64        `json:"shed"`
	Dropped     uint64        `json:"dropped,omitempty"` // open loop only
	OfferedRPS  float64       `json:"offeredRPS,omitempty"`
	ServedRPS   float64       `json:"servedRPS"`
	Latency     latencyReport `json:"latency"`

	// Ops breaks traffic down per mix op; bytesIn/bytesOut show the
	// wire-size delta between codecs.
	Ops map[string]opReport `json:"ops,omitempty"`
}

// --- main loop ------------------------------------------------------

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("minload", flag.ContinueOnError)
	addr := fs.String("addr", "", "target host:port (required)")
	duration := fs.Duration("duration", 10*time.Second, "measured run length (after warmup)")
	warmup := fs.Duration("warmup", time.Second, "unmeasured warmup length")
	rps := fs.Float64("rps", 0, "open-loop target arrival rate (0 = closed loop)")
	ramp := fs.String("ramp", "", "open-loop rate ramp start:end over the run (overrides -rps)")
	conns := fs.Int("conns", 8, "concurrent workers (closed loop) / max outstanding (open loop)")
	mixSpec := fs.String("mix", "check=0.55,route=0.25,simulate=0.1,batch=0.1", "weighted op mix")
	codecName := fs.String("codec", "json", "wire codec for the generated load: json or bin")
	stages := fs.Int("stages", 6, "largest network stages in the generated workload")
	waves := fs.Int("waves", 32, "waves per generated simulate request")
	distinct := fs.Int("distinct", 16, "distinct request variants per op (cache realism)")
	seed := fs.Int64("seed", 1, "workload selection seed")
	out := fs.String("o", "", "write the JSON report here (default stdout only)")
	lintMetrics := fs.Bool("lint-metrics", false, "fetch /metrics after the run and lint the exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stages < 3 {
		return fmt.Errorf("-stages must be >= 3")
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required")
	}
	if *codecName != "json" && *codecName != "bin" {
		return fmt.Errorf("-codec must be json or bin, got %q", *codecName)
	}
	c := &client{
		base: "http://" + *addr,
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: *conns * 2},
			Timeout:   30 * time.Second,
		},
		binary: *codecName == "bin",
	}

	ops, err := buildMix(*mixSpec, *stages, *waves, *distinct)
	if err != nil {
		return err
	}
	if c.binary {
		if err := transcodeMix(ops); err != nil {
			return err
		}
	}

	rep := report{
		Mix:   *mixSpec,
		Codec: *codecName,
		Conns: *conns,
	}

	rampStart, rampEnd := *rps, *rps
	if *ramp != "" {
		a, b, ok := strings.Cut(*ramp, ":")
		if !ok {
			return fmt.Errorf("-ramp wants start:end")
		}
		if rampStart, err = strconv.ParseFloat(a, 64); err != nil {
			return fmt.Errorf("-ramp start: %w", err)
		}
		if rampEnd, err = strconv.ParseFloat(b, 64); err != nil {
			return fmt.Errorf("-ramp end: %w", err)
		}
	}
	open := rampStart > 0 || rampEnd > 0

	// Warmup: unmeasured closed-loop traffic primes the cache and the
	// runtime.
	if *warmup > 0 {
		warmCtx, cancel := context.WithTimeout(ctx, *warmup)
		runClosed(warmCtx, c, ops, *conns, *seed+1, &tally{ops: make([]opCounters, len(ops))})
		cancel()
	}

	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()
	t := &tally{ops: make([]opCounters, len(ops))}
	startT := time.Now()
	if open {
		rep.Mode = "open"
		rep.Dropped = runOpen(runCtx, c, ops, *conns, *seed, rampStart, rampEnd, *duration, t)
		rep.OfferedRPS = (rampStart + rampEnd) / 2
	} else {
		rep.Mode = "closed"
		runClosed(runCtx, c, ops, *conns, *seed, t)
	}
	elapsed := time.Since(startT)

	rep.Ops = make(map[string]opReport, len(ops))
	for i := range ops {
		r := opReport{
			Requests: t.ops[i].requests.Load(),
			BytesIn:  t.ops[i].bytesIn.Load(),
			BytesOut: t.ops[i].bytesOut.Load(),
		}
		rep.Ops[ops[i].name] = r
		rep.Requests += r.Requests
	}

	rep.DurationSec = elapsed.Seconds()
	rep.Errors = t.errors.Load()
	rep.Shed = t.shed.Load()
	rep.ServedRPS = float64(rep.Requests-rep.Errors-rep.Shed) / elapsed.Seconds()
	rep.Latency = latencyReport{
		P50Us:  t.hist.quantile(0.50),
		P90Us:  t.hist.quantile(0.90),
		P99Us:  t.hist.quantile(0.99),
		MeanUs: t.hist.sumUs / math.Max(1, float64(t.hist.count)),
		MaxUs:  t.hist.maxUs,
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	if *lintMetrics {
		status, text, err := c.read("GET", "/metrics", "")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("fetch /metrics: status %d err %v", status, err)
		}
		if err := minserve.LintExposition(text); err != nil {
			return fmt.Errorf("metrics lint: %w", err)
		}
		fmt.Fprintln(w, "minload: /metrics exposition lint-clean")
	}
	return nil
}

// runClosed drives conns workers back-to-back until ctx expires.
func runClosed(ctx context.Context, c *client, ops []op, conns int, seed int64, t *tally) {
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(k)*7919))
			var h hist
			for ctx.Err() == nil {
				o := pick(ops, rng)
				t.issue(ctx, c, o, o.bodies[rng.IntN(len(o.bodies))], &h)
			}
			t.merge(&h)
		}(k)
	}
	wg.Wait()
}

// runOpen generates arrivals at the (possibly ramping) target rate on
// a central pacer; conns workers consume them. Arrivals that find the
// queue full are dropped and counted — open-loop honesty: a saturated
// server must not slow the arrival process down.
func runOpen(ctx context.Context, c *client, ops []op, conns int, seed int64, rateStart, rateEnd float64, dur time.Duration, t *tally) (dropped uint64) {
	type arrival struct {
		o    *op
		body string
	}
	queue := make(chan arrival, conns*2)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h hist
			for a := range queue {
				t.issue(ctx, c, a.o, a.body, &h)
			}
			t.merge(&h)
		}()
	}

	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	start := time.Now()
	for ctx.Err() == nil {
		frac := float64(time.Since(start)) / float64(dur)
		if frac > 1 {
			frac = 1
		}
		rate := rateStart + (rateEnd-rateStart)*frac
		if rate <= 0 {
			rate = 1
		}
		interval := time.Duration(float64(time.Second) / rate)
		o := pick(ops, rng)
		a := arrival{o, o.bodies[rng.IntN(len(o.bodies))]}
		select {
		case queue <- a:
		default:
			dropped++
		}
		timer := time.NewTimer(interval)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}
	close(queue)
	wg.Wait()
	return dropped
}
