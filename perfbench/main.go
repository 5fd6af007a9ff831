// Command perfbench is the repository's benchmark. It drives the
// minserve handler in-process (no socket) with one of four closed-loop
// workloads, checks every answer, and prints one JSON result line.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of one
// untraced run. With --trace 1 the run is split in two halves, one
// untraced and one traced, and the result carries the per-layer
// metrics; the spans land in .bench_build/spans/. A fuller
// report (host, runtime timeline, sample counts, slowest ops) goes to
// standard error. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"minequiv/minserve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host records where the numbers came from.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Transport  string `json:"transport"`
}

func hostRecord(seed uint64) host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: "unknown",
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed,
		Transport: "in-process handler calls; no traffic crossed a socket",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// setups is how many times a run sets the server up; setup_s is the
// median.
const setups = 5

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))
	w, err := generate(*name, *seed)
	if err != nil {
		return err
	}

	scratch := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	// The job plane's checkpoint directories stay behind when the run
	// ends: unlinking fsync'd files can cost tens of milliseconds each on
	// a disk mounted with discard, which would dwarf a sweep run.
	work, err := os.MkdirTemp(scratch, "perfbench-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}

	srv, setupTimes, err := setUp(w, work)
	if err != nil {
		return err
	}
	h := srv.Handler()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(ctx) // every job is terminal by now; this only closes stores
	}()

	results := &sweepResults{byOp: map[*op][]byte{}}
	next := make([]int, w.clients)
	rep := report{Workload: w.name, Host: hostRecord(*seed), SetupSeconds: setupTimes}

	plain := dur
	if *trace == 1 {
		plain = dur / 2
	}
	p, err := runPass(h, w, plain, next, results, deepEvery(w.name), nil)
	if err != nil {
		return err
	}
	p.deepChecks()
	rep.Untraced = summarize(p)

	res := result{Metrics: map[string]metric{}}
	if *trace == 0 {
		endToEnd(res.Metrics, rep.Untraced, median(setupTimes))
	} else {
		tr := newTracer()
		tp, err := runPass(h, w, dur-plain, next, results, 0, tr)
		if err != nil {
			return err
		}
		ts := summarize(tp)
		rep.Traced = &ts
		perLayer(res.Metrics, p, tp, tr)
		if err := writeSpans(w.name, *seed, tr); err != nil {
			return err
		}
		p.merge(&tp.tally)
	}

	res.Attempted = p.ops
	res.Failed = p.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rep.Failures = p.failures
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		fmt.Fprintln(stderr, string(data))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// deepEvery is how often (per client, in ops) a response is kept for a
// deep check after the timed window.
func deepEvery(name string) int {
	switch name {
	case "serve-hot":
		return 64
	case "serve-cold":
		return 4
	case "simulate":
		return 8
	}
	return 0
}

// setUp builds the server `setups` times, each on a fresh JobsDir, and
// runs the warmup ops on each; it keeps the last server and returns
// every setup time.
func setUp(w *workload, work string) (*minserve.Server, []float64, error) {
	var times []float64
	var srv *minserve.Server
	for k := 0; k < setups; k++ {
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := srv.Close(ctx)
			cancel()
			if err != nil {
				return nil, nil, fmt.Errorf("closing setup server: %w", err)
			}
		}
		dir := filepath.Join(work, fmt.Sprintf("jobs-%d", k))
		start := time.Now()
		var err error
		srv, err = minserve.New(minserve.Config{JobsDir: dir})
		if err != nil {
			return nil, nil, fmt.Errorf("minserve.New: %w", err)
		}
		t := newTarget(srv.Handler())
		results := &sweepResults{byOp: map[*op][]byte{}}
		for _, o := range w.warm {
			if res := t.exec(o, false, results); !res.ok {
				return nil, nil, fmt.Errorf("warmup %s: %s", o.kind, res.reason)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return srv, times, nil
}

// --- summaries ------------------------------------------------------------

// passSummary is one pass's end-to-end figures with their sample counts.
type passSummary struct {
	Seconds    float64      `json:"seconds"`
	Ops        int          `json:"ops"`
	Failed     int          `json:"failed"`
	OpsPerS    float64      `json:"opsPerS"`
	TrialsPerS float64      `json:"trialsPerS"`
	WireBytes  float64      `json:"wireBytesPerOp"`
	Latency    latencyStats `json:"latency"`
	ByKind     map[string]latencyStats
	Runtime    runtimeDelta `json:"runtime"`
	SlowestOps []slowOp     `json:"slowestOps"`
}

type latencyStats struct {
	N     int     `json:"n"`
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
	// BeyondP99 and BeyondP90 are the samples past each percentile; a
	// percentile with fewer than ten beyond it is thinly supported.
	BeyondP90 int `json:"beyondP90"`
	BeyondP99 int `json:"beyondP99"`
}

type slowOp struct {
	Kind   string  `json:"kind"`
	Ms     float64 `json:"ms"`
	Codec  string  `json:"codec"`
	Stages int     `json:"stages"`
}

func latencyOf(l []time.Duration) latencyStats {
	n := len(l)
	return latencyStats{
		N: n, P50Ms: quantile(l, 0.5), P90Ms: quantile(l, 0.9), P99Ms: quantile(l, 0.99),
		MaxMs: quantile(l, 1), BeyondP90: n - (int(0.9*float64(n) + 0.5)), BeyondP99: n - (int(0.99*float64(n) + 0.5)),
	}
}

type report struct {
	Workload     string       `json:"workload"`
	Host         host         `json:"host"`
	SetupSeconds []float64    `json:"setupSeconds"`
	Untraced     passSummary  `json:"untraced"`
	Traced       *passSummary `json:"traced,omitempty"`
	Failures     []string     `json:"failures,omitempty"`
}

func summarize(p *pass) passSummary {
	s := passSummary{Seconds: p.elapsed.Seconds(), Ops: p.ops, Failed: p.failed, Runtime: p.rt, ByKind: map[string]latencyStats{}}
	s.OpsPerS = float64(p.ops-p.failed) / s.Seconds
	s.TrialsPerS = p.trials / s.Seconds
	s.WireBytes = (p.wire[0] + p.wire[1]) / float64(max(1, p.ops))
	s.Latency = latencyOf(p.latencies(nil))
	for i, k := range kinds {
		if l := p.latencies(func(s sample) bool { return s.kind == uint8(i) }); len(l) > 0 {
			s.ByKind[k] = latencyOf(l)
		}
	}
	for _, o := range p.slowest {
		codec := "json"
		if o.op.bin {
			codec = "bin"
		}
		s.SlowestOps = append(s.SlowestOps, slowOp{Kind: o.op.kind, Ms: float64(o.latency) / 1e6, Codec: codec, Stages: opStages(o.op)})
	}
	return s
}

func opStages(o *op) int {
	switch {
	case o.check != nil:
		return o.check.Stages
	case o.route != nil:
		return o.route.Stages
	case o.sim != nil:
		return o.sim.Stages
	case o.sweep != nil:
		return o.sweep.Stages
	}
	return 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// endToEnd fills the --trace 0 metrics.
func endToEnd(m map[string]metric, s passSummary, setup float64) {
	m["ops_per_s"] = metric{s.OpsPerS, "1/s"}
	m["p50_ms"] = metric{s.Latency.P50Ms, "ms"}
	m["p90_ms"] = metric{s.Latency.P90Ms, "ms"}
	m["p99_ms"] = metric{s.Latency.P99Ms, "ms"}
	m["wire_bytes_per_op"] = metric{s.WireBytes, "bytes"}
	m["setup_s"] = metric{setup, "s"}
	m["peak_heap_mb"] = metric{s.Runtime.PeakHeapMB, "MB"}
}

// perLayer fills the --trace 1 metrics from the untraced half (plain)
// and the traced half (tp, tr).
func perLayer(m map[string]metric, plain, tp *pass, tr *tracer) {
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ps := summarize(plain)
	ts := summarize(tp)

	for _, k := range []string{"check", "route", "simulate", "batch"} {
		set("minserve.overhead_us."+k, "us", tr.median("minserve.overhead_us."+k))
	}
	set("minserve.cache_hit_ratio", "ratio", ratio(float64(tp.hits), float64(tp.cacheable)))
	evictions := tp.delta("minserve_cache_misses_total") - tp.delta("minserve_cache_entries")
	set("minserve.cache_evictions_per_op", "count", ratio(evictions, float64(tp.ops)))
	for c, codec := range []string{"json", "bin"} {
		set("minserve.bytes_per_op."+codec, "bytes", ratio(tp.wire[c], tp.opsBy[c]))
		l := tp.latencies(func(s sample) bool { return b2i(s.bin) == c })
		set("minserve.p50_us."+codec, "us", quantile(l, 0.5)*1e3)
	}
	set("minserve.shed_total", "count", plain.delta("minserve_shed_total")+tp.delta("minserve_shed_total"))
	set("minserve.in_flight_peak", "count", tp.after.metrics["minserve_in_flight_peak"])

	for _, k := range []string{"check", "route", "simulate"} {
		set("codec.transcode_us."+k, "us", tr.median("codec.transcode_us."+k))
	}
	set("topology.build_us", "us", tr.median("topology.build_us"))
	set("midigraph.check_us", "us", tr.median("midigraph.check_us"))
	set("equiv.iso_us", "us", tr.median("equiv.iso_us"))
	set("route.route_us", "us", tr.median("route.route_us"))
	set("route.faulty_us", "us", tr.median("route.faulty_us"))

	for st := 6; st <= 10; st++ {
		name := "sim.compile_ms." + strconv.Itoa(st)
		set(name, "ms", tr.median(name))
	}
	set("sim.bit_ns_per_wave", "ns", ratio(tr.totals["sim.bit_ns"], tr.totals["sim.bit_waves"]))
	set("sim.scalar_ns_per_wave", "ns", ratio(tr.totals["sim.scalar_ns"], tr.totals["sim.scalar_waves"]))
	set("sim.buffered_ns_per_cycle", "ns", ratio(tr.totals["sim.buffered_ns"], tr.totals["sim.buffered_cycles"]))
	set("sim.bit_share", "ratio", ratio(tr.totals["sim.bit_ops"], tr.totals["sim.wave_ops"]))

	// Job plane, from the untraced half: its counters and timings are
	// the scheduler's own.
	submit := 0.0
	if len(plain.submits) > 0 {
		submit = median(plain.submits)
	}
	done := plain.delta("minserve_job_shards_done_total")
	set("jobs.submit_us", "us", submit)
	set("jobs.shards_per_s", "1/s", done/plain.elapsed.Seconds())
	set("jobs.checkpoint_bytes_per_shard", "bytes", ratio(plain.delta("minserve_job_checkpoint_bytes_total"), done))
	set("jobs.polls_per_job", "count", ratio(plain.polls, plain.jobs))
	set("jobs.shard_efficiency", "ratio", ratio(done,
		done+plain.delta("minserve_job_shards_retried_total")+plain.delta("minserve_job_shards_stolen_total")))

	rt := plain.rt
	secs := plain.elapsed.Seconds()
	set("runtime.allocs_per_op", "count", ratio(float64(rt.Allocs), float64(plain.ops)))
	set("runtime.gc_pause_ms_per_s", "ms/s", rt.GCPauseMs/secs)
	set("runtime.gc_cycles_per_s", "1/s", float64(rt.GCCycles)/secs)

	set("bench.trace_overhead_pct", "%", 100*(1-ratio(ts.OpsPerS, ps.OpsPerS)))
	set("error_rate", "ratio", ratio(float64(ps.Failed), float64(ps.Ops)))
	set("trials_per_s", "1/s", ps.TrialsPerS)
}

// writeSpans writes the traced half's spans, in memory until now, as
// one JSON document per workload; the next traced run of the workload
// replaces it, so repeated runs do not pile up span files.
func writeSpans(name string, seed uint64, tr *tracer) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+name+".json"), data, 0o644)
}
