package minserve

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minequiv/internal/jobs"
)

// The metrics layer is dependency-free Prometheus text exposition
// (format version 0.0.4): every handler is wrapped by the instrument
// middleware, which records per-endpoint request counters (labelled by
// status code), a latency histogram, and global bytes-in/out counters.
// The admission layer feeds the in-flight/queue gauges and the shed
// counter; writeErr's client-disconnect path is accounted as a
// synthetic 499 so dead clients never inflate the error series.

// durationBuckets are the histogram upper bounds, in seconds. They
// span the service's dynamic range: a warm cache hit (~microseconds)
// to a full simulation sweep (~seconds).
var durationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// endpointStats is one endpoint's mutable slot; metrics.mu guards it.
type endpointStats struct {
	codes   map[int]uint64 // status code -> requests
	buckets []uint64       // non-cumulative histogram counts, +Inf implicit
	sum     float64        // seconds
	count   uint64
}

type metrics struct {
	inFlight     atomic.Int64
	inFlightPeak atomic.Int64
	queueDepth   atomic.Int64
	shed         atomic.Uint64
	disconnects  atomic.Uint64
	bytesIn      atomic.Uint64
	bytesOut     atomic.Uint64

	codecReqJSON  atomic.Uint64
	codecReqBin   atomic.Uint64
	codecRespJSON atomic.Uint64
	codecRespBin  atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointStats
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointStats)}
}

// enterInFlight bumps the gauge and folds the new value into the
// high-watermark (exposed so tests and operators can verify the
// configured concurrency bound is never exceeded).
func (m *metrics) enterInFlight() {
	n := m.inFlight.Add(1)
	for {
		peak := m.inFlightPeak.Load()
		if n <= peak || m.inFlightPeak.CompareAndSwap(peak, n) {
			return
		}
	}
}

func (m *metrics) leaveInFlight() { m.inFlight.Add(-1) }

// countWire accounts one negotiated work request's codec pair.
func (m *metrics) countWire(wi wire) {
	if wi.reqBin {
		m.codecReqBin.Add(1)
	} else {
		m.codecReqJSON.Add(1)
	}
	if wi.respBin {
		m.codecRespBin.Add(1)
	} else {
		m.codecRespJSON.Add(1)
	}
}

// record accounts one finished request.
func (m *metrics) record(endpoint string, status int, dur time.Duration, bytesIn, bytesOut int64) {
	if bytesIn > 0 {
		m.bytesIn.Add(uint64(bytesIn))
	}
	if bytesOut > 0 {
		m.bytesOut.Add(uint64(bytesOut))
	}
	if status == statusClientClosed {
		m.disconnects.Add(1)
	}
	sec := dur.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	es := m.endpoints[endpoint]
	if es == nil {
		es = &endpointStats{
			codes:   make(map[int]uint64),
			buckets: make([]uint64, len(durationBuckets)),
		}
		m.endpoints[endpoint] = es
	}
	es.codes[status]++
	es.sum += sec
	es.count++
	for i, bound := range durationBuckets {
		if sec <= bound {
			es.buckets[i]++
			break
		}
	}
	// Beyond the last bound the observation lands only in +Inf, which
	// is es.count.
}

// requestsTotal sums the per-endpoint counters (healthz reports it).
func (m *metrics) requestsTotal() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total uint64
	for _, es := range m.endpoints {
		for _, n := range es.codes {
			total += n
		}
	}
	return total
}

// statusClientClosed is the synthetic status recorded when a client
// disconnects before a response is written (nginx's 499 convention).
// It is never sent on the wire — there is no client left to send to.
const statusClientClosed = 499

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// render writes the full exposition. Families and label sets are
// emitted in sorted order so the output is deterministic.
func (m *metrics) render(buf *bytes.Buffer, cache CacheStats, js jobs.Stats) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	buf.WriteString("# HELP minserve_requests_total Requests served, by endpoint and status code (499 = client disconnected).\n")
	buf.WriteString("# TYPE minserve_requests_total counter\n")
	for _, name := range names {
		es := m.endpoints[name]
		codes := make([]int, 0, len(es.codes))
		for c := range es.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(buf, "minserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, es.codes[c])
		}
	}

	buf.WriteString("# HELP minserve_request_duration_seconds Request latency, by endpoint.\n")
	buf.WriteString("# TYPE minserve_request_duration_seconds histogram\n")
	for _, name := range names {
		es := m.endpoints[name]
		cum := uint64(0)
		for i, bound := range durationBuckets {
			cum += es.buckets[i]
			fmt.Fprintf(buf, "minserve_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, formatFloat(bound), cum)
		}
		fmt.Fprintf(buf, "minserve_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, es.count)
		fmt.Fprintf(buf, "minserve_request_duration_seconds_sum{endpoint=%q} %s\n", name, formatFloat(es.sum))
		fmt.Fprintf(buf, "minserve_request_duration_seconds_count{endpoint=%q} %d\n", name, es.count)
	}
	m.mu.Unlock()

	gauge := func(name, help string, value string) {
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, value)
	}
	counter := func(name, help string, value uint64) {
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, value)
	}

	gauge("minserve_in_flight", "Admitted work requests currently executing.",
		strconv.FormatInt(m.inFlight.Load(), 10))
	gauge("minserve_in_flight_peak", "High-watermark of minserve_in_flight since start.",
		strconv.FormatInt(m.inFlightPeak.Load(), 10))
	gauge("minserve_queue_depth", "Work requests waiting for an execution slot.",
		strconv.FormatInt(m.queueDepth.Load(), 10))
	counter("minserve_shed_total", "Requests rejected 429 by admission control.", m.shed.Load())
	counter("minserve_client_disconnects_total", "Requests abandoned by the client before a response was written.",
		m.disconnects.Load())
	counter("minserve_request_bytes_total", "Request body bytes received.", m.bytesIn.Load())
	counter("minserve_response_bytes_total", "Response body bytes written.", m.bytesOut.Load())

	buf.WriteString("# HELP minserve_codec_requests_total Work request bodies negotiated, by request codec.\n")
	buf.WriteString("# TYPE minserve_codec_requests_total counter\n")
	fmt.Fprintf(buf, "minserve_codec_requests_total{codec=\"json\"} %d\n", m.codecReqJSON.Load())
	fmt.Fprintf(buf, "minserve_codec_requests_total{codec=\"bin\"} %d\n", m.codecReqBin.Load())
	buf.WriteString("# HELP minserve_codec_responses_total Work responses negotiated, by response codec.\n")
	buf.WriteString("# TYPE minserve_codec_responses_total counter\n")
	fmt.Fprintf(buf, "minserve_codec_responses_total{codec=\"json\"} %d\n", m.codecRespJSON.Load())
	fmt.Fprintf(buf, "minserve_codec_responses_total{codec=\"bin\"} %d\n", m.codecRespBin.Load())

	counter("minserve_cache_hits_total", "Response cache hits (replays of a cached body).", cache.Hits)
	counter("minserve_cache_misses_total", "Response cache misses (inserts of a freshly computed body).", cache.Misses)
	ratio := 0.0
	if total := cache.Hits + cache.Misses; total > 0 {
		ratio = float64(cache.Hits) / float64(total)
	}
	gauge("minserve_cache_hit_ratio", "Cache hits over successful cacheable requests since start (0 when idle).", formatFloat(ratio))
	gauge("minserve_cache_entries", "Response cache entries resident.", strconv.Itoa(cache.Entries))

	gauge("minserve_jobs_in_flight", "Live (pending or running) sweep jobs.",
		strconv.FormatInt(js.JobsInFlight, 10))
	counter("minserve_jobs_completed_total", "Jobs that reached done or degraded.", js.JobsCompleted)
	counter("minserve_jobs_failed_total", "Jobs that reached failed (every shard quarantined, or a corrupt checkpoint at resume).",
		js.JobsFailed)
	counter("minserve_job_shards_done_total", "Sweep shards completed and checkpointed.", js.ShardsDone)
	counter("minserve_job_shards_retried_total", "Shard attempts that failed and were backed off for retry.", js.ShardsRetried)
	counter("minserve_job_shards_quarantined_total", "Shards quarantined after exhausting their retry budget.",
		js.ShardsQuarantined)
	counter("minserve_job_checkpoint_bytes_total", "Bytes fsync'd into job checkpoint logs and manifests.", js.CheckpointBytes)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	s.metrics.render(buf, s.cache.stats(), s.jobs.Stats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// countingWriter observes what a handler wrote: the first status and
// the body byte count. A zero status after the handler returns means
// nothing was written at all (the client-disconnect bail path).
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (cw *countingWriter) WriteHeader(status int) {
	if cw.status == 0 {
		cw.status = status
	}
	cw.ResponseWriter.WriteHeader(status)
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	n, err := cw.ResponseWriter.Write(p)
	cw.bytes += int64(n)
	return n, err
}

// Unwrap exposes the wrapped writer (the http.ResponseController
// convention), so streaming handlers can reach the server's Flusher
// through the instrumentation.
func (cw *countingWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

// instrument wraps the whole route table: it times every request,
// resolves the endpoint label from the matched ServeMux pattern, and
// classifies silent returns on a cancelled context as 499s.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		endpoint := r.Pattern
		if i := strings.IndexByte(endpoint, ' '); i >= 0 {
			endpoint = endpoint[i+1:]
		}
		if endpoint == "" {
			endpoint = "other" // unmatched path or method: mux's 404/405
		}
		status := cw.status
		if status == 0 {
			if r.Context().Err() != nil {
				status = statusClientClosed
			} else {
				status = http.StatusOK // handler wrote nothing; header-only 200
			}
		}
		reqBytes := r.ContentLength
		if reqBytes < 0 {
			reqBytes = 0
		}
		s.metrics.record(endpoint, status, time.Since(start), reqBytes, cw.bytes)
	})
}

// LintExposition validates Prometheus text exposition format (0.0.4):
// well-formed sample lines, HELP/TYPE comments preceding their family,
// no duplicate family declarations, no duplicate samples, and
// histogram families carrying a terminating +Inf bucket whose count
// matches _count. The serving-bench CI job and the metrics tests run
// it against live /metrics output.
func LintExposition(text []byte) error {
	typed := map[string]string{}      // family -> type
	helped := map[string]bool{}       // family -> HELP seen
	seen := map[string]bool{}         // full sample key (name+labels)
	infCount := map[string]uint64{}   // histogram family -> +Inf total per label set
	countCount := map[string]uint64{} // histogram family -> _count total per label set

	lineNo := 0
	for _, line := range strings.Split(string(text), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			family := fields[2]
			if !validMetricName(family) {
				return fmt.Errorf("line %d: invalid family name %q", lineNo, family)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := typed[family]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for family %s", lineNo, family)
				}
				typed[family] = fields[3]
			} else {
				if helped[family] {
					return fmt.Errorf("line %d: duplicate HELP for family %s", lineNo, family)
				}
				helped[family] = true
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("line %d: sample %s has no preceding TYPE", lineNo, name)
		}
		key := name + "{" + labels + "}"
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", lineNo, key)
		}
		seen[key] = true
		if typed[family] == "histogram" {
			series := family + "{" + stripLabel(labels, "le") + "}"
			if strings.HasSuffix(name, "_bucket") && strings.Contains(labels, `le="+Inf"`) {
				infCount[series] = uint64(value)
			}
			if strings.HasSuffix(name, "_count") {
				countCount[series] = uint64(value)
			}
		}
	}
	for series, n := range countCount {
		inf, ok := infCount[series]
		if !ok {
			return fmt.Errorf("histogram series %s has no +Inf bucket", series)
		}
		if inf != n {
			return fmt.Errorf("histogram series %s: +Inf bucket %d != count %d", series, inf, n)
		}
	}
	for series := range infCount {
		if _, ok := countCount[series]; !ok {
			return fmt.Errorf("histogram series %s has +Inf bucket but no _count", series)
		}
	}
	return nil
}

func validMetricName(name string) bool {
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return name != ""
}

// parseSample splits `name{labels} value` (labels optional) and
// validates the pieces.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
		for _, pair := range splitLabels(labels) {
			eq := strings.IndexByte(pair, '=')
			if eq <= 0 || !validMetricName(pair[:eq]) {
				return "", "", 0, fmt.Errorf("malformed label %q in %q", pair, line)
			}
			v := pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", 0, fmt.Errorf("unquoted label value %q in %q", pair, line)
			}
		}
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = strings.TrimSpace(rest)
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value %q in %q", rest, line)
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(labels string) []string {
	if labels == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(labels); i++ {
		switch labels[i] {
		case '"':
			if i == 0 || labels[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, labels[start:i])
				start = i + 1
			}
		}
	}
	return append(out, labels[start:])
}

// stripLabel removes one label pair from a label body (to key
// histogram series independent of their le label).
func stripLabel(labels, name string) string {
	parts := splitLabels(labels)
	out := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, name+"=") {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}
