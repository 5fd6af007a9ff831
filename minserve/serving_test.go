package minserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- structured error envelope -------------------------------------

type wireError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		Status  int    `json:"status"`
	} `json:"error"`
}

func decodeErrBody(t *testing.T, rec *httptest.ResponseRecorder) wireError {
	t.Helper()
	var we wireError
	if err := json.Unmarshal(rec.Body.Bytes(), &we); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, rec.Body)
	}
	return we
}

// TestErrorCodesGolden pins every stable error code to a concrete
// trigger: the codes are API, clients switch on them.
func TestErrorCodesGolden(t *testing.T) {
	h := testHandler(Config{MaxTrials: 50})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed json", "/v1/check", `{`, 400, CodeBadRequest},
		{"unknown field", "/v1/check", `{"network":"omega","stages":3,"bogus":1}`, 400, CodeBadRequest},
		{"stages too small", "/v1/check", `{"network":"omega","stages":1}`, 400, CodeBadRequest},
		{"stages over cap", "/v1/check", `{"network":"omega","stages":11}`, 400, CodeLimitExceeded},
		{"unknown network", "/v1/check", `{"network":"nope","stages":4}`, 400, CodeUnknownNetwork},
		{"waves over cap", "/v1/simulate", `{"network":"omega","stages":3,"waves":51}`, 400, CodeLimitExceeded},
		{"cycles over cap", "/v1/simulate", `{"network":"omega","stages":3,"model":"buffered","cycles":999999}`, 400, CodeLimitExceeded},
		// queue and lanes size the buffered packet storage; values far
		// past its bound are refused before any worker allocates, and
		// the cases after these show the server still serving.
		{"queue over storage", "/v1/simulate", `{"network":"omega","stages":10,"model":"buffered","cycles":10,"queue":1099511627776}`, 400, CodeLimitExceeded},
		{"lanes over storage", "/v1/simulate", `{"network":"omega","stages":10,"model":"buffered","cycles":10,"lanes":1099511627776,"queue":1099511627776}`, 400, CodeLimitExceeded},
		{"unknown model", "/v1/simulate", `{"network":"omega","stages":3,"model":"quantum"}`, 400, CodeBadRequest},
		{"unknown kernel", "/v1/simulate", `{"network":"omega","stages":3,"waves":10,"kernel":"simd"}`, 400, CodeBadRequest},
		{"unknown arbiter", "/v1/simulate", `{"network":"omega","stages":3,"model":"buffered","cycles":10,"arbiter":"lottery"}`, 400, CodeBadRequest},
		{"unknown lane select", "/v1/simulate", `{"network":"omega","stages":3,"model":"buffered","cycles":10,"laneSelect":"longest"}`, 400, CodeBadRequest},
		{"kernel on buffered", "/v1/simulate", `{"network":"omega","stages":3,"model":"buffered","cycles":10,"kernel":"auto"}`, 400, CodeBadRequest},
		{"waves on buffered", "/v1/simulate", `{"network":"omega","stages":3,"model":"buffered","waves":10}`, 400, CodeBadRequest},
		{"buffered field on wave", "/v1/simulate", `{"network":"omega","stages":3,"arbiter":"random"}`, 400, CodeBadRequest},
		{"empty batch", "/v1/batch", `{"requests":[]}`, 400, CodeBadRequest},
		{"unknown batch op", "/v1/batch", `{"requests":[{"op":"explode","request":{}}]}`, 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, "POST", tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if tc.code == "" {
				return
			}
			we := decodeErrBody(t, rec)
			if we.Error.Code != tc.code {
				t.Errorf("code %q want %q (%s)", we.Error.Code, tc.code, rec.Body)
			}
			if we.Error.Status != tc.status {
				t.Errorf("envelope status %d want %d", we.Error.Status, tc.status)
			}
			// The envelope is the structured object alone.
			var top map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil || len(top) != 1 || we.Error.Message == "" {
				t.Errorf("envelope is not exactly {\"error\":{...}}: %s", rec.Body)
			}
		})
	}
}

// TestErrorCode413 pins the oversized-body path to limit_exceeded.
func TestErrorCode413(t *testing.T) {
	h := testHandler(Config{MaxBodyBytes: 64})
	big := `{"network":"omega","stages":3,"x":"` + strings.Repeat("a", 200) + `"}`
	rec := do(t, h, "POST", "/v1/check", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeLimitExceeded {
		t.Errorf("413 code %q want %q", we.Error.Code, CodeLimitExceeded)
	}
}

// --- /v1/limits ----------------------------------------------------

// TestLimitsGolden pins the limits body byte-for-byte (explicit config
// so GOMAXPROCS never leaks into the golden).
func TestLimitsGolden(t *testing.T) {
	h := testHandler(Config{
		MaxWorkers: 4, MaxConcurrent: 8,
		QueueWait: 2 * time.Second, RequestTimeout: 30 * time.Second,
	})
	rec := do(t, h, "GET", "/v1/limits", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	golden := `{"maxBodyBytes":1048576,"maxStages":10,"maxTrials":100000,` +
		`"maxCycles":200000,"maxWorkers":4,"maxFaults":256,"maxBatch":64,` +
		`"cacheEntries":256,"maxConcurrent":8,"maxQueueDepth":64,` +
		`"queueWaitMs":2000,"requestTimeoutMs":30000,"maxJobs":16,` +
		`"maxJobCells":256,"jobShardTrials":2048,"jobTtlMs":3600000}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot  %swant %s", got, golden)
	}
}

// --- batch ----------------------------------------------------------

// singleBodies runs each (op, body) pair against its single endpoint on
// h and returns the response bodies.
func singleBodies(t *testing.T, h http.Handler, items [][2]string) []string {
	t.Helper()
	out := make([]string, len(items))
	for i, it := range items {
		rec := do(t, h, "POST", "/v1/"+it[0], it[1])
		if rec.Code != http.StatusOK {
			t.Fatalf("single %s: status %d: %s", it[0], rec.Code, rec.Body)
		}
		out[i] = rec.Body.String()
	}
	return out
}

func batchBody(items [][2]string) string {
	var b strings.Builder
	b.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"request":%s}`, it[0], it[1])
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestBatchByteIdentity is the determinism golden: a cold batch of
// mixed sub-requests returns, positionally, byte-identical bodies to N
// single calls on an identically configured fresh server — and the
// envelope is assembled exactly as documented.
func TestBatchByteIdentity(t *testing.T) {
	items := [][2]string{
		{"check", `{"network":"omega","stages":3}`},
		{"route", `{"network":"baseline","stages":4,"src":3,"dst":11}`},
		{"simulate", `{"network":"omega","stages":3,"waves":16,"seed":7}`},
		{"check", `{"network":"tail-cycle","stages":4}`},
	}
	// Reference bodies from a fresh server (all cold misses).
	singles := singleBodies(t, newTestHandler(), items)

	// The batch on another fresh server: same cache state, so the
	// envelope is fully predictable.
	expect := `{"responses":[`
	for i, it := range items {
		if i > 0 {
			expect += ","
		}
		expect += fmt.Sprintf(`{"op":%q,"status":200`, it[0])
		if it[0] != "simulate" {
			expect += `,"cache":"miss"`
		}
		expect += `,"body":` + strings.TrimSuffix(singles[i], "\n") + `}`
	}
	expect += "]}\n"

	rec := do(t, newTestHandler(), "POST", "/v1/batch", batchBody(items))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != expect {
		t.Errorf("batch envelope mismatch:\ngot  %swant %s", got, expect)
	}

	// Determinism: replaying the identical batch yields an identical
	// envelope except for miss->hit attribution on the cached ops.
	rec2 := do(t, newTestHandler(), "POST", "/v1/batch", batchBody(items))
	if rec2.Body.String() != rec.Body.String() {
		t.Errorf("cold batch not deterministic across fresh servers")
	}
}

// TestBatchCacheAttribution: per-item cache fields report exactly what
// X-Cache would have, and batch items share the cache with singles.
func TestBatchCacheAttribution(t *testing.T) {
	h := newTestHandler()
	check := `{"network":"omega","stages":3}`
	// Warm via a single call...
	do(t, h, "POST", "/v1/check", check)
	// ...then a batch repeating it twice plus a cold route.
	items := [][2]string{
		{"check", check},
		{"check", check},
		{"route", `{"network":"omega","stages":3,"src":0,"dst":5}`},
	}
	rec := do(t, h, "POST", "/v1/batch", batchBody(items))
	var resp struct {
		Responses []struct {
			Op     string          `json:"op"`
			Status int             `json:"status"`
			Cache  string          `json:"cache"`
			Body   json.RawMessage `json:"body"`
		} `json:"responses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch body: %v: %s", err, rec.Body)
	}
	want := []string{"hit", "hit", "miss"}
	for i, w := range want {
		if resp.Responses[i].Cache != w {
			t.Errorf("item %d cache %q want %q", i, resp.Responses[i].Cache, w)
		}
	}
	// And the single endpoint now hits what the batch just warmed.
	rec = do(t, h, "POST", "/v1/route", items[2][1])
	if got := rec.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("single route after batch: X-Cache %q want HIT", got)
	}
}

// TestBatchErrorsPositional: a failing sub-request yields its own
// structured error in place without failing its neighbours.
func TestBatchErrorsPositional(t *testing.T) {
	items := [][2]string{
		{"check", `{"network":"omega","stages":3}`},
		{"check", `{"network":"nope","stages":3}`},
		{"frobnicate", `{}`},
		{"check", `{"network":"omega","stages":11}`},
	}
	rec := do(t, newTestHandler(), "POST", "/v1/batch", batchBody(items))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Responses []struct {
			Status int `json:"status"`
			Body   struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			} `json:"body"`
		} `json:"responses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("batch body: %v: %s", err, rec.Body)
	}
	wantStatus := []int{200, 400, 400, 400}
	wantCode := []string{"", CodeUnknownNetwork, CodeBadRequest, CodeLimitExceeded}
	for i := range wantStatus {
		if resp.Responses[i].Status != wantStatus[i] {
			t.Errorf("item %d status %d want %d", i, resp.Responses[i].Status, wantStatus[i])
		}
		if resp.Responses[i].Body.Error.Code != wantCode[i] {
			t.Errorf("item %d code %q want %q", i, resp.Responses[i].Body.Error.Code, wantCode[i])
		}
	}
}

// TestBatchTooLarge pins the batch size cap to limit_exceeded.
func TestBatchTooLarge(t *testing.T) {
	h := testHandler(Config{MaxBatch: 2})
	items := [][2]string{
		{"check", `{"network":"omega","stages":3}`},
		{"check", `{"network":"omega","stages":4}`},
		{"check", `{"network":"omega","stages":5}`},
	}
	rec := do(t, h, "POST", "/v1/batch", batchBody(items))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeLimitExceeded {
		t.Errorf("code %q want %q", we.Error.Code, CodeLimitExceeded)
	}
}

// TestBatchMidCancellation: a client vanishing mid-batch stops the work
// within one sub-request and writes nothing.
func TestBatchMidCancellation(t *testing.T) {
	h := newTestHandler()
	items := [][2]string{
		{"check", `{"network":"omega","stages":3}`},
		{"simulate", `{"network":"indirect-binary-cube","stages":10,"waves":100000,"workers":1}`},
		{"check", `{"network":"omega","stages":4}`},
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(batchBody(items))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	time.Sleep(20 * time.Millisecond) // let item 0 finish, item 1 start
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("batch did not stop after client cancellation")
	}
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled batch wrote %d bytes; want none", rec.Body.Len())
	}
}

// --- metrics --------------------------------------------------------

// TestMetricsExposition drives traffic, then checks the exposition is
// lint-clean and carries the promised families with sane values.
func TestMetricsExposition(t *testing.T) {
	h := newTestHandler()
	do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`)
	do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`) // warm hit
	do(t, h, "POST", "/v1/check", `{"network":"nope","stages":3}`)  // 400
	do(t, h, "GET", "/v1/healthz", "")
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := rec.Body.String()
	if err := LintExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`minserve_requests_total{endpoint="/v1/check",code="200"} 2`,
		`minserve_requests_total{endpoint="/v1/check",code="400"} 1`,
		`minserve_requests_total{endpoint="/v1/healthz",code="200"} 1`,
		`minserve_request_duration_seconds_count{endpoint="/v1/check"} 3`,
		`minserve_request_duration_seconds_bucket{endpoint="/v1/check",le="+Inf"} 3`,
		`minserve_cache_hits_total 1`,
		`minserve_cache_misses_total 1`,
		`minserve_cache_hit_ratio 0.5`,
		`minserve_in_flight 0`,
		`minserve_shed_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestLintExpositionRejects: the linter actually bites.
func TestLintExpositionRejects(t *testing.T) {
	bad := []struct{ name, text string }{
		{"sample without TYPE", "foo 1\n"},
		{"duplicate TYPE", "# TYPE a counter\n# TYPE a counter\na 1\n"},
		{"duplicate sample", "# TYPE a counter\na 1\na 2\n"},
		{"unknown type", "# TYPE a wavelet\na 1\n"},
		{"bad value", "# TYPE a counter\na one\n"},
		{"unquoted label", `# TYPE a counter` + "\n" + `a{x=1} 1` + "\n"},
		{"histogram without inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"inf mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n"},
	}
	for _, tc := range bad {
		if err := LintExposition([]byte(tc.text)); err == nil {
			t.Errorf("%s: lint accepted\n%s", tc.name, tc.text)
		}
	}
}

// TestDisconnectCounts499: a client that vanishes mid-simulate is
// recorded as a 499, not a 4xx/5xx.
func TestDisconnectCounts499(t *testing.T) {
	h := newTestHandler()
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"network":"indirect-binary-cube","stages":10,"waves":100000,"workers":1}`
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() { defer close(done); h.ServeHTTP(rec, req) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	<-done
	if rec.Body.Len() != 0 {
		t.Fatalf("disconnected client got %d bytes", rec.Body.Len())
	}
	text := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(text, `minserve_requests_total{endpoint="/v1/simulate",code="499"} 1`) {
		t.Errorf("499 not recorded:\n%s", text)
	}
	if !strings.Contains(text, `minserve_client_disconnects_total 1`) {
		t.Errorf("disconnect counter not bumped:\n%s", text)
	}
}

// --- admission control ---------------------------------------------

// TestInFlightBound hammers the work plane and asserts the concurrency
// bound holds via the peak gauge (tracked at the only place requests
// enter execution).
func TestInFlightBound(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 3, MaxQueueDepth: 64, QueueWait: 5 * time.Second})
	h := s.handler()
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"network":"omega","stages":3,"waves":32,"seed":%d}`, i+1)
			req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
			}
		}(i)
	}
	wg.Wait()
	if peak := s.metrics.inFlightPeak.Load(); peak > 3 {
		t.Errorf("in-flight peak %d exceeded bound 3", peak)
	}
	if depth := s.metrics.queueDepth.Load(); depth != 0 {
		t.Errorf("queue depth %d after drain", depth)
	}
}

// TestLoadShedding saturates a one-slot server with no queue and
// asserts the contender is shed with 429 + Retry-After + code.
func TestLoadShedding(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1, MaxQueueDepth: -1})
	h := s.handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := `{"network":"indirect-binary-cube","stages":10,"waves":100000,"workers":1}`
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(slow)).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// Wait until the slow request holds the slot.
	for i := 0; s.metrics.inFlight.Load() == 0; i++ {
		if i > 500 {
			t.Fatal("slow request never entered execution")
		}
		time.Sleep(time.Millisecond)
	}
	rec := do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("contender status %d want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Errorf("429 without Retry-After")
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeOverloaded {
		t.Errorf("shed code %q want %q", we.Error.Code, CodeOverloaded)
	}
	if s.metrics.shed.Load() != 1 {
		t.Errorf("shed counter %d want 1", s.metrics.shed.Load())
	}
	// GET endpoints bypass admission even while saturated.
	if rec := do(t, h, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Errorf("healthz under saturation: %d", rec.Code)
	}
	cancel()
	<-done
}

// TestQueueWaitShedding: with a queue but a tiny wait budget, a waiter
// times out into a 429 instead of hanging.
func TestQueueWaitShedding(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1, MaxQueueDepth: 4, QueueWait: 20 * time.Millisecond})
	h := s.handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slow := `{"network":"indirect-binary-cube","stages":10,"waves":100000,"workers":1}`
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(slow)).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	for i := 0; s.metrics.inFlight.Load() == 0; i++ {
		if i > 500 {
			t.Fatal("slow request never entered execution")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	rec := do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("waiter status %d want 429", rec.Code)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("queue wait %v far beyond the 20ms budget", waited)
	}
	cancel()
	<-done
}

// TestRequestDeadline: the per-request timeout fails slow work with a
// diagnosable 503 deadline_exceeded.
func TestRequestDeadline(t *testing.T) {
	h := testHandler(Config{RequestTimeout: 50 * time.Millisecond})
	slow := `{"network":"indirect-binary-cube","stages":10,"waves":100000,"workers":1}`
	rec := do(t, h, "POST", "/v1/simulate", slow)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code %q want %q", we.Error.Code, CodeDeadlineExceeded)
	}
}
