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

// testHandler builds the service's handler for cfg. Test configs leave
// JobsDir empty, so New cannot fail.
func testHandler(cfg Config) http.Handler {
	sv, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return sv.Handler()
}

func newTestHandler() http.Handler { return testHandler(Config{}) }

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestNetworksEndpoint(t *testing.T) {
	rec := do(t, newTestHandler(), "GET", "/v1/networks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Networks []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"networks"`
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Networks) != 6 || len(resp.Scenarios) != 9 {
		t.Fatalf("unexpected inventory: %+v", resp)
	}
	// The limits live in /v1/limits only.
	if strings.Contains(rec.Body.String(), "maxStages") {
		t.Errorf("networks body still carries limit fields: %s", rec.Body)
	}
	for _, nw := range resp.Networks {
		if nw.Description == "" {
			t.Errorf("network %s has no description", nw.Name)
		}
	}
	// Method enforcement.
	if rec := do(t, newTestHandler(), "POST", "/v1/networks", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/networks: status %d", rec.Code)
	}
}

// TestNetworksGolden pins the exact GET /v1/networks body: the catalog
// in its stable order with its descriptions, then the scenarios.
func TestNetworksGolden(t *testing.T) {
	rec := do(t, newTestHandler(), "GET", "/v1/networks", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	const golden = `{"networks":[` +
		`{"name":"baseline","description":"the Baseline network (recursive half-size definition)"},` +
		`{"name":"flip","description":"Batcher's Flip network from STARAN (inverse shuffle)"},` +
		`{"name":"indirect-binary-cube","description":"Pease's indirect binary n-cube (ascending butterflies)"},` +
		`{"name":"modified-data-manipulator","description":"Feng's modified data manipulator (descending butterflies)"},` +
		`{"name":"omega","description":"Lawrie's Omega network (perfect shuffle at every stage)"},` +
		`{"name":"reverse-baseline","description":"Baseline with all arcs reversed (subshuffle stages)"}],` +
		`"scenarios":[` +
		`{"name":"uniform","description":"every input sends to an independently uniform destination","loadAware":false},` +
		`{"name":"bernoulli","description":"each input offers with probability Load, uniform destination","loadAware":true},` +
		`{"name":"permutation","description":"a fresh uniform permutation of destinations each wave","loadAware":false},` +
		`{"name":"bitreversal","description":"input i sends to bit-reverse(i), adversarial for shuffles","loadAware":false},` +
		`{"name":"hotspot","description":"each packet targets the hot output with probability HotProb","loadAware":false},` +
		`{"name":"tornado","description":"input i sends to (i + n/2) mod n, the half-offset permutation","loadAware":false},` +
		`{"name":"transpose","description":"address bits rotated by half the width (matrix transpose)","loadAware":false},` +
		`{"name":"neighbor","description":"input i sends to (i+1) mod n, nearest-neighbor streaming","loadAware":false},` +
		`{"name":"bursty","description":"on/off waves: Load with probability BurstProb, else IdleLoad","loadAware":true}]}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot  %s\nwant %s", got, golden)
	}
}

// TestCheckGolden pins the exact JSON the service emits for a small
// catalog check — the wire format is part of the API.
func TestCheckGolden(t *testing.T) {
	rec := do(t, newTestHandler(), "POST", "/v1/check", `{"network":"omega","stages":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	const golden = `{"report":{"network":"omega","stages":3,"equivalent":true,"banyan":true,` +
		`"prefix":[{"i":1,"j":1,"components":4,"expected":4,"ok":true},` +
		`{"i":1,"j":2,"components":2,"expected":2,"ok":true},` +
		`{"i":1,"j":3,"components":1,"expected":1,"ok":true}],` +
		`"suffix":[{"i":1,"j":3,"components":1,"expected":1,"ok":true},` +
		`{"i":2,"j":3,"components":2,"expected":2,"ok":true},` +
		`{"i":3,"j":3,"components":4,"expected":4,"ok":true}]}}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot  %s\nwant %s", got, golden)
	}
}

// TestCheckIsoGolden pins the exact JSON of two checks that ask for
// the isomorphism: an equivalent network, whose report CheckIso fixes
// by the stage count, and the tail cycle, whose report Check computes.
func TestCheckIsoGolden(t *testing.T) {
	prefix := `"prefix":[{"i":1,"j":1,"components":4,"expected":4,"ok":true},` +
		`{"i":1,"j":2,"components":2,"expected":2,"ok":true},` +
		`{"i":1,"j":3,"components":1,"expected":1,"ok":true}],`
	for _, c := range []struct{ body, golden string }{
		{`{"network":"omega","stages":3,"iso":true}`,
			`{"report":{"network":"omega","stages":3,"equivalent":true,"banyan":true,` + prefix +
				`"suffix":[{"i":1,"j":3,"components":1,"expected":1,"ok":true},` +
				`{"i":2,"j":3,"components":2,"expected":2,"ok":true},` +
				`{"i":3,"j":3,"components":4,"expected":4,"ok":true}]},` +
				`"iso":{"maps":[[0,2,1,3],[0,2,1,3],[0,1,2,3]]}}` + "\n"},
		{`{"network":"tail-cycle","stages":3,"iso":true}`,
			`{"report":{"network":"tail-cycle","stages":3,"equivalent":false,"banyan":true,` + prefix +
				`"suffix":[{"i":1,"j":3,"components":1,"expected":1,"ok":true},` +
				`{"i":2,"j":3,"components":1,"expected":2,"ok":false},` +
				`{"i":3,"j":3,"components":4,"expected":4,"ok":true}]}}` + "\n"},
	} {
		rec := do(t, newTestHandler(), "POST", "/v1/check", c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.body, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != c.golden {
			t.Errorf("%s: golden mismatch:\ngot  %s\nwant %s", c.body, got, c.golden)
		}
	}
}

func TestCheckVariants(t *testing.T) {
	h := newTestHandler()
	// The counterexample: Banyan yes, equivalent no.
	rec := do(t, h, "POST", "/v1/check", `{"network":"tail-cycle","stages":4}`)
	var resp struct {
		Report struct {
			Equivalent bool `json:"equivalent"`
			Banyan     bool `json:"banyan"`
			Suffix     []struct {
				OK bool `json:"ok"`
			} `json:"suffix"`
		} `json:"report"`
		Iso *struct {
			Maps [][]int `json:"maps"`
		} `json:"iso"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Equivalent || !resp.Report.Banyan {
		t.Fatalf("tail-cycle report wrong: %s", rec.Body)
	}
	// Isomorphism on request.
	rec = do(t, h, "POST", "/v1/check", `{"network":"flip","stages":4,"iso":true}`)
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Iso == nil || len(resp.Iso.Maps) != 4 || len(resp.Iso.Maps[0]) != 8 {
		t.Fatalf("iso missing or misshapen: %s", rec.Body)
	}
	// Explicit index perms (a butterfly cascade).
	rec = do(t, h, "POST", "/v1/check",
		`{"stages":3,"indexPerms":[[2,1,0],[1,0,2]],"network":"cascade"}`)
	if !strings.Contains(rec.Body.String(), `"equivalent":true`) {
		t.Fatalf("cascade check: %s", rec.Body)
	}
	// Errors.
	for _, bad := range []string{
		`{"network":"nope","stages":4}`,
		`{"stages":4}`,
		`{"network":"omega","stages":99}`,
		`{"network":"omega","stages":4,"bogus":1}`,
		`{"network":"omega","stages":4,"linkPerms":[[0]],"indexPerms":[[0]]}`,
		`not json`,
	} {
		rec := do(t, h, "POST", "/v1/check", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("body %s: no error envelope: %s", bad, rec.Body)
		}
	}
}

func TestRouteEndpoint(t *testing.T) {
	h := newTestHandler()
	rec := do(t, h, "POST", "/v1/route", `{"network":"omega","stages":4,"src":5,"dst":12}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Network string `json:"network"`
		Path    struct {
			Src  int `json:"src"`
			Dst  int `json:"dst"`
			Hops []struct {
				Stage   int `json:"stage"`
				Cell    int `json:"cell"`
				OutPort int `json:"outPort"`
			} `json:"hops"`
		} `json:"path"`
		TagPositions []int `json:"tagPositions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Path.Src != 5 || resp.Path.Dst != 12 || len(resp.Path.Hops) != 4 {
		t.Fatalf("bad path: %s", rec.Body)
	}
	if len(resp.TagPositions) != 4 {
		t.Fatalf("missing tag schedule: %s", rec.Body)
	}
	last := resp.Path.Hops[3]
	if last.Cell*2+last.OutPort != 12 {
		t.Fatalf("path does not land on dst: %s", rec.Body)
	}
	// Out-of-range terminals are a 400, not a panic.
	rec = do(t, h, "POST", "/v1/route", `{"network":"omega","stages":4,"src":5,"dst":99}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oob terminal: status %d", rec.Code)
	}
	// tail-cycle routes via the fallback router, without tags.
	rec = do(t, h, "POST", "/v1/route", `{"network":"tail-cycle","stages":4,"src":0,"dst":7}`)
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), "tagPositions") {
		t.Errorf("tail-cycle route: %d %s", rec.Code, rec.Body)
	}
}

// TestSimulateDeterminism: the same request produces a byte-identical
// response body — the service's reproducibility contract.
func TestSimulateDeterminism(t *testing.T) {
	h := newTestHandler()
	const body = `{"network":"omega","stages":5,"waves":80,"seed":7,"scenario":"transpose","load":0.8}`
	first := do(t, h, "POST", "/v1/simulate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body)
	}
	for i := 0; i < 3; i++ {
		again := do(t, h, "POST", "/v1/simulate", body)
		if again.Body.String() != first.Body.String() {
			t.Fatalf("response changed between identical requests:\n%s\nvs\n%s", first.Body, again.Body)
		}
	}
	// Workers must not change the bytes either.
	withWorkers := do(t, h, "POST", "/v1/simulate",
		`{"network":"omega","stages":5,"waves":80,"seed":7,"scenario":"transpose","load":0.8,"workers":1}`)
	if withWorkers.Body.String() != first.Body.String() {
		t.Fatalf("worker count leaked into response:\n%s\nvs\n%s", first.Body, withWorkers.Body)
	}
	// Unseeded requests default to seed 1, still reproducible.
	a := do(t, h, "POST", "/v1/simulate", `{"network":"flip","stages":4}`)
	b := do(t, h, "POST", "/v1/simulate", `{"network":"flip","stages":4,"seed":1}`)
	if a.Body.String() != b.Body.String() {
		t.Fatal("unseeded request is not seed 1")
	}
}

func TestSimulateBufferedEndpoint(t *testing.T) {
	h := newTestHandler()
	rec := do(t, h, "POST", "/v1/simulate",
		`{"network":"baseline","stages":4,"model":"buffered","load":0.7,"queue":3,"lanes":2,`+
			`"cycles":300,"warmup":30,"replications":2,"seed":3,"arbiter":"roundrobin","laneSelect":"bydst"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Model    string `json:"model"`
		Buffered *struct {
			Delivered      int       `json:"delivered"`
			Replications   int       `json:"replications"`
			StageOccupancy []float64 `json:"stageOccupancy"`
			Latency        struct {
				Mean float64 `json:"mean"`
			} `json:"latency"`
		} `json:"buffered"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "buffered" || resp.Buffered == nil || resp.Buffered.Delivered == 0 ||
		resp.Buffered.Replications != 2 || len(resp.Buffered.StageOccupancy) != 4 {
		t.Fatalf("buffered response wrong: %s", rec.Body)
	}
	// Limits and model mixups.
	for _, bad := range []string{
		`{"network":"omega","stages":4,"waves":1000000}`,
		`{"network":"omega","stages":4,"model":"buffered","cycles":10000000}`,
		`{"network":"omega","stages":4,"model":"buffered","waves":10}`,
		`{"network":"omega","stages":4,"queue":4}`,
		`{"network":"omega","stages":4,"model":"nope"}`,
		`{"network":"omega","stages":4,"scenario":"nope"}`,
	} {
		rec := do(t, h, "POST", "/v1/simulate", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, rec.Code)
		}
	}
	// Past the fabric's stage bound a simulation is a 400, not a fatal
	// out-of-memory, even where the operator admits the size.
	big := testHandler(Config{MaxStages: 16})
	rec = do(t, big, "POST", "/v1/simulate", `{"network":"omega","stages":15,"waves":1}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds the fabric bound of 14") {
		t.Errorf("15-stage simulate: status %d body %s, want 400", rec.Code, rec.Body)
	}
}

// TestSimulateCancellation: a client that disconnects mid-simulation
// stops the engine within one trial instead of burning the full run.
func TestSimulateCancellation(t *testing.T) {
	h := newTestHandler()
	ctx, cancel := context.WithCancel(context.Background())
	body := `{"network":"omega","stages":10,"model":"buffered","replications":100000,` +
		`"cycles":1999,"warmup":1,"load":1.0}`
	req := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()

	var wg sync.WaitGroup
	wg.Add(1)
	done := make(chan struct{})
	go func() {
		defer wg.Done()
		h.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(100 * time.Millisecond) // let a few replications start
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after context cancellation")
	}
	wg.Wait()
	// The handler must not have produced a 200 with a full result.
	if rec.Code == http.StatusOK && strings.Contains(rec.Body.String(), `"replications":100000`) {
		t.Fatalf("full result produced despite cancellation: %s", rec.Body)
	}
}

// TestLimitsCoverDefaults: omitted buffered fields resolve to their
// defaults BEFORE the operator's caps are checked, so a cap below the
// default cannot be slipped past by leaving the field out, and
// negative fields cannot wrap the sum.
func TestLimitsCoverDefaults(t *testing.T) {
	h := testHandler(Config{MaxCycles: 1000})
	for _, bad := range []string{
		`{"network":"omega","stages":4,"model":"buffered"}`,                            // defaults 5000+500 > 1000
		`{"network":"omega","stages":4,"model":"buffered","cycles":900,"warmup":-500}`, // negative field
		`{"network":"omega","stages":4,"model":"buffered","cycles":800,"warmup":300}`,  // 1100 > 1000
		`{"network":"omega","stages":4,"model":"buffered","load":1.5,"cycles":100}`,    // load out of range
	} {
		rec := do(t, h, "POST", "/v1/simulate", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400: %s", bad, rec.Code, rec.Body)
		}
	}
	ok := do(t, h, "POST", "/v1/simulate",
		`{"network":"omega","stages":4,"model":"buffered","cycles":800,"warmup":100}`)
	if ok.Code != http.StatusOK {
		t.Errorf("in-cap request rejected: %s", ok.Body)
	}
}

func TestBodyLimit(t *testing.T) {
	h := testHandler(Config{MaxBodyBytes: 64})
	big := `{"network":"omega","stages":4,"linkPerms":[` + strings.Repeat("[0],", 100) + `[0]]}`
	rec := do(t, h, "POST", "/v1/check", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestHealthzGolden pins the exact healthz body (uptime fixed by an
// injected clock) — the wire format is part of the API.
func TestHealthzGolden(t *testing.T) {
	s := mustServer(t, Config{})
	s.start = time.Unix(1000, 0)
	s.now = func() time.Time { return time.Unix(1042, 500_000_000) }
	h := s.handler()
	rec := do(t, h, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	golden := `{"status":"ok","version":"` + Version + `","uptimeSeconds":42,` +
		`"cache":{"hits":0,"misses":0,"entries":0,"capacity":256},` +
		`"serving":{"requests":0,"inFlight":0,"queueDepth":0,"shed":0,"disconnects":0}}` + "\n"
	if got := rec.Body.String(); got != golden {
		t.Errorf("golden mismatch:\ngot  %swant %s", got, golden)
	}
	// The cache snapshot is live: a check populates it.
	do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`)
	rec = do(t, h, "GET", "/v1/healthz", "")
	if !strings.Contains(rec.Body.String(), `"misses":1`) {
		t.Errorf("healthz cache snapshot stale: %s", rec.Body)
	}
	// Method enforcement.
	if rec := do(t, newTestHandler(), "POST", "/v1/healthz", "{}"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/healthz: status %d", rec.Code)
	}
}

// TestRouteWithFaults: the faults field reroutes through the degraded
// fabric, misses the tag schedule, keys the cache separately from the
// intact route, and rejects random rates and oversized fault lists.
func TestRouteWithFaults(t *testing.T) {
	h := newTestHandler()
	intact := do(t, h, "POST", "/v1/route", `{"network":"omega","stages":4,"src":5,"dst":12}`)
	if intact.Code != http.StatusOK {
		t.Fatalf("intact: status %d: %s", intact.Code, intact.Body)
	}
	// A fault elsewhere leaves the path intact but drops the tag
	// schedule (reachability routing) — and must NOT replay the intact
	// cached bytes.
	faulty := do(t, h, "POST", "/v1/route",
		`{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":0}]}}`)
	if faulty.Code != http.StatusOK {
		t.Fatalf("faulty: status %d: %s", faulty.Code, faulty.Body)
	}
	if strings.Contains(faulty.Body.String(), "tagPositions") {
		t.Errorf("degraded route still reports a tag schedule: %s", faulty.Body)
	}
	if faulty.Body.String() == intact.Body.String() {
		t.Error("fault plan did not reach the cache key")
	}
	// Repeating the faulty request hits the cache with identical bytes.
	again := do(t, h, "POST", "/v1/route",
		`{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":0}]}}`)
	if again.Body.String() != faulty.Body.String() || again.Header().Get("X-Cache") != "HIT" {
		t.Error("faulty route not cached byte-identically")
	}
	// Killing the source's own entry switch unroutes it.
	dead := do(t, h, "POST", "/v1/route",
		`{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":2}]}}`)
	if dead.Code != http.StatusBadRequest || !strings.Contains(dead.Body.String(), "no fault-free path") {
		t.Errorf("dead entry switch: %d %s", dead.Code, dead.Body)
	}
	// Random rates are meaningless for a single route.
	rec := do(t, h, "POST", "/v1/route",
		`{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"switchDeadRate":0.1}}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("random rates on route: status %d", rec.Code)
	}
	// Oversized fault lists are capped.
	hCapped := testHandler(Config{MaxFaults: 1})
	rec = do(t, hCapped, "POST", "/v1/route",
		`{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[`+
			`{"kind":"link-down","stage":0,"link":0},{"kind":"link-down","stage":0,"link":1}]}}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "fault list too long") {
		t.Errorf("fault cap: %d %s", rec.Code, rec.Body)
	}
}

// TestSimulateWithFaults: the faults field degrades the simulation
// deterministically and invalid plans are 400s.
func TestSimulateWithFaults(t *testing.T) {
	h := newTestHandler()
	const intactBody = `{"network":"omega","stages":5,"waves":60,"seed":7}`
	const faultyBody = `{"network":"omega","stages":5,"waves":60,"seed":7,` +
		`"faults":{"switchDeadRate":0.05,"linkDownRate":0.02}}`
	intact := do(t, h, "POST", "/v1/simulate", intactBody)
	faulty := do(t, h, "POST", "/v1/simulate", faultyBody)
	if intact.Code != http.StatusOK || faulty.Code != http.StatusOK {
		t.Fatalf("status %d/%d: %s %s", intact.Code, faulty.Code, intact.Body, faulty.Body)
	}
	if !strings.Contains(faulty.Body.String(), `"faultDropped"`) {
		t.Errorf("degraded run reports no fault drops: %s", faulty.Body)
	}
	if strings.Contains(intact.Body.String(), `"faultDropped"`) {
		t.Errorf("intact run reports fault drops: %s", intact.Body)
	}
	// Reproducible: same body, same bytes.
	again := do(t, h, "POST", "/v1/simulate", faultyBody)
	if again.Body.String() != faulty.Body.String() {
		t.Error("degraded simulation not reproducible from the request body")
	}
	// Buffered model accepts faults too.
	buf := do(t, h, "POST", "/v1/simulate",
		`{"network":"omega","stages":4,"model":"buffered","cycles":200,"warmup":20,"seed":3,`+
			`"faults":{"faults":[{"kind":"switch-dead","stage":1,"cell":0}]}}`)
	if buf.Code != http.StatusOK || !strings.Contains(buf.Body.String(), `"faultDropped"`) {
		t.Errorf("buffered faults: %d %s", buf.Code, buf.Body)
	}
	// Invalid plans are rejected.
	for _, bad := range []string{
		`{"network":"omega","stages":4,"faults":{"switchDeadRate":1.5}}`,
		`{"network":"omega","stages":4,"faults":{"faults":[{"kind":"nope","stage":0}]}}`,
		`{"network":"omega","stages":4,"faults":{"faults":[{"kind":"switch-dead","stage":99}]}}`,
	} {
		rec := do(t, h, "POST", "/v1/simulate", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestSimulateKernelField(t *testing.T) {
	h := newTestHandler()
	const body = `{"network":"omega","stages":5,"waves":100,"seed":3,"kernel":%q}`
	base := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(body, "scalar"))
	if base.Code != http.StatusOK {
		t.Fatalf("status %d: %s", base.Code, base.Body)
	}
	for _, k := range []string{"auto", "bit"} {
		got := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(body, k))
		if got.Code != http.StatusOK {
			t.Fatalf("kernel %q: status %d: %s", k, got.Code, got.Body)
		}
		if got.Body.String() != base.Body.String() {
			t.Fatalf("kernel %q changed the response:\n%s\nvs\n%s", k, got.Body, base.Body)
		}
	}
	// Omitting the field is kernel "auto".
	plain := do(t, h, "POST", "/v1/simulate", `{"network":"omega","stages":5,"waves":100,"seed":3}`)
	if plain.Body.String() != base.Body.String() {
		t.Fatalf("default kernel diverged:\n%s\nvs\n%s", plain.Body, base.Body)
	}
	if rec := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(body, "simd")); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown kernel: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/v1/simulate",
		`{"network":"omega","stages":4,"model":"buffered","cycles":100,"kernel":"bit"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("kernel on buffered model: status %d: %s", rec.Code, rec.Body)
	}
	// The bit kernel admits exactly the Baseline-equivalent wirings: on
	// the tail cycle (Banyan, not equivalent) "bit" is a 400 naming
	// Baseline-equivalence, and "auto" runs scalar, byte for byte.
	const tail = `{"network":"tail-cycle","stages":5,"waves":130,"seed":3,"kernel":%q}`
	if rec := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(tail, "bit")); rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "Baseline-equivalent") {
		t.Fatalf("kernel bit on the tail cycle: status %d: %s", rec.Code, rec.Body)
	}
	scalar := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(tail, "scalar"))
	auto := do(t, h, "POST", "/v1/simulate", fmt.Sprintf(tail, "auto"))
	if scalar.Code != http.StatusOK || auto.Body.String() != scalar.Body.String() {
		t.Fatalf("tail cycle: auto differs from scalar (status %d):\n%s\nvs\n%s", scalar.Code, auto.Body, scalar.Body)
	}
}
