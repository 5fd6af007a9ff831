package minserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
)

// The decoding fuzz targets feed arbitrary bodies to the POST
// endpoints. Whatever arrives, the handler must return a well-formed
// response with a sane status — never panic, never hang, never write a
// non-JSON body. Simulation limits in the fuzz config are tiny so even
// a "valid" random request finishes instantly. CI runs each target for
// a short smoke window on every push.

// fuzzConfig has aggressive limits: bodies that decode must still be
// cheap to execute.
var fuzzConfig = Config{MaxStages: 5, MaxTrials: 50, MaxCycles: 500, MaxFaults: 8}

// fuzzHandler serves fuzzConfig with the cache off: it would dedupe
// repeated fuzz inputs and hide decode work.
func fuzzHandler() http.Handler {
	cfg := fuzzConfig
	cfg.CacheEntries = -1
	return testHandler(cfg)
}

func fuzzPost(t *testing.T, h http.Handler, path string, body []byte) {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("unexpected status %d for body %q", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("non-JSON response (%q) for body %q", ct, body)
	}
	if rec.Code != http.StatusOK && !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("error status %d without error envelope: %s", rec.Code, rec.Body)
	}
}

// FuzzDecodeCheck fuzzes the /v1/check request decoder (networkSpec
// with catalog names, link perms and index perms).
func FuzzDecodeCheck(f *testing.F) {
	f.Add([]byte(`{"network":"omega","stages":3}`))
	f.Add([]byte(`{"network":"tail-cycle","stages":4,"iso":true}`))
	f.Add([]byte(`{"stages":3,"indexPerms":[[2,1,0],[1,0,2]]}`))
	f.Add([]byte(`{"stages":3,"linkPerms":[[0,1,2,3,4,5,6,7],[7,6,5,4,3,2,1,0]]}`))
	f.Add([]byte(`{"stages":-1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"network":"omega","stages":3}{"trailing":1}`))
	h := fuzzHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, h, "/v1/check", body)
	})
}

// FuzzDecodeSimulate fuzzes the /v1/simulate request decoder (model
// selection, tunables, scenario parameters and the fault plan).
func FuzzDecodeSimulate(f *testing.F) {
	f.Add([]byte(`{"network":"omega","stages":3,"waves":5,"seed":1}`))
	f.Add([]byte(`{"network":"flip","stages":3,"model":"buffered","cycles":50,"warmup":5,"queue":2}`))
	f.Add([]byte(`{"network":"omega","stages":3,"scenario":"hotspot","hotProb":0.5,"load":0.3}`))
	f.Add([]byte(`{"network":"omega","stages":3,"waves":5,"faults":{"switchDeadRate":0.1,` +
		`"faults":[{"kind":"link-down","stage":1,"link":2}]}}`))
	f.Add([]byte(`{"network":"omega","stages":3,"model":"buffered","waves":5}`))
	f.Add([]byte(`{"network":"omega","stages":3,"waves":5,"faults":{"faults":[{"kind":"bogus","stage":0}]}}`))
	f.Add([]byte(`{"model":42}`))
	f.Add([]byte(`{}`))
	h := fuzzHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, h, "/v1/simulate", body)
	})
}

// FuzzCachedReplay fuzzes the response cache's replay contract. For
// arbitrary /v1/check and /v1/route bodies under either request codec
// (and either response codec), a fresh cache-on server must answer the
// cold request and its warm repeat with exactly the cache-off body and
// status, and an error response must never enter the cache.
func FuzzCachedReplay(f *testing.F) {
	for _, seed := range []struct {
		route bool
		body  string
	}{
		{false, `{"network":"omega","stages":3}`},
		{false, `{"network":"baseline","stages":4,"iso":true}`},
		{false, `{"network":"tail-cycle","stages":4,"iso":true}`},
		{false, `{"stages":3,"linkPerms":[[0,2,4,6,1,3,5,7],[0,2,4,6,1,3,5,7]]}`},
		{false, `{"network":"no-such","stages":3}`},
		{true, `{"network":"flip","stages":4,"src":3,"dst":11}`},
		{true, `{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":0}]}}`},
		{true, `{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":2}]}}`},
		{true, `{"network":"omega","stages":3,"src":0,"dst":99}`},
	} {
		op := "check"
		if seed.route {
			op = "route"
		}
		f.Add(seed.route, false, false, []byte(seed.body))
		f.Add(seed.route, false, true, []byte(seed.body))
		if bin, err := EncodeBinaryRequest(op, []byte(seed.body)); err == nil {
			f.Add(seed.route, true, false, bin)
			f.Add(seed.route, true, true, bin)
		}
	}
	f.Add(false, true, false, []byte("MB\x01\x00"))
	off := fuzzHandler()
	f.Fuzz(func(t *testing.T, route, reqBin, respBin bool, body []byte) {
		path := "/v1/check"
		if route {
			path = "/v1/route"
		}
		var contentType, accept string
		if reqBin {
			contentType = MediaTypeBinary
		}
		if respBin {
			accept = MediaTypeBinary
		}
		want := doWire(t, off, "POST", path, string(body), contentType, accept)
		s := mustServer(t, fuzzConfig)
		on := s.handler()
		for _, pass := range []string{"cold", "warm"} {
			got := doWire(t, on, "POST", path, string(body), contentType, accept)
			if got.Code != want.Code || got.Body.String() != want.Body.String() {
				t.Fatalf("%s %s differs from cache-off: status %d vs %d\n%q\nvs\n%q",
					pass, path, got.Code, want.Code, got.Body, want.Body)
			}
		}
		st := s.cache.stats()
		switch {
		case want.Code != http.StatusOK && (st.Hits != 0 || st.Misses != 0 || st.Entries != 0):
			t.Fatalf("error response %d touched the cache: %+v", want.Code, st)
		case want.Code == http.StatusOK && (st.Hits != 1 || st.Misses != 1 || st.Entries != 1):
			t.Fatalf("cold+warm success accounted as %+v, want one miss then one hit", st)
		}
	})
}

// FuzzDecodeBatch fuzzes the /v1/batch envelope decoder under both
// codecs: bit 0 of flag sends body as a binary request envelope
// (application/x-min-bin) instead of JSON, and bit 1 asks for a binary
// response envelope. Whatever arrives, the handler must not panic or
// answer 5xx, and a 200 must carry exactly one positional item, none
// of them 5xx, per request in the envelope.
func FuzzDecodeBatch(f *testing.F) {
	oversize := `{"requests":[` + strings.Repeat(`{"op":"check","request":{"network":"omega","stages":3}},`, 64) +
		`{"op":"check","request":{"network":"omega","stages":3}}]}`
	for _, seed := range []string{
		`{"requests":[{"op":"check","request":{"network":"omega","stages":3}},` +
			`{"op":"route","request":{"network":"flip","stages":3,"src":1,"dst":6}},` +
			`{"op":"simulate","request":{"network":"baseline","stages":3,"waves":5,"seed":1}}]}`,
		`{"requests":[]}`,
		oversize,
		`{"requests":[{"op":"check","request":{"network":"tail-cycle","stages":4,"iso":true}}]}`,
		`{"requests":[{"op":"route","request":{"network":"omega","stages":3,"src":0,"dst":7}}]}`,
		`{"requests":[{"op":"simulate","request":{"network":"omega","stages":3,"model":"buffered","cycles":50,"warmup":5}}]}`,
	} {
		f.Add(byte(0), []byte(seed))
		f.Add(byte(2), []byte(seed))
		if bin, err := EncodeBinaryRequest("batch", []byte(seed)); err == nil {
			f.Add(byte(1), bin)
			f.Add(byte(3), bin)
		}
	}
	f.Add(byte(1), []byte("MB\x01\x00"))
	h := fuzzHandler()
	f.Fuzz(func(t *testing.T, flag byte, body []byte) {
		var contentType, accept string
		wi := wire{reqBin: flag&1 == 1, respBin: flag&2 == 2}
		if wi.reqBin {
			contentType = MediaTypeBinary
		}
		if wi.respBin {
			accept = MediaTypeBinary
		}
		rec := doWire(t, h, "POST", "/v1/batch", string(body), contentType, accept)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("unexpected status %d for flag %d body %q", rec.Code, flag, body)
		}
		var req batchRequest
		if err := decodeRequest(wi, body, &req); err != nil {
			t.Fatalf("200 for an envelope that does not decode: %v", err)
		}
		var statuses []int
		if wi.respBin {
			var resp codec.BatchResponse
			if err := codec.Decode(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("binary batch response does not decode: %v", err)
			}
			for _, item := range resp.Responses {
				statuses = append(statuses, item.Status)
			}
		} else {
			var resp struct {
				Responses []struct {
					Status int `json:"status"`
				} `json:"responses"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("JSON batch response does not decode: %v\n%s", err, rec.Body)
			}
			for _, item := range resp.Responses {
				statuses = append(statuses, item.Status)
			}
		}
		if len(statuses) != len(req.Requests) {
			t.Fatalf("%d positional items for %d requests", len(statuses), len(req.Requests))
		}
		for i, status := range statuses {
			if status >= 500 {
				t.Fatalf("item %d answered %d", i, status)
			}
		}
	})
}

// FuzzDecodeJobSpec fuzzes the POST /v1/jobs spec decoder in both
// codecs: flag bit 0 sends the body as a binary frame
// (application/x-min-bin) instead of JSON. The server's job plane is
// killed up front, so a spec that passes decoding, the serving layer's
// size policy and the job plane's own validation is answered 503
// instead of running. Whatever arrives, the handler must not panic,
// must answer 400, 413 or that 503, and must answer 503 only for a
// spec that decodes and fits the policy.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, seed := range []string{
		smallSweep,
		`{"networks":["omega","flip"],"stages":4,"loads":[0.5,1],"faultRates":[0,0.1],"trialsPerCell":16,"kernel":"bit"}`,
		`{"networks":["tail-cycle"],"stages":4,"trialsPerCell":8}`,
		`{"networks":["omega"],"stages":99,"trialsPerCell":8}`,
		`{"networks":["omega"],"stages":3,"trialsPerCell":8,"scenario":"nope"}`,
		`{"networks":[],"stages":3,"trialsPerCell":8}`,
		`{}`,
	} {
		f.Add(byte(0), []byte(seed))
		if bin, err := EncodeBinaryRequest("jobs", []byte(seed)); err == nil {
			f.Add(byte(1), bin)
		}
	}
	f.Add(byte(1), []byte("MB\x01\x09"))
	s, err := newServer(fuzzConfig)
	if err != nil {
		f.Fatal(err)
	}
	s.jobs.Kill()
	h := (&Server{s: s}).Handler()
	f.Fuzz(func(t *testing.T, flag byte, body []byte) {
		wi := wire{reqBin: flag&1 == 1}
		var contentType string
		if wi.reqBin {
			contentType = MediaTypeBinary
		}
		rec := doWire(t, h, "POST", "/v1/jobs", string(body), contentType, "")
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusServiceUnavailable:
			var spec jobs.Spec
			if err := decodeRequest(wi, body, &spec); err != nil {
				t.Fatalf("503 for a spec that does not decode: %v", err)
			}
			if err := s.checkJobSpec(spec); err != nil {
				t.Fatalf("503 for a spec outside the policy: %v", err)
			}
		default:
			t.Fatalf("unexpected status %d for flag %d body %q: %s", rec.Code, flag, body, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("status %d without error envelope: %s", rec.Code, rec.Body)
		}
	})
}

// FuzzEventCursor fuzzes the job-event resume cursor: the raw query
// string (whose since parameter wins) and the Last-Event-ID header an
// EventSource sends on reconnect. A cursor that parses is the
// non-negative integer its source spells; anything else is a 400
// bad_request.
func FuzzEventCursor(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"since=0", ""}, {"since=42", "7"}, {"", "17"}, {"since=-1", ""},
		{"since=9223372036854775808", ""}, {"", "+5"}, {"since=%zz", "3"}, {"since=&since=4", "x"},
		{"waitMs=10", "abc"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rawQuery, lastEventID string) {
		req := httptest.NewRequest("GET", "/v1/jobs/x/events", nil)
		req.URL.RawQuery = rawQuery
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		since, err := eventCursor(req)
		if err != nil {
			if env, status := envelopeFor(err); status != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
				t.Fatalf("cursor error answered %d %q: %v", status, env.Error.Code, err)
			}
			return
		}
		raw := req.URL.Query().Get("since")
		if raw == "" {
			raw = req.Header.Get("Last-Event-ID")
		}
		if raw == "" {
			if since != 0 {
				t.Fatalf("no cursor resolved to %d", since)
			}
			return
		}
		if want, perr := strconv.ParseInt(raw, 10, 64); perr != nil || since != want || since < 0 {
			t.Fatalf("cursor %q resolved to %d", raw, since)
		}
	})
}
