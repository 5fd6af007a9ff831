package minserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
)

// doWire is do with explicit Content-Type/Accept headers ("" omits).
func doWire(t *testing.T, h http.Handler, method, path, body, contentType, accept string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestUnsupportedMediaType pins the 415 path: any Content-Type besides
// JSON (or none) and the binary codec is rejected with the stable code
// on every work endpoint, and the error envelope is JSON even when the
// client asked for binary.
func TestUnsupportedMediaType(t *testing.T) {
	h := newTestHandler()
	for _, path := range []string{"/v1/check", "/v1/route", "/v1/simulate", "/v1/batch", "/v1/jobs"} {
		rec := doWire(t, h, "POST", path, `{}`, "text/xml", MediaTypeBinary)
		if rec.Code != http.StatusUnsupportedMediaType {
			t.Fatalf("%s: status %d want 415: %s", path, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: error Content-Type %q, want JSON", path, ct)
		}
		we := decodeErrBody(t, rec)
		if we.Error.Code != CodeUnsupportedMediaType {
			t.Errorf("%s: code %q want %q", path, we.Error.Code, CodeUnsupportedMediaType)
		}
	}
	// Media parameters are ignored; JSON with a charset still negotiates.
	rec := doWire(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`,
		"application/json; charset=utf-8", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("json with params: status %d: %s", rec.Code, rec.Body)
	}
	// Bare `curl -d` stamps form-urlencoded on a JSON body; the
	// documented quickstart depends on it negotiating as JSON.
	rec = doWire(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`,
		"application/x-www-form-urlencoded", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("curl default content type: status %d: %s", rec.Code, rec.Body)
	}
}

// TestBinaryRequestDecode pins binary request handling: a transcoded
// body answers exactly like its JSON twin, and a torn frame is a 400
// bad_request, not a 5xx.
func TestBinaryRequestDecode(t *testing.T) {
	h := newTestHandler()
	jsonBody := `{"network":"omega","stages":4}`
	want := do(t, h, "POST", "/v1/check", jsonBody).Body.String()

	bin, err := EncodeBinaryRequest("check", []byte(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	rec := doWire(t, h, "POST", "/v1/check", string(bin), MediaTypeBinary, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("binary request: status %d: %s", rec.Code, rec.Body)
	}
	if rec.Body.String() != want {
		t.Errorf("binary-request JSON response differs from JSON-request response:\n%s\nvs\n%s", rec.Body, want)
	}

	rec = doWire(t, h, "POST", "/v1/check", string(bin[:len(bin)-1]), MediaTypeBinary, "")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("torn frame: status %d want 400: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeBadRequest {
		t.Errorf("torn frame code %q want %q", we.Error.Code, CodeBadRequest)
	}
}

// TestCrossCodecParity is the property test of the wire contract: for
// identical seeded requests, the binary response decodes to exactly
// the value the JSON response decodes to, on every negotiated
// direction pair, for check, route and simulate.
func TestCrossCodecParity(t *testing.T) {
	h := newTestHandler()
	cases := []struct {
		endpoint string
		body     string
		decode   func() any
	}{
		{"check", `{"network":"omega","stages":4,"iso":true}`, func() any { return new(checkResponse) }},
		{"check", `{"network":"tail-cycle","stages":4}`, func() any { return new(checkResponse) }},
		{"route", `{"network":"baseline","stages":4,"src":3,"dst":11}`, func() any { return new(routeResponse) }},
		{"route", `{"network":"omega","stages":4,"src":1,"dst":9,"faults":{"faults":[{"kind":"switch-dead","stage":1,"cell":2}]}}`, func() any { return new(routeResponse) }},
		{"simulate", `{"network":"omega","stages":4,"waves":16,"seed":7}`, func() any { return new(simulateResponse) }},
		{"simulate", `{"network":"flip","stages":4,"waves":8,"seed":3,"faults":{"faults":[{"kind":"link-down","stage":0,"link":5}],"switchDeadRate":0.01}}`, func() any { return new(simulateResponse) }},
		{"simulate", `{"network":"omega","stages":3,"model":"buffered","replications":2,"cycles":200,"warmup":20,"seed":9}`, func() any { return new(simulateResponse) }},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d", tc.endpoint, i), func(t *testing.T) {
			path := "/v1/" + tc.endpoint
			binBody, err := EncodeBinaryRequest(tc.endpoint, []byte(tc.body))
			if err != nil {
				t.Fatal(err)
			}

			// JSON-in/JSON-out is the reference; binary-in/JSON-out must
			// replay its exact bytes.
			ref := doWire(t, h, "POST", path, tc.body, "", "")
			if ref.Code != http.StatusOK {
				t.Fatalf("reference: status %d: %s", ref.Code, ref.Body)
			}
			if rec := doWire(t, h, "POST", path, string(binBody), MediaTypeBinary, ""); rec.Body.String() != ref.Body.String() {
				t.Errorf("bin>json bytes differ from json>json")
			}

			want := tc.decode()
			if err := json.Unmarshal(ref.Body.Bytes(), want); err != nil {
				t.Fatal(err)
			}
			// Both request codecs crossed with a binary response must
			// decode to the reference value.
			for _, reqBin := range []bool{false, true} {
				body, ct := tc.body, ""
				if reqBin {
					body, ct = string(binBody), MediaTypeBinary
				}
				rec := doWire(t, h, "POST", path, body, ct, MediaTypeBinary)
				if rec.Code != http.StatusOK {
					t.Fatalf("reqBin=%t: status %d: %s", reqBin, rec.Code, rec.Body)
				}
				if hdr := rec.Header().Get("Content-Type"); hdr != MediaTypeBinary {
					t.Fatalf("reqBin=%t: response Content-Type %q", reqBin, hdr)
				}
				got := tc.decode()
				if err := codec.Decode(rec.Body.Bytes(), got); err != nil {
					t.Fatalf("reqBin=%t: decoding binary response: %v", reqBin, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reqBin=%t: binary stats differ from JSON stats:\ngot  %+v\nwant %+v", reqBin, got, want)
				}
			}
		})
	}
}

// TestCacheCodecIsolation pins that the response cache never crosses
// codecs: the same raw request body served warm under Accept: binary
// and then under JSON yields each codec's own bytes.
func TestCacheCodecIsolation(t *testing.T) {
	h := newTestHandler()
	body := `{"network":"omega","stages":5}`
	// Warm the binary-response entry twice (miss, then raw-lookaside hit).
	first := doWire(t, h, "POST", "/v1/check", body, "", MediaTypeBinary)
	warm := doWire(t, h, "POST", "/v1/check", body, "", MediaTypeBinary)
	if warm.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second binary read not a hit (X-Cache %q)", warm.Header().Get("X-Cache"))
	}
	if first.Body.String() != warm.Body.String() {
		t.Fatal("binary hit bytes differ from cold bytes")
	}
	// The JSON twin of the same raw body must not replay binary bytes.
	jsonRec := doWire(t, h, "POST", "/v1/check", body, "", "")
	var resp checkResponse
	if err := json.Unmarshal(jsonRec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("JSON response after binary warm-up is not JSON: %v: %q", err, jsonRec.Body.String())
	}
	var binResp checkResponse
	if err := codec.Decode(warm.Body.Bytes(), &binResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, binResp) {
		t.Errorf("cached codec views disagree: %+v vs %+v", resp, binResp)
	}
}

// TestBatchBinary pins the binary batch envelope: mixed-codec
// sub-items, positional binary results whose 2xx bodies decode, error
// sub-bodies staying JSON, and cache attribution matching the JSON
// envelope's.
func TestBatchBinary(t *testing.T) {
	h := newTestHandler()
	checkJSON := `{"network":"omega","stages":3}`
	simJSON := `{"network":"omega","stages":3,"waves":4,"seed":2}`
	checkBin, err := EncodeBinaryRequest("check", []byte(checkJSON))
	if err != nil {
		t.Fatal(err)
	}
	req := codec.BatchRequest{Requests: []codec.BatchItem{
		{Op: "check", Request: []byte(checkBin), Bin: true},
		{Op: "check", Request: json.RawMessage(checkJSON)},
		{Op: "simulate", Request: json.RawMessage(simJSON)},
		{Op: "explode", Request: json.RawMessage(`{}`)},
		{Op: "check", Request: []byte(checkBin), Bin: true},
	}}
	envelope, err := codec.Encode(&req)
	if err != nil {
		t.Fatal(err)
	}
	rec := doWire(t, h, "POST", "/v1/batch", string(envelope), MediaTypeBinary, MediaTypeBinary)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp codec.BatchResponse
	if err := codec.Decode(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 5 {
		t.Fatalf("%d responses want 5", len(resp.Responses))
	}
	// Items 0 and 1 are the same check under different request codecs:
	// byte-identical binary response bodies, each from its own cache
	// entry (the key is the request bytes); item 4 repeats item 0's
	// bytes and hits its entry.
	for i := 0; i < 2; i++ {
		r := resp.Responses[i]
		if r.Op != "check" || r.Status != http.StatusOK {
			t.Fatalf("item %d: %+v", i, r)
		}
		var cr checkResponse
		if err := codec.Decode(r.Body, &cr); err != nil {
			t.Fatalf("item %d body: %v", i, err)
		}
		if !cr.Report.Equivalent {
			t.Errorf("item %d: omega not equivalent: %+v", i, cr.Report)
		}
	}
	if !bytes.Equal(resp.Responses[0].Body, resp.Responses[1].Body) {
		t.Error("same check under two request codecs rendered different bytes")
	}
	if resp.Responses[0].Cache != codec.CacheMiss || resp.Responses[1].Cache != codec.CacheMiss ||
		resp.Responses[4].Cache != codec.CacheHit {
		t.Errorf("cache attribution %d,%d,%d want miss,miss,hit",
			resp.Responses[0].Cache, resp.Responses[1].Cache, resp.Responses[4].Cache)
	}
	if !bytes.Equal(resp.Responses[4].Body, resp.Responses[0].Body) {
		t.Error("binary batch hit differs from its cold bytes")
	}
	var sr simulateResponse
	if err := codec.Decode(resp.Responses[2].Body, &sr); err != nil {
		t.Fatalf("simulate body: %v", err)
	}
	if sr.Model != "wave" || sr.Wave == nil || sr.Wave.Waves != 4 {
		t.Errorf("simulate item: %+v", sr)
	}
	// The unknown op fails positionally with a JSON error envelope.
	bad := resp.Responses[3]
	if bad.Status != http.StatusBadRequest || bad.Cache != codec.CacheNone {
		t.Fatalf("bad item: %+v", bad)
	}
	var we wireError
	if err := json.Unmarshal(bad.Body, &we); err != nil || we.Error.Code != CodeBadRequest {
		t.Errorf("bad item body not a JSON error envelope: %v: %s", err, bad.Body)
	}

	// A binary envelope may still ask for the JSON response envelope;
	// its spliced sub-bodies must match the all-JSON batch exactly.
	// Fresh handlers on both sides so cache attribution starts equal.
	jsonEnvelope := `{"requests":[{"op":"check","request":` + checkJSON + `},{"op":"simulate","request":` + simJSON + `}]}`
	h = newTestHandler()
	want := do(t, newTestHandler(), "POST", "/v1/batch", jsonEnvelope).Body.String()
	req2 := codec.BatchRequest{Requests: []codec.BatchItem{
		{Op: "check", Request: json.RawMessage(checkJSON)},
		{Op: "simulate", Request: json.RawMessage(simJSON)},
	}}
	envelope2, err := codec.Encode(&req2)
	if err != nil {
		t.Fatal(err)
	}
	got := doWire(t, h, "POST", "/v1/batch", string(envelope2), MediaTypeBinary, "")
	if got.Code != http.StatusOK || got.Body.String() != want {
		t.Errorf("bin>json batch (%d) differs from json>json batch:\n%s\nvs\n%s", got.Code, got.Body, want)
	}
	// The JSON envelope has no spelling for binary sub-items.
	rejected := do(t, h, "POST", "/v1/batch", `{"requests":[{"op":"check","request":{},"bin":true}]}`)
	if rejected.Code != http.StatusBadRequest {
		t.Errorf("JSON envelope with bin flag: status %d want 400", rejected.Code)
	}
}

// TestJobBinarySubmitAndResult pins the job plane's codec surface: a
// binary spec submits (the 202 status body stays JSON), and the result
// transcodes to binary on Accept, carrying the same manifest.
func TestJobBinarySubmitAndResult(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	binSpec, err := EncodeBinaryRequest("jobs", []byte(smallSweep))
	if err != nil {
		t.Fatal(err)
	}
	rec := doWire(t, h, "POST", "/v1/jobs", string(binSpec), MediaTypeBinary, "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("binary submit status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("submit body not JSON: %v: %s", err, rec.Body)
	}
	awaitJob(t, h, st.ID)

	jsonRec := do(t, h, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if jsonRec.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", jsonRec.Code, jsonRec.Body)
	}
	var want jobs.Result
	if err := json.Unmarshal(jsonRec.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	binRec := doWire(t, h, "GET", "/v1/jobs/"+st.ID+"/result", "", "", MediaTypeBinary)
	if binRec.Code != http.StatusOK {
		t.Fatalf("binary result status %d: %s", binRec.Code, binRec.Body)
	}
	if ct := binRec.Header().Get("Content-Type"); ct != MediaTypeBinary {
		t.Fatalf("binary result Content-Type %q", ct)
	}
	if len(binRec.Body.Bytes()) >= len(jsonRec.Body.Bytes()) {
		t.Errorf("binary manifest (%d B) not smaller than JSON (%d B)",
			binRec.Body.Len(), jsonRec.Body.Len())
	}
	var got jobs.Result
	if err := codec.Decode(binRec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("binary manifest differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestJobResultETag pins the conditional-read contract of the result
// endpoint: a strong ETag per representation, If-None-Match replaying
// 304 with no body, and list/weak/star forms all matching.
func TestJobResultETag(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, smallSweep)
	awaitJob(t, h, id)

	rec := do(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("result status %d etag %q", rec.Code, etag)
	}
	// The binary representation has its own validator.
	binRec := doWire(t, h, "GET", "/v1/jobs/"+id+"/result", "", "", MediaTypeBinary)
	if binTag := binRec.Header().Get("ETag"); binTag == "" || binTag == etag {
		t.Fatalf("binary etag %q vs json %q: want distinct validators", binTag, etag)
	}

	for _, match := range []string{etag, `W/` + etag, `"miss", ` + etag, "*"} {
		req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/result", nil)
		req.Header.Set("If-None-Match", match)
		cond := httptest.NewRecorder()
		h.ServeHTTP(cond, req)
		if cond.Code != http.StatusNotModified {
			t.Errorf("If-None-Match %q: status %d want 304", match, cond.Code)
			continue
		}
		if cond.Body.Len() != 0 {
			t.Errorf("If-None-Match %q: 304 carried a body", match)
		}
		if cond.Header().Get("ETag") != etag {
			t.Errorf("304 etag %q want %q", cond.Header().Get("ETag"), etag)
		}
	}
	// A stale validator re-downloads.
	req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/result", nil)
	req.Header.Set("If-None-Match", `"00000000"`)
	fresh := httptest.NewRecorder()
	h.ServeHTTP(fresh, req)
	if fresh.Code != http.StatusOK || fresh.Body.String() != rec.Body.String() {
		t.Errorf("stale validator: status %d, body match %t", fresh.Code, fresh.Body.String() == rec.Body.String())
	}
}

// TestCodecMetrics pins the negotiation counters into /metrics.
func TestCodecMetrics(t *testing.T) {
	h := newTestHandler()
	doWire(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`, "", "")
	bin, err := EncodeBinaryRequest("check", []byte(`{"network":"omega","stages":3}`))
	if err != nil {
		t.Fatal(err)
	}
	doWire(t, h, "POST", "/v1/check", string(bin), MediaTypeBinary, MediaTypeBinary)
	rec := do(t, h, "GET", "/metrics", "")
	text := rec.Body.String()
	for _, want := range []string{
		`minserve_codec_requests_total{codec="json"} 1`,
		`minserve_codec_requests_total{codec="bin"} 1`,
		`minserve_codec_responses_total{codec="json"} 1`,
		`minserve_codec_responses_total{codec="bin"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSimFaultBodySizes pins the wire size of the fault-heavy simulate
// body in both codecs. The body is the one cmd/minload's simfault op
// sends at its defaults (-stages 6, -waves 32) for variant i = 0: a
// 3-stage omega network with 128 pinned faults, cycling switch-dead,
// switch-stuck1 and link-down.
func TestSimFaultBodySizes(t *testing.T) {
	const i, stages, waves = 0, 6, 32
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
	body := fmt.Sprintf(`{"network":"omega","stages":%d,"waves":%d,"seed":%d,"faults":{"faults":[%s]}}`,
		st, waves, i+1, strings.Join(faults, ","))
	bin, err := EncodeBinaryRequest("simulate", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 5450 || len(bin) != 587 {
		t.Fatalf("simfault body: %d bytes as JSON, %d as binary, want 5450 and 587", len(body), len(bin))
	}
}
