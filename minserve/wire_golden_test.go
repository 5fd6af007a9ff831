package minserve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"testing"

	"minequiv/internal/codec"
	"minequiv/internal/jobs"
	"minequiv/min"
)

// Request bodies of TestWireShapesGolden. The pinned route plan holds
// one fault of each kind, none on the 5 → 12 path.
const (
	wireRoute       = `{"network":"omega","stages":4,"src":5,"dst":12}`
	wireRouteFaults = `{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[` +
		`{"kind":"switch-dead","stage":0,"cell":0},{"kind":"switch-stuck0","stage":1,"cell":7},` +
		`{"kind":"switch-stuck1","stage":2,"cell":1},{"kind":"link-down","stage":3,"link":3}]}}`
	wireSimulate = `{"network":"omega","stages":5,"waves":64,"seed":7,"faults":{"faults":[` +
		`{"kind":"switch-stuck0","stage":1,"cell":3},{"kind":"link-down","stage":2,"link":9}],` +
		`"switchDeadRate":0.02,"switchStuckRate":0.01,"linkDownRate":0.01}}`
	wireBuffered = `{"network":"baseline","stages":4,"model":"buffered","replications":2,` +
		`"cycles":200,"warmup":20,"seed":3}`
	wireSweep = `{"networks":["omega","baseline"],"stages":3,"loads":[0.5,1],` +
		`"faultRates":[0,0.01],"trialsPerCell":32,"shardTrials":16,"seed":9}`
)

// TestWireShapesGolden pins the SHA-256 of the response bodies that
// carry the fault plan, the summary statistic and the routed path, in
// both response codecs. Every single-endpoint request is also sent as
// a binary frame and must answer the JSON request's exact bytes, so
// the binary fault-plan decode is covered too. Each body comes from a
// fresh server, so batch cache attribution is always "miss".
func TestWireShapesGolden(t *testing.T) {
	golden := map[string][2]string{ // name -> {JSON digest, binary digest}
		"route": {
			"173c66ee8c0d59a88a5c711cd4e7f4e02b3421710e26f781b4ad7879fde71536",
			"a080ae31cf09b375c174ac6e80932fbd505fbbb2d59e6b2398dc8866feaa1374",
		},
		"route-faults": {
			"e2e28e12b9494371d535c2adfd3b8daa0015aaf01e76c1e7a5fd366e2030e621",
			"a0a04a990448d19dd548397e9f6c8da6e86524bd5a2b12e04063f5a5209028c7",
		},
		"simulate-wave": {
			"b557bcd2f7e3cc19d37037f08ebd805781fb487470b37be366fd6466a2e94596",
			"ff8e0249099d595353f112473aa4cb21864fb384a323b47a81b07f9b7372f943",
		},
		"simulate-buf": {
			"719ffdf5f1637603b58f4da31fe90edef4123197f687f4cc2d5d0dc9a2a85a03",
			"82a2af76aff142c6e3fe2bab51cca25b66ca5dc8ab3d878860227c132c06d4a6",
		},
		"batch": {
			"285b3591a8cc00aa25d0b3a6bc237f7ddb04a757e812d8070759a62a86e165a7",
			"05e05290686b48c7b1beb089c0bd602ad0bf6abe128d2c841fe5ffb0788dd0fd",
		},
		"sweep-result": {
			"a393472bed29851d579d2d942c43d3a1d6db6c394099ac875f9b6130601e7179",
			"e1f77ff32e748bce757e3c71e755b1da997261722fe459de22c188f70b0d6987",
		},
	}
	singles := []struct{ name, endpoint, body string }{
		{"route", "route", wireRoute},
		{"route-faults", "route", wireRouteFaults},
		{"simulate-wave", "simulate", wireSimulate},
		{"simulate-buf", "simulate", wireBuffered},
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	check := func(name string, bin bool, body []byte) {
		t.Helper()
		i := 0
		if bin {
			i = 1
		}
		if got := digest(body); got != golden[name][i] {
			t.Errorf("%s (bin=%t): digest %s, want %s\nbody: %q", name, bin, got, golden[name][i], body)
		}
	}
	accepts := []string{"", MediaTypeBinary}

	var items [][2]string
	for _, tc := range singles {
		items = append(items, [2]string{tc.endpoint, tc.body})
		binReq, err := EncodeBinaryRequest(tc.endpoint, []byte(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		for _, accept := range accepts {
			rec := doWire(t, newTestHandler(), "POST", "/v1/"+tc.endpoint, tc.body, "", accept)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
			check(tc.name, accept != "", rec.Body.Bytes())
			fromBin := doWire(t, newTestHandler(), "POST", "/v1/"+tc.endpoint, string(binReq), MediaTypeBinary, accept)
			if fromBin.Body.String() != rec.Body.String() {
				t.Errorf("%s (accept %q): binary request answered different bytes than JSON", tc.name, accept)
			}
		}
	}

	for _, accept := range accepts {
		rec := doWire(t, newTestHandler(), "POST", "/v1/batch", batchBody(items), "", accept)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
		}
		check("batch", accept != "", rec.Body.Bytes())
	}

	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, wireSweep)
	if st := awaitJob(t, h, id); st.State != jobs.StateDone {
		t.Fatalf("sweep ended %+v", st)
	}
	for _, accept := range accepts {
		rec := doWire(t, h, "GET", "/v1/jobs/"+id+"/result", "", "", accept)
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep result: status %d: %s", rec.Code, rec.Body)
		}
		check("sweep-result", accept != "", rec.Body.Bytes())
	}
}

// TestUnknownFaultKind pins the one text form of a fault kind at the
// API: an unknown kind name is a 400 bad_request on /v1/route and
// /v1/simulate under either response codec, and so is a binary request
// whose kind tag is the zero value or past the last kind.
func TestUnknownFaultKind(t *testing.T) {
	type request struct{ name, body, contentType, accept string }
	h := newTestHandler()
	spec := networkSpec{Network: "omega", Stages: 4}
	for _, endpoint := range []string{"route", "simulate"} {
		body := `{"network":"omega","stages":4,"src":5,"dst":12,"faults":{"faults":[{"kind":"bogus","stage":0}]}}`
		if endpoint == "simulate" {
			body = `{"network":"omega","stages":4,"waves":8,"faults":{"faults":[{"kind":"bogus","stage":0}]}}`
		}
		reqs := []request{{"json", body, "", ""}, {"json", body, "", MediaTypeBinary}}
		for _, kind := range []min.FaultKind{0, min.LinkDown + 1} {
			plan := &min.FaultPlan{Faults: []min.Fault{{Kind: kind}}}
			var v any = &routeRequest{NetworkSpec: spec, Src: 5, Dst: 12, Faults: plan}
			if endpoint == "simulate" {
				v = &simulateRequest{NetworkSpec: spec, Waves: 8, Faults: plan}
			}
			bin, err := codec.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, request{fmt.Sprintf("bin tag %d", uint8(kind)), string(bin), MediaTypeBinary, MediaTypeBinary})
		}
		for _, r := range reqs {
			rec := doWire(t, h, "POST", "/v1/"+endpoint, r.body, r.contentType, r.accept)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s %s (accept %q): status %d: %s", endpoint, r.name, r.accept, rec.Code, rec.Body)
			}
			if we := decodeErrBody(t, rec); we.Error.Code != CodeBadRequest {
				t.Errorf("%s %s (accept %q): code %q want %q", endpoint, r.name, r.accept, we.Error.Code, CodeBadRequest)
			}
		}
	}
}
