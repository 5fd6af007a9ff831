package minserve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The decoding fuzz targets feed arbitrary bodies to the POST
// endpoints. Whatever arrives, the handler must return a well-formed
// response with a sane status — never panic, never hang, never write a
// non-JSON body. Simulation limits in the fuzz config are tiny so even
// a "valid" random request finishes instantly. CI runs each target for
// a short smoke window on every push.

// fuzzHandler serves with aggressive limits: bodies that decode must
// still be cheap to execute.
func fuzzHandler() http.Handler {
	return testHandler(Config{
		MaxStages: 5,
		MaxTrials: 50,
		MaxCycles: 500,
		MaxFaults: 8,
		// The cache would dedupe repeated fuzz inputs and hide decode
		// work; disable it.
		CacheEntries: -1,
	})
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
	f.Add([]byte(`{"model":42}`))
	f.Add([]byte(`{}`))
	h := fuzzHandler()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, h, "/v1/simulate", body)
	})
}
