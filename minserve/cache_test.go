package minserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

func cacheStats(t *testing.T, h http.Handler) CacheStats {
	t.Helper()
	rec := do(t, h, "GET", "/v1/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/healthz: status %d", rec.Code)
	}
	var resp healthzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/v1/healthz body: %v", err)
	}
	return resp.Cache
}

// TestCacheHitBytesIdentical: the warm response must be byte-for-byte
// the cold response, for /v1/check (with and without iso) and
// /v1/route, with X-Cache reporting what happened.
func TestCacheHitBytesIdentical(t *testing.T) {
	h := newTestHandler()
	for _, body := range []struct{ path, body string }{
		{"/v1/check", `{"network":"omega","stages":5}`},
		{"/v1/check", `{"network":"baseline","stages":5,"iso":true}`},
		{"/v1/check", `{"network":"tail-cycle","stages":4}`},
		{"/v1/route", `{"network":"flip","stages":4,"src":3,"dst":11}`},
	} {
		cold := do(t, h, "POST", body.path, body.body)
		if cold.Code != http.StatusOK {
			t.Fatalf("%s cold: status %d: %s", body.path, cold.Code, cold.Body.String())
		}
		if got := cold.Header().Get("X-Cache"); got != "MISS" {
			t.Errorf("%s cold: X-Cache=%q, want MISS", body.path, got)
		}
		warm := do(t, h, "POST", body.path, body.body)
		if warm.Code != http.StatusOK {
			t.Fatalf("%s warm: status %d", body.path, warm.Code)
		}
		if got := warm.Header().Get("X-Cache"); got != "HIT" {
			t.Errorf("%s warm: X-Cache=%q, want HIT", body.path, got)
		}
		if cold.Body.String() != warm.Body.String() {
			t.Errorf("%s: warm body differs from cold:\ncold %s\nwarm %s",
				body.path, cold.Body.String(), warm.Body.String())
		}
	}
	st := cacheStats(t, h)
	if st.Hits != 4 || st.Misses != 4 || st.Entries != 4 {
		t.Errorf("stats after 4 cold + 4 warm: %+v", st)
	}
	if st.Capacity != 256 {
		t.Errorf("default capacity %d, want 256", st.Capacity)
	}
}

// TestCacheKeyDiscriminates: requests that must not share a body must
// not share an entry — the iso flag, the pair, and the network name all
// participate in the key.
func TestCacheKeyDiscriminates(t *testing.T) {
	h := newTestHandler()
	plain := do(t, h, "POST", "/v1/check", `{"network":"omega","stages":4}`)
	withIso := do(t, h, "POST", "/v1/check", `{"network":"omega","stages":4,"iso":true}`)
	if withIso.Header().Get("X-Cache") != "MISS" {
		t.Error("iso=true served from the iso=false entry")
	}
	if plain.Body.String() == withIso.Body.String() {
		t.Error("iso response identical to plain response")
	}
	a := do(t, h, "POST", "/v1/route", `{"network":"omega","stages":4,"src":0,"dst":5}`)
	b := do(t, h, "POST", "/v1/route", `{"network":"omega","stages":4,"src":0,"dst":6}`)
	if b.Header().Get("X-Cache") != "MISS" {
		t.Error("distinct pair served from cache")
	}
	if a.Body.String() == b.Body.String() {
		t.Error("distinct pairs produced identical bodies")
	}
}

// TestCacheKeyIsRequestBytes: the key is the exact request bytes, so
// two spellings of the same wiring — by catalog name and by explicit
// link permutations — each get their own entry (each misses once, then
// hits) and still render byte-identical bodies, and a key-reordered
// JSON body is a distinct entry too.
func TestCacheKeyIsRequestBytes(t *testing.T) {
	h := newTestHandler()
	// Omega n=3 is the perfect shuffle on 3-bit link labels at both
	// stages: perm[x] = rotate-left-1 of x.
	shuffle := "[0,2,4,6,1,3,5,7]"
	spellings := []string{
		`{"network":"omega","stages":3}`,
		fmt.Sprintf(`{"network":"omega","stages":3,"linkPerms":[%s,%s]}`, shuffle, shuffle),
		`{"stages":3,"network":"omega"}`,
	}
	var bodies []string
	for _, body := range spellings {
		for _, want := range []string{"MISS", "HIT"} {
			rec := do(t, h, "POST", "/v1/check", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			if got := rec.Header().Get("X-Cache"); got != want {
				t.Errorf("%s: X-Cache=%q, want %s", body, got, want)
			}
			bodies = append(bodies, rec.Body.String())
		}
	}
	for i, b := range bodies {
		if b != bodies[0] {
			t.Errorf("response %d differs from the catalog spelling's:\n%s\nvs\n%s", i, b, bodies[0])
		}
	}
	if st := cacheStats(t, h); st.Hits != 3 || st.Misses != 3 || st.Entries != 3 {
		t.Errorf("stats after 3 spellings x (miss, hit): %+v", st)
	}
}

// TestCacheEvictsAtBound: with capacity 2, a third distinct topology
// evicts the least recently used entry.
func TestCacheEvictsAtBound(t *testing.T) {
	h := testHandler(Config{CacheEntries: 2})
	req := func(name string, stages int) string {
		return fmt.Sprintf(`{"network":%q,"stages":%d}`, name, stages)
	}
	do(t, h, "POST", "/v1/check", req("omega", 3))    // {omega}
	do(t, h, "POST", "/v1/check", req("baseline", 3)) // {omega, baseline}
	do(t, h, "POST", "/v1/check", req("omega", 3))    // hit; omega now MRU
	do(t, h, "POST", "/v1/check", req("flip", 3))     // evicts baseline
	st := cacheStats(t, h)
	if st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("entries=%d capacity=%d, want 2/2", st.Entries, st.Capacity)
	}
	if rec := do(t, h, "POST", "/v1/check", req("omega", 3)); rec.Header().Get("X-Cache") != "HIT" {
		t.Error("MRU entry evicted")
	}
	if rec := do(t, h, "POST", "/v1/check", req("baseline", 3)); rec.Header().Get("X-Cache") != "MISS" {
		t.Error("LRU entry survived past the bound")
	}
}

// TestCacheDisabled: negative CacheEntries turns caching off entirely;
// the responses still work and stats stay zero.
func TestCacheDisabled(t *testing.T) {
	h := testHandler(Config{CacheEntries: -1})
	body := `{"network":"omega","stages":4}`
	first := do(t, h, "POST", "/v1/check", body)
	second := do(t, h, "POST", "/v1/check", body)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", first.Code, second.Code)
	}
	if first.Header().Get("X-Cache") != "" || second.Header().Get("X-Cache") != "" {
		t.Error("X-Cache header present with caching disabled")
	}
	if first.Body.String() != second.Body.String() {
		t.Error("uncached responses not deterministic")
	}
	if st := cacheStats(t, h); st != (CacheStats{}) {
		t.Errorf("disabled cache reported stats %+v", st)
	}
}

// TestCacheErrorsNotCached: failed builds and bad requests never enter
// the cache.
func TestCacheErrorsNotCached(t *testing.T) {
	h := newTestHandler()
	bad := `{"network":"no-such-network","stages":4}`
	if rec := do(t, h, "POST", "/v1/check", bad); rec.Code == http.StatusOK {
		t.Fatal("bad network accepted")
	}
	if st := cacheStats(t, h); st.Entries != 0 {
		t.Errorf("error response cached: %+v", st)
	}
}
