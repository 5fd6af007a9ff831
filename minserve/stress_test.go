package minserve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressBatchCheckConcurrent hammers /v1/batch and /v1/check
// concurrently against one deliberately tiny cache (entries churn and
// evict under load), asserting two invariants under -race:
//
//  1. Byte determinism: every response body, single or batch item, is
//     byte-identical to the reference computed serially on a fresh
//     server — regardless of interleaving, eviction, or which goroutine
//     populated the cache.
//  2. Accounting consistency: every check/route execution is counted as
//     exactly one cache hit (a replay) or miss (an insert), never
//     double- or under-counted, and the entry count never exceeds the
//     configured capacity.
func TestStressBatchCheckConcurrent(t *testing.T) {
	// A distinct request per index; 8 distinct requests churning a
	// 4-entry cache forces steady eviction.
	reqFor := func(i int) string {
		return fmt.Sprintf(`{"network":"omega","stages":%d}`, 3+(i%8))
	}
	// Serial reference bodies (cache disabled: pure computation).
	ref := make(map[string]string)
	refH := testHandler(Config{CacheEntries: -1})
	for i := 0; i < 8; i++ {
		body := reqFor(i)
		rec := do(t, refH, "POST", "/v1/check", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %s: %d", body, rec.Code)
		}
		ref[body] = rec.Body.String()
	}

	s := mustServer(t, Config{CacheEntries: 4})
	h := s.handler()
	const (
		workers    = 8
		iterations = 60
		batchSize  = 5
	)
	var execs atomic.Uint64 // check executions (single + batch items)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				i := w*iterations + it
				if i%3 == 0 {
					// Batch of batchSize checks, staggered indices.
					var items []string
					for j := 0; j < batchSize; j++ {
						items = append(items, fmt.Sprintf(`{"op":"check","request":%s}`, reqFor(i+j)))
					}
					body := `{"requests":[` + strings.Join(items, ",") + `]}`
					req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("batch status %d: %s", rec.Code, rec.Body)
						return
					}
					execs.Add(batchSize)
					// Every sub-body must equal its serial reference.
					got := rec.Body.String()
					for j := 0; j < batchSize; j++ {
						want := strings.TrimSuffix(ref[reqFor(i+j)], "\n")
						if !strings.Contains(got, `,"body":`+want+`}`) {
							t.Errorf("batch item %d body diverged under load", j)
							return
						}
					}
				} else {
					body := reqFor(i)
					req := httptest.NewRequest("POST", "/v1/check", strings.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("check status %d: %s", rec.Code, rec.Body)
						return
					}
					execs.Add(1)
					if got := rec.Body.String(); got != ref[body] {
						t.Errorf("single body diverged under load:\ngot  %swant %s", got, ref[body])
						return
					}
					if xc := rec.Header().Get("X-Cache"); xc != "HIT" && xc != "MISS" {
						t.Errorf("X-Cache %q", xc)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.cache.stats()
	if st.Hits+st.Misses != execs.Load() {
		t.Errorf("accounting drift: hits %d + misses %d != executions %d",
			st.Hits, st.Misses, execs.Load())
	}
	if st.Entries > st.Capacity {
		t.Errorf("cache entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate stress run: hits %d misses %d", st.Hits, st.Misses)
	}
}
