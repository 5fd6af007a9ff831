// Service: consume the minserve HTTP API as a client. The example
// embeds the real handler in an in-process test server, then talks to
// it over actual HTTP — the same requests work against a deployed
// `minserve` binary (swap base for its address).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"minequiv/minserve"
)

func main() {
	svc, err := minserve.New(minserve.Config{})
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	base := srv.URL

	// 1. Liveness first: version, uptime and a cache snapshot — what a
	// load balancer or operator polls.
	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	getJSON(base+"/v1/healthz", &health)
	fmt.Printf("healthz: %s (version %s)\n\n", health.Status, health.Version)

	// 2. Discover the catalog and the traffic scenarios.
	var inventory struct {
		Networks []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"networks"`
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	getJSON(base+"/v1/networks", &inventory)
	fmt.Println("networks served:")
	for _, nw := range inventory.Networks {
		fmt.Printf("  %-28s %s\n", nw.Name, nw.Description)
	}
	fmt.Printf("scenarios: %d available\n\n", len(inventory.Scenarios))

	// 3. Check the characterization of a custom butterfly cascade sent
	// as explicit index permutations.
	var check struct {
		Report struct {
			Equivalent bool `json:"equivalent"`
			Banyan     bool `json:"banyan"`
		} `json:"report"`
	}
	postJSON(base+"/v1/check",
		`{"network":"my-cascade","stages":3,"indexPerms":[[2,1,0],[1,0,2]]}`, &check)
	fmt.Printf("custom cascade: banyan=%v baseline-equivalent=%v\n\n",
		check.Report.Banyan, check.Report.Equivalent)

	// 4. Route a packet and print the tag schedule.
	var route struct {
		Path struct {
			Hops []struct {
				Stage   int `json:"stage"`
				Cell    int `json:"cell"`
				OutPort int `json:"outPort"`
			} `json:"hops"`
		} `json:"path"`
		TagPositions []int `json:"tagPositions"`
	}
	postJSON(base+"/v1/route", `{"network":"omega","stages":4,"src":5,"dst":12}`, &route)
	fmt.Printf("omega 5 -> 12 (tags %v):\n", route.TagPositions)
	for _, h := range route.Path.Hops {
		fmt.Printf("  stage %d: cell %2d, out port %d\n", h.Stage+1, h.Cell, h.OutPort)
	}
	fmt.Println()

	// 5. Run a seeded simulation; the same request always returns the
	// same bytes, so results are cacheable and comparable.
	var sim struct {
		Wave struct {
			FaultDropped int `json:"faultDropped"`
			Throughput   struct {
				Mean float64 `json:"mean"`
				CI95 float64 `json:"ci95"`
			} `json:"throughput"`
		} `json:"wave"`
	}
	req := `{"network":"omega","stages":6,"waves":400,"seed":42,"scenario":"uniform"}`
	postJSON(base+"/v1/simulate", req, &sim)
	fmt.Printf("omega n=6 uniform, 400 waves (seed 42): throughput %.4f ± %.4f\n",
		sim.Wave.Throughput.Mean, sim.Wave.Throughput.CI95)

	// 6. The same run on a degraded fabric: a faults object injects
	// random dead switches per trial — still reproducible from the body.
	reqFaulty := `{"network":"omega","stages":6,"waves":400,"seed":42,"scenario":"uniform",` +
		`"faults":{"switchDeadRate":0.03}}`
	postJSON(base+"/v1/simulate", reqFaulty, &sim)
	fmt.Printf("  ... with 3%% dead switches: throughput %.4f ± %.4f (%d fault kills)\n",
		sim.Wave.Throughput.Mean, sim.Wave.Throughput.CI95, sim.Wave.FaultDropped)
	fmt.Println()

	// 7. Check responses are cached by request bytes: repeating a
	// request is served from the LRU (byte-identical to the cold run,
	// X-Cache: HIT) and /v1/healthz carries the counters.
	checkBody := `{"network":"baseline","stages":5}`
	cold, err := http.Post(base+"/v1/check", "application/json", strings.NewReader(checkBody))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, cold.Body)
	cold.Body.Close()
	warm, err := http.Post(base+"/v1/check", "application/json", strings.NewReader(checkBody))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	var health2 struct {
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	getJSON(base+"/v1/healthz", &health2)
	fmt.Printf("check twice: X-Cache %s then %s; cache counters hits=%d misses=%d\n\n",
		cold.Header.Get("X-Cache"), warm.Header.Get("X-Cache"),
		health2.Cache.Hits, health2.Cache.Misses)

	// 8. Batch: N heterogeneous sub-requests in one round trip, answered
	// positionally with per-item cache attribution. Each "body" is
	// byte-identical to what the single endpoint would have returned.
	var batch struct {
		Responses []struct {
			Op     string          `json:"op"`
			Status int             `json:"status"`
			Cache  string          `json:"cache"`
			Body   json.RawMessage `json:"body"`
		} `json:"responses"`
	}
	postJSON(base+"/v1/batch", `{"requests":[`+
		`{"op":"check","request":{"network":"baseline","stages":5}},`+
		`{"op":"route","request":{"network":"omega","stages":4,"src":1,"dst":9}},`+
		`{"op":"check","request":{"network":"nope","stages":4}}]}`, &batch)
	fmt.Println("batch of 3:")
	for i, item := range batch.Responses {
		attr := ""
		if item.Cache != "" {
			attr = " cache=" + item.Cache
		}
		fmt.Printf("  [%d] %-5s status=%d%s (%d body bytes)\n",
			i, item.Op, item.Status, attr, len(item.Body))
	}
	fmt.Println()

	// 9. Errors carry stable machine-readable codes — the third batch
	// item above failed positionally; a direct call shows the envelope.
	resp, err := http.Post(base+"/v1/check", "application/json",
		strings.NewReader(`{"network":"nope","stages":4}`))
	if err != nil {
		log.Fatal(err)
	}
	var werr struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_ = json.Unmarshal(raw, &werr)
	fmt.Printf("error envelope: HTTP %d code=%s (%s)\n\n",
		resp.StatusCode, werr.Error.Code, werr.Error.Message)

	// 10. The serving limits are discoverable, and /metrics exposes the
	// whole serving plane as Prometheus text.
	var limits struct {
		MaxBatch      int `json:"maxBatch"`
		MaxConcurrent int `json:"maxConcurrent"`
		MaxQueueDepth int `json:"maxQueueDepth"`
	}
	getJSON(base+"/v1/limits", &limits)
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	mtext, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	families := 0
	for _, line := range strings.Split(string(mtext), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	fmt.Printf("limits: maxBatch=%d maxConcurrent=%d maxQueueDepth=%d; /metrics serves %d families\n",
		limits.MaxBatch, limits.MaxConcurrent, limits.MaxQueueDepth, families)
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decodeJSON(resp, v)
}

func postJSON(url, body string, v any) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	decodeJSON(resp, v)
}

func decodeJSON(resp *http.Response, v any) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		log.Fatalf("%v in %s", err, raw)
	}
}
