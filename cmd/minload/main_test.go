package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minequiv/minserve"
)

// TestHistQuantiles: the geometric histogram brackets known samples.
func TestHistQuantiles(t *testing.T) {
	h := &hist{}
	// 100 samples at ~100us, 10 at ~10ms: p50 near 100us, p99+ near 10ms.
	for i := 0; i < 100; i++ {
		h.add(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.add(10 * time.Millisecond)
	}
	if p50 := h.quantile(0.50); p50 < 50 || p50 > 200 {
		t.Errorf("p50 %.0fus out of bracket", p50)
	}
	if p99 := h.quantile(0.999); p99 < 5000 || p99 > 20000 {
		t.Errorf("p99.9 %.0fus out of bracket", p99)
	}
	var m hist
	m.merge(h)
	if m.count != 110 || m.maxUs < 9000 {
		t.Errorf("merge lost samples: count %d max %.0f", m.count, m.maxUs)
	}
}

// TestBuildMix: parsing, normalization, validation.
func TestBuildMix(t *testing.T) {
	ops, err := buildMix("check=3,route=1", 6, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].weight != 0.75 || ops[1].weight != 0.25 {
		t.Errorf("weights not normalized: %+v", ops)
	}
	for _, o := range ops {
		if len(o.bodies) != 4 {
			t.Errorf("op %s: %d variants, want 4", o.name, len(o.bodies))
		}
	}
	rng := rand.New(rand.NewPCG(1, 0))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pick(ops, rng).name]++
	}
	if counts["check"] < 2700 || counts["check"] > 3300 {
		t.Errorf("weighted pick skewed: %v", counts)
	}
	for _, bad := range []string{"", "wat=1", "check", "check=-1"} {
		if _, err := buildMix(bad, 6, 32, 4); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

// serve starts a minserve handler behind a real socket and returns its
// host:port.
func serve(t *testing.T) string {
	t.Helper()
	srv, err := minserve.New(minserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestRunEndToEnd: a closed run in the binary codec, job op included,
// against a live server writes a complete, error-free report and finds
// the exposition lint-clean.
func TestRunEndToEnd(t *testing.T) {
	addr := serve(t)
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	args := []string{
		"-addr", addr, "-duration", "300ms", "-warmup", "100ms", "-conns", "2",
		"-mix", "check=0.5,batch=0.2,job=0.3", "-stages", "4", "-seed", "1",
		"-codec", "bin", "-lint-metrics", "-o", path,
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"servedRPS"`, `"p99Us"`, `"mode": "closed"`, `"codec": "bin"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %s:\n%s", want, data)
		}
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 || rep.Shed != 0 {
		t.Errorf("requests %d errors %d shed %d, want traffic and no errors", rep.Requests, rep.Errors, rep.Shed)
	}
	for _, name := range []string{"check", "batch", "job"} {
		if o := rep.Ops[name]; o.Requests == 0 || o.BytesIn == 0 || o.BytesOut == 0 {
			t.Errorf("op %s: %+v, want traffic both ways", name, o)
		}
	}
	if !strings.Contains(out.String(), "lint-clean") {
		t.Errorf("metrics lint did not run:\n%s", out.String())
	}
}

// TestRunOpenLoop: an open-loop run against a live server reports its
// mode and offered rate.
func TestRunOpenLoop(t *testing.T) {
	addr := serve(t)
	var out bytes.Buffer
	args := []string{
		"-addr", addr, "-duration", "400ms", "-warmup", "50ms", "-conns", "4",
		"-rps", "200", "-mix", "check=1", "-stages", "4", "-seed", "1",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, `"mode": "open"`) || !strings.Contains(s, `"offeredRPS": 200`) {
		t.Errorf("open-loop report malformed:\n%s", s)
	}
}
