package main

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestRunEndToEnd exercises the whole tool in-process: a short closed
// run writing a report, then a gated re-run against it.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rep := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	args := []string{
		"-inprocess", "-duration", "300ms", "-warmup", "100ms", "-conns", "2",
		"-mix", "check=0.7,batch=0.3", "-stages", "4", "-seed", "1",
		"-lint-metrics", "-o", rep,
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"servedRPS"`, `"refCheckUs"`, `"p99Us"`, `"mode": "closed"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %s:\n%s", want, data)
		}
	}
	if !strings.Contains(out.String(), "lint-clean") {
		t.Errorf("metrics lint did not run:\n%s", out.String())
	}
	// Gate a second run against the first, filed as the json row of a
	// codec-split baseline: same machine, same load — must pass a 60%
	// envelope even on a noisy runner.
	base := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(base, []byte(`{"codecs":{"json":`+string(data)+`}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	args = append(args[:len(args)-2], "-baseline", base, "-max-regress", "60")
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("gated run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within baseline envelope") {
		t.Errorf("gate verdict missing:\n%s", out.String())
	}
}

// TestRunOpenLoop: the open-loop pacer serves near the offered rate
// when far below capacity.
func TestRunOpenLoop(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-inprocess", "-duration", "400ms", "-warmup", "50ms", "-conns", "4",
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

// TestGateRejectsRegression: a fabricated faster baseline trips the
// served-RPS floor.
func TestGateRejectsRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// Same refCheckUs (speed ratio 1), absurdly high baseline RPS.
	if err := os.WriteFile(base, []byte(`{"codecs":{"json":{"refCheckUs":1,"servedRPS":1e12,"latency":{"p99Us":1}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := report{Codec: "json", RefCheckUs: 1, ServedRPS: 1000, Latency: latencyReport{P99Us: 100}}
	var out bytes.Buffer
	if err := gate(&out, cur, base, 20); err == nil || !strings.Contains(err.Error(), "served RPS regression") {
		t.Fatalf("gate accepted a 10^9x regression (err %v):\n%s", err, out.String())
	}
	// A flat (pre-codec-split) report is no longer a baseline.
	flat := filepath.Join(dir, "flat.json")
	if err := os.WriteFile(flat, []byte(`{"refCheckUs":1,"servedRPS":1,"latency":{"p99Us":1e9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gate(&out, cur, flat, 20); err == nil || !strings.Contains(err.Error(), `no "json" codec row`) {
		t.Errorf("gate accepted a flat baseline (err %v)", err)
	}
}
