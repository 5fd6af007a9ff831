package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"minequiv/internal/jobs"
	"minequiv/min"
)

// Fully populated fixtures, one per wire shape. Every optional field
// is exercised somewhere so a round-trip failure cannot hide in an
// always-nil branch.

func fixtureCheckRequest() *CheckRequest {
	return &CheckRequest{
		NetworkSpec: NetworkSpec{
			Network:    "omega",
			Stages:     4,
			LinkPerms:  [][]int{{0, 2, 1, 3}, {3, 1, 2, 0}},
			IndexPerms: [][]int{{1, 0}},
		},
		Iso: true,
	}
}

func fixtureCheckResponse() *CheckResponse {
	return &CheckResponse{
		Report: min.Report{
			Network:         "flip",
			Stages:          5,
			Equivalent:      true,
			Banyan:          false,
			BanyanViolation: "paths (0,0) collide",
			Prefix: []min.WindowCheck{
				{I: 0, J: 2, Components: 4, Expected: 4, OK: true},
				{I: 1, J: 3, Components: 2, Expected: 4, OK: false},
			},
			Suffix: []min.WindowCheck{{I: 2, J: 4, Components: 8, Expected: 8, OK: true}},
		},
		Iso: &min.Isomorphism{Maps: [][]int{{0, 1, 3, 2}, {2, 3, 0, 1}}},
	}
}

func fixtureRouteRequest() *RouteRequest {
	return &RouteRequest{
		NetworkSpec: NetworkSpec{Network: "baseline", Stages: 6},
		Src:         11,
		Dst:         52,
		Faults: &min.FaultPlan{
			Faults: []min.Fault{
				{Kind: min.SwitchDead, Stage: 1, Cell: 3},
				{Kind: min.LinkDown, Stage: 2, Link: 7},
			},
		},
	}
}

func fixtureRouteResponse() *RouteResponse {
	return &RouteResponse{
		Network: "omega",
		Path: min.Path{Src: 3, Dst: 9, Hops: []min.Hop{
			{Stage: 0, Cell: 1, InPort: 1, OutPort: 0},
			{Stage: 1, Cell: 4, InPort: 0, OutPort: 1},
		}},
		TagPositions: []int{3, 2, 1, 0},
	}
}

func fixtureSimulateRequest() *SimulateRequest {
	return &SimulateRequest{
		NetworkSpec: NetworkSpec{Network: "indirect-binary-cube", Stages: 5},
		Model:       "wave",
		Scenario:    "hotspot",
		Load:        0.75,
		HotDst:      13,
		HotProb:     0.2,
		Seed:        0xDEADBEEFCAFE,
		Workers:     4,
		Faults: &min.FaultPlan{
			SwitchDeadRate:  0.01,
			SwitchStuckRate: 0.005,
			LinkDownRate:    0.02,
		},
		Waves:  32,
		Kernel: "bit",
	}
}

func fixtureSimulateResponse() *SimulateResponse {
	return &SimulateResponse{
		Model: "wave",
		Wave: &min.WaveStats{
			Network: "omega", Stages: 5, Terminals: 32, Scenario: "uniform",
			Waves: 500, Seed: 1, Offered: 16000, Delivered: 11000,
			Dropped: 4800, Misrouted: 0, FaultDropped: 200,
			Throughput: jobs.Stat{N: 500, Mean: 0.6875, Std: 0.04, CI95: 0.0035},
		},
	}
}

func fixtureBufferedResponse() *SimulateResponse {
	return &SimulateResponse{
		Model: "buffered",
		Buffered: &min.BufferedStats{
			Network: "flip", Stages: 4, Terminals: 16, Scenario: "uniform",
			Replications: 3, Seed: 7, Injected: 9000, Rejected: 120,
			Delivered: 8700, Dropped: 100, FaultDropped: 30, Misrouted: 2,
			InFlight: 48, MaxOccupancy: 64,
			Throughput:     jobs.Stat{N: 3, Mean: 0.58, Std: 0.01, CI95: 0.011},
			Latency:        jobs.Stat{N: 8700, Mean: 9.4, Std: 3.1, CI95: 0.065},
			LatencyP50:     jobs.Stat{N: 3, Mean: 8, Std: 0.5, CI95: 0.57},
			LatencyP95:     jobs.Stat{N: 3, Mean: 16, Std: 1, CI95: 1.13},
			LatencyP99:     jobs.Stat{N: 3, Mean: 21, Std: 1.5, CI95: 1.7},
			StageOccupancy: []float64{0.31, 0.42, 0.55, 0.61},
		},
	}
}

func fixtureBatchRequest() *BatchRequest {
	return &BatchRequest{Requests: []BatchItem{
		{Op: "check", Request: json.RawMessage(`{"network":"omega","stages":4}`)},
		{Op: "simulate", Request: []byte{magic0, magic1, Version, ShapeSimulateRequest, 0, 0, 0, 0}, Bin: true},
	}}
}

func fixtureBatchResponse() *BatchResponse {
	return &BatchResponse{Responses: []BatchResult{
		{Op: "check", Status: 200, Cache: CacheHit, Body: []byte(`{"report":{}}`)},
		{Op: "simulate", Status: 400, Cache: CacheNone, Body: []byte(`{"error":{}}`)},
	}}
}

func fixtureJobSpec() *JobSpec {
	return &jobs.Spec{
		Networks:      []string{"omega", "flip"},
		Stages:        6,
		Loads:         []float64{0.25, 0.5, 1},
		FaultRates:    []float64{0, 0.01},
		Scenario:      "uniform",
		Kernel:        "bit",
		TrialsPerCell: 256,
		Seed:          42,
		ShardTrials:   64,
	}
}

func fixtureJobResult() *JobResult {
	return &jobs.Result{
		Spec: *fixtureJobSpec(),
		Cells: []jobs.CellResult{
			{
				Network: "omega", Stages: 6, Load: 0.5, FaultRate: 0.01,
				Trials: 256, Offered: 100000, Delivered: 80000, Dropped: 19000,
				Misrouted: 0, FaultDropped: 1000,
				Throughput:        jobs.Stat{N: 256, Mean: 0.8, Std: 0.05, CI95: 0.006},
				QuarantinedTrials: 64,
			},
			{Network: "flip", Stages: 6, Load: 1, Trials: 256, Throughput: jobs.Stat{N: 256}},
		},
		Degraded: true,
		QuarantinedShards: []jobs.QuarantinedShard{
			{Shard: 3, Cell: 1, Lo: 128, Hi: 192, Reason: "worker panic: poison trial"},
		},
	}
}

// fixtures returns one populated value per shape, keyed by name.
func fixtures() map[string]any {
	return map[string]any{
		"checkRequest":     fixtureCheckRequest(),
		"checkResponse":    fixtureCheckResponse(),
		"routeRequest":     fixtureRouteRequest(),
		"routeResponse":    fixtureRouteResponse(),
		"simulateRequest":  fixtureSimulateRequest(),
		"simulateResponse": fixtureSimulateResponse(),
		"bufferedResponse": fixtureBufferedResponse(),
		"batchRequest":     fixtureBatchRequest(),
		"batchResponse":    fixtureBatchResponse(),
		"jobSpec":          fixtureJobSpec(),
		"jobResult":        fixtureJobResult(),
	}
}

// fresh returns a zero value of the same pointer type as v.
func fresh(v any) any {
	return reflect.New(reflect.TypeOf(v).Elem()).Interface()
}

func TestRoundTripAllShapes(t *testing.T) {
	for name, v := range fixtures() {
		t.Run(name, func(t *testing.T) {
			wire, err := Encode(v)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got := fresh(v)
			if err := Decode(wire, got); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, v)
			}
		})
	}
}

func TestNilVsEmptyRoundTrip(t *testing.T) {
	cases := []*CheckRequest{
		{NetworkSpec: NetworkSpec{Network: "omega", Stages: 3}},                             // nil perms
		{NetworkSpec: NetworkSpec{Stages: 3, LinkPerms: [][]int{}}},                         // empty outer
		{NetworkSpec: NetworkSpec{Stages: 3, LinkPerms: [][]int{{}}}},                       // empty row
		{NetworkSpec: NetworkSpec{Stages: 3, LinkPerms: [][]int{nil}}},                      // nil row
		{NetworkSpec: NetworkSpec{Stages: 3, IndexPerms: [][]int{{0, 1}, nil, {}, {2}}}},    // mixed
		{NetworkSpec: NetworkSpec{Network: "", Stages: 0, LinkPerms: nil, IndexPerms: nil}}, // zero
	}
	for i, v := range cases {
		wire, err := Encode(v)
		if err != nil {
			t.Fatalf("case %d: Encode: %v", i, err)
		}
		got := new(CheckRequest)
		if err := Decode(wire, got); err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("case %d: got %#v want %#v", i, got, v)
		}
	}

	// A present-but-empty fault plan is distinct from an absent one.
	withPlan := &RouteRequest{NetworkSpec: NetworkSpec{Stages: 3}, Faults: &min.FaultPlan{}}
	wire, err := Encode(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	got := new(RouteRequest)
	if err := Decode(wire, got); err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || got.Faults.Faults != nil {
		t.Fatalf("empty fault plan mangled: %#v", got.Faults)
	}
}

func TestDecodeReusesStorage(t *testing.T) {
	v := fixtureSimulateResponse()
	wire, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	var d Decoder
	dst := new(SimulateResponse)
	if err := d.Decode(wire, dst); err != nil {
		t.Fatal(err)
	}
	wave := dst.Wave
	if err := d.Decode(wire, dst); err != nil {
		t.Fatal(err)
	}
	if dst.Wave != wave {
		t.Fatal("second decode did not reuse the Wave pointer")
	}
	if !reflect.DeepEqual(dst, v) {
		t.Fatal("reused decode mismatch")
	}
}

func TestRejectsTornAndTrailingFrames(t *testing.T) {
	v := fixtureSimulateRequest()
	wire, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(wire); cut++ {
		if err := Decode(wire[:cut], new(SimulateRequest)); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(wire))
		}
	}
	if err := Decode(append(bytes.Clone(wire), 0), new(SimulateRequest)); err == nil {
		t.Fatal("frame with trailing byte decoded without error")
	}
}

// TestRejectsTruncatedPayloads cuts every fixture's payload at each
// byte and patches the length field to match, so the header passes and
// the cut lands inside a field: the decode must fail with ErrTruncated
// or ErrValue, and must not panic.
func TestRejectsTruncatedPayloads(t *testing.T) {
	for name, v := range fixtures() {
		wire, err := Encode(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cut := headerLen; cut < len(wire); cut++ {
			torn := bytes.Clone(wire[:cut])
			binary.LittleEndian.PutUint32(torn[4:8], uint32(cut-headerLen))
			err := Decode(torn, fresh(v))
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrValue) {
				t.Errorf("%s cut at payload byte %d/%d: err %v, want ErrTruncated or ErrValue",
					name, cut-headerLen, len(wire)-headerLen, err)
			}
		}
	}
}

func TestRejectsHeaderCorruption(t *testing.T) {
	wire, err := Encode(fixtureCheckRequest())
	if err != nil {
		t.Fatal(err)
	}
	mut := func(i int, b byte) []byte {
		c := bytes.Clone(wire)
		c[i] = b
		return c
	}
	cases := map[string][]byte{
		"bad magic0":    mut(0, 'X'),
		"bad magic1":    mut(1, 'X'),
		"bad version":   mut(2, Version+1),
		"wrong shape":   mut(3, ShapeRouteRequest),
		"length short":  mut(4, wire[4]-1),
		"length long":   mut(4, wire[4]+1),
		"unknown shape": mut(3, 0),
	}
	for name, data := range cases {
		if err := Decode(data, new(CheckRequest)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// The fault-kind tag is the sim.FaultKind value: tags 1-4 round-trip,
// and the zero value or a value past LinkDown fails the frame with
// ErrValue instead of decoding to a kind.
func TestFaultKindTagRange(t *testing.T) {
	for _, tag := range []min.FaultKind{0, min.LinkDown + 1, 255} {
		v := fixtureRouteRequest()
		v.Faults.Faults[1].Kind = tag
		wire, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(wire, new(RouteRequest)); !errors.Is(err, ErrValue) {
			t.Errorf("kind tag %d: err %v, want ErrValue", uint8(tag), err)
		}
	}
	for _, kind := range []min.FaultKind{min.SwitchDead, min.SwitchStuck0, min.SwitchStuck1, min.LinkDown} {
		v := fixtureRouteRequest()
		v.Faults.Faults[1].Kind = kind
		wire, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		got := new(RouteRequest)
		if err := Decode(wire, got); err != nil || got.Faults.Faults[1].Kind != kind {
			t.Errorf("kind %v: decoded %v, %v", kind, got.Faults.Faults[1].Kind, err)
		}
	}
}

func TestHostileLengthsRejectNotAllocate(t *testing.T) {
	// A frame whose payload claims a huge slice must fail fast: count()
	// bounds every length by the remaining payload bytes.
	var c coder
	network, stages, present, n := "omega", 4, true, uint64(1<<40)
	c.buf = []byte{magic0, magic1, Version, ShapeCheckRequest, 0, 0, 0, 0}
	c.str(&network)
	c.int(&stages)
	c.bool(&present)
	c.u64(&n) // LinkPerms outer count: absurd
	binary.LittleEndian.PutUint32(c.buf[4:8], uint32(len(c.buf)-headerLen))
	if err := Decode(c.buf, new(CheckRequest)); err == nil {
		t.Fatal("hostile count decoded without error")
	}
}

func TestJSONTagsMatchServingContract(t *testing.T) {
	// The shapes here are aliased by minserve, so their JSON tags ARE
	// the HTTP API. Pin the request-side key set against drift.
	b, err := json.Marshal(fixtureSimulateRequest())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"network", "stages", "model", "scenario", "load", "hotDst", "hotProb", "seed", "workers", "faults", "waves", "kernel"} {
		if _, ok := m[key]; !ok {
			t.Errorf("marshalled SimulateRequest lacks %q (got %v)", key, m)
		}
	}
	if _, ok := m["replications"]; ok {
		t.Error("zero replications should be omitted")
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	v := fixtureSimulateResponse()
	var e Encoder
	if err := e.Encode(v); err != nil { // prime buffer capacity
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		if err := e.Encode(v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encode steady state: %v allocs/op, want 0", allocs)
	}

	wire := bytes.Clone(e.c.buf)
	var d Decoder
	dst := new(SimulateResponse)
	if err := d.Decode(wire, dst); err != nil { // prime scratch + intern table
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := d.Decode(wire, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decode steady state: %v allocs/op, want 0", allocs)
	}
}

// FuzzCodecRoundTrip feeds arbitrary bytes to the decoder for the
// shape named in the header: decoding must never panic, a success must
// re-encode to a value-identical frame, and no strict prefix of an
// accepted frame may also be accepted.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, v := range fixtures() {
		wire, err := Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{magic0, magic1, Version, ShapeSimulateRequest, 0, 0, 0, 0})
	f.Add([]byte{magic0, magic1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			if err := Decode(data, new(CheckRequest)); err == nil {
				t.Fatal("short input accepted")
			}
			return
		}
		target := targetForShape(data[3])
		if target == nil {
			if err := Decode(data, new(CheckRequest)); err == nil {
				t.Fatal("unknown shape accepted")
			}
			return
		}
		if err := Decode(data, target); err != nil {
			return
		}
		wire, err := Encode(target)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again := fresh(target)
		if err := Decode(wire, again); err != nil {
			t.Fatalf("decode of re-encoded frame failed: %v", err)
		}
		// Wire-level fixpoint: a second encode must reproduce the first
		// byte-for-byte. (DeepEqual would be too strict here — floats
		// round-trip bit-exactly, but NaN != NaN.)
		rewire, err := Encode(again)
		if err != nil {
			t.Fatalf("re-encode of round-tripped value failed: %v", err)
		}
		if !bytes.Equal(rewire, wire) {
			t.Fatalf("round-trip not a fixpoint:\n got %x\nwant %x\nvalue %+v", rewire, wire, again)
		}
		for cut := headerLen; cut < len(data); cut += 1 + len(data)/64 {
			if err := Decode(data[:cut], fresh(target)); err == nil {
				t.Fatalf("accepted frame's %d-byte prefix also accepted", cut)
			}
		}
	})
}

func targetForShape(shape byte) any {
	switch shape {
	case ShapeCheckRequest:
		return new(CheckRequest)
	case ShapeCheckResponse:
		return new(CheckResponse)
	case ShapeRouteRequest:
		return new(RouteRequest)
	case ShapeRouteResponse:
		return new(RouteResponse)
	case ShapeSimulateRequest:
		return new(SimulateRequest)
	case ShapeSimulateResponse:
		return new(SimulateResponse)
	case ShapeBatchRequest:
		return new(BatchRequest)
	case ShapeBatchResponse:
		return new(BatchResponse)
	case ShapeJobSpec:
		return new(JobSpec)
	case ShapeJobResult:
		return new(JobResult)
	}
	return nil
}

// TestIntLoopMatchesCheckedRead holds intLoop's inline one- and
// two-byte path to the per-element checked read it bypasses: on
// varints of every length, overlong and truncated ones included, and
// on seeded random bytes, both must leave the same values, offset and
// latched error, whatever the slice length.
func TestIntLoopMatchesCheckedRead(t *testing.T) {
	inputs := [][]byte{
		{}, {0x00}, {0x7f}, {0x80}, {0x80, 0x00}, {0xff, 0x7f}, {0xff, 0xff},
		{0xff, 0xff, 0x01}, {0x80, 0x80, 0x80}, {0x01, 0xff},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.IntN(24))
		for j := range b {
			b[j] = byte(rng.Uint32())
			if rng.IntN(2) == 0 {
				b[j] &= 0x7f
			}
		}
		inputs = append(inputs, b)
	}
	for _, in := range inputs {
		for n := 0; n <= 12; n++ {
			fast := coder{dec: true, buf: in}
			got := make([]int, n)
			fast.intLoop(got)
			ref := coder{dec: true, buf: in}
			want := make([]int, n)
			for i := range want {
				ref.int(&want[i])
			}
			if !reflect.DeepEqual(got, want) || fast.off != ref.off || fast.err != ref.err {
				t.Fatalf("% x, %d ints: got %v off %d err %v, want %v off %d err %v",
					in, n, got, fast.off, fast.err, want, ref.off, ref.err)
			}
		}
	}
}
