package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
	"minequiv/internal/topology"
)

// testSpec is a small but non-trivial sweep: 2 networks × 1 load × 2
// fault rates = 4 cells, 48 trials per cell in 16-trial shards = 12
// shards.
func testSpec() Spec {
	return Spec{
		Networks:      []string{topology.NameOmega, topology.NameBaseline},
		Stages:        3,
		FaultRates:    []float64{0, 0.1},
		TrialsPerCell: 48,
		ShardTrials:   16,
		Seed:          7,
	}
}

// fastCfg tunes the manager for test cadence: millisecond sweeps and
// backoffs, sub-second shard timeout.
func fastCfg(dir string) Config {
	return Config{
		Dir:          dir,
		Workers:      4,
		ShardTimeout: 2 * time.Second,
		MaxRetries:   2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   4 * time.Millisecond,
		SweepEvery:   5 * time.Millisecond,
	}
}

// testShard maps a runner call of testSpec() back to its shard index.
func testShard(cell Cell, lo int) int {
	g := newGrid(testSpecNormalized())
	return cell.Index*g.shardsPerCell + lo/g.spec.ShardTrials
}

// await blocks until the job reaches a terminal state.
func await(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ch, err := m.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		st, _ := m.Get(id)
		t.Fatalf("job %s did not finish: %+v", id, st)
	}
	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// goldenResult runs the spec start-to-finish on a pristine manager and
// returns the result bytes every perturbed run must reproduce.
func goldenResult(t *testing.T, spec Spec) []byte {
	t.Helper()
	m, err := Open(fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := await(t, m, id); st.State != StateDone {
		t.Fatalf("golden run state = %s", st.State)
	}
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestJobCompletes(t *testing.T) {
	m, err := Open(fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	st := await(t, m, id)
	if st.State != StateDone || st.ShardsDone != st.ShardsTotal || st.ShardsTotal != 12 {
		t.Fatalf("status = %+v", st)
	}
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.Degraded {
		t.Fatalf("result = %+v", res)
	}
	for _, c := range res.Cells {
		if c.Trials != 48 || c.Offered == 0 || c.Throughput.Mean <= 0 || c.Throughput.Mean > 1 {
			t.Fatalf("cell = %+v", c)
		}
		if c.FaultRate > 0 && c.FaultDropped == 0 {
			t.Fatalf("faulted cell dropped nothing: %+v", c)
		}
	}
	// The intact omega cell must agree exactly with a direct engine run
	// on the same derived seed — the job plane adds orchestration, not
	// arithmetic.
	g := newGrid(res.Spec)
	cell := g.cell(0)
	f, err := fabricForCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := engine.RunWaves(context.Background(), f, patternForCell(t, cell), 48, engine.Config{Seed: cell.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells[0].Throughput.Mean != ws.Throughput.Mean || int(res.Cells[0].Delivered) != ws.Delivered {
		t.Fatalf("cell 0 disagrees with engine: %+v vs %+v", res.Cells[0], ws)
	}
}

// TestResultsDeterministic: two independent managers, different worker
// counts and shard sizes left equal, produce byte-identical results.
func TestResultsDeterministic(t *testing.T) {
	a := goldenResult(t, testSpec())
	b := goldenResult(t, testSpec())
	if !bytes.Equal(a, b) {
		t.Fatalf("independent runs differ:\n%s\n%s", a, b)
	}
}

// TestRetryThenSuccess: a runner that fails the first two attempts of
// one shard exercises the backoff path without quarantining.
func TestRetryThenSuccess(t *testing.T) {
	var fails atomic.Int64
	base := DefaultRunner()
	cfg := fastCfg(t.TempDir())
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		if cell.Index == 1 && lo == 0 && fails.Add(1) <= 2 {
			return engine.WavePartial{}, errors.New("transient fault")
		}
		return base(ctx, cell, lo, hi)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := await(t, m, id); st.State != StateDone {
		t.Fatalf("state = %s", st.State)
	}
	if s := m.Stats(); s.ShardsRetried != 2 || s.ShardsQuarantined != 0 {
		t.Fatalf("stats = %+v", s)
	}
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, goldenResult(t, testSpec())) {
		t.Fatal("retried run diverged from golden")
	}
}

// TestShardRunsAtMostOnce: a claimed shard runs on the worker that
// claimed it and nowhere else. No shard ever runs twice at once, not
// even when an attempt ignores its context and overruns its budget,
// and a shard runs once per attempt: exactly once on a fault-free job,
// exactly twice when its first attempt fails.
func TestShardRunsAtMostOnce(t *testing.T) {
	golden := goldenResult(t, testSpec())
	for _, tc := range []struct {
		name          string
		failFirst     bool
		overrun       bool
		runsPerShard  int32
		shardsRetried uint64
	}{
		{name: "fault-free", runsPerShard: 1},
		{name: "fail-once", failFirst: true, runsPerShard: 2, shardsRetried: 12},
		{name: "overrun", overrun: true, runsPerShard: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := newGrid(testSpecNormalized()).shards
			active := make([]atomic.Int32, shards)
			runs := make([]atomic.Int32, shards)
			var overlaps atomic.Int32
			base := DefaultRunner()
			cfg := fastCfg(t.TempDir())
			if tc.overrun {
				cfg.ShardTimeout = 20 * time.Millisecond
			}
			cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
				s := testShard(cell, lo)
				if active[s].Add(1) > 1 {
					overlaps.Add(1)
				}
				defer active[s].Add(-1)
				if runs[s].Add(1) == 1 && tc.failFirst {
					return engine.WavePartial{}, errors.New("first attempt fails")
				}
				if tc.overrun {
					time.Sleep(cfg.ShardTimeout + 3*cfg.SweepEvery)
					ctx = context.WithoutCancel(ctx)
				}
				return base(ctx, cell, lo, hi)
			}
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Kill()
			id, err := m.Submit(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			if st := await(t, m, id); st.State != StateDone {
				t.Fatalf("state = %s (%+v)", st.State, st)
			}
			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d runs started while the same shard was running", n)
			}
			for s := range runs {
				if n := runs[s].Load(); n != tc.runsPerShard {
					t.Errorf("shard %d ran %d times, want %d", s, n, tc.runsPerShard)
				}
			}
			if s := m.Stats(); s.ShardsDone != uint64(shards) || s.ShardsRetried != tc.shardsRetried {
				t.Errorf("stats = %+v", s)
			}
			data, err := m.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, golden) {
				t.Fatal("result differs from the golden run")
			}
		})
	}
}

func TestCancel(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	gate := make(chan struct{})
	base := DefaultRunner()
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return engine.WavePartial{}, ctx.Err()
		}
		return base(ctx, cell, lo, hi)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	close(gate)
	st := await(t, m, id)
	if st.State != StateCanceled {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := m.Result(id); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Result after cancel: %v", err)
	}
	// A restart must not resurrect the canceled job.
	m.Kill()
	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	st2, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateCanceled {
		t.Fatalf("resumed state = %s", st2.State)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := Open(fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	bad := []Spec{
		{Stages: 3, TrialsPerCell: 8},                                                                   // no networks
		{Networks: []string{"nope"}, Stages: 3, TrialsPerCell: 8},                                       // unknown network
		{Networks: []string{topology.NameOmega}, Stages: 0, TrialsPerCell: 8},                           // bad stages
		{Networks: []string{topology.NameOmega}, Stages: 1, TrialsPerCell: 8},                           // one stage
		{Networks: []string{topology.NameOmega}, Stages: 15, TrialsPerCell: 8},                          // past the fabric bound
		{Networks: []string{topology.NameOmega}, Stages: 3, TrialsPerCell: 0},                           // bad trials
		{Networks: []string{topology.NameOmega}, Stages: 3, TrialsPerCell: 8, Loads: []float64{2}},      // bad load
		{Networks: []string{topology.NameOmega}, Stages: 3, TrialsPerCell: 8, FaultRates: []float64{1}}, // bad rate
		{Networks: []string{topology.NameOmega}, Stages: 3, TrialsPerCell: 8, Scenario: "nope"},
		{Networks: []string{topology.NameOmega}, Stages: 3, TrialsPerCell: 8, Kernel: "nope"},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestMaxActive(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.MaxActive = 1
	gate := make(chan struct{})
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return engine.WavePartial{}, ctx.Err()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	if _, err := m.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("second submit: %v", err)
	}
	close(gate)
}

func TestTTLGC(t *testing.T) {
	now := time.Now()
	var fake atomic.Int64 // offset seconds
	cfg := fastCfg(t.TempDir())
	cfg.TTL = 10 * time.Second
	cfg.Now = func() time.Time { return now.Add(time.Duration(fake.Load()) * time.Second) }
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, id)
	fake.Store(60)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Get(id); errors.Is(err, ErrNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job never garbage-collected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEvents(t *testing.T) {
	m, err := Open(fastCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, id)
	evs, next, _, err := m.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || next != evs[len(evs)-1].Seq {
		t.Fatalf("events = %+v next = %d", evs, next)
	}
	var last int64
	doneShards := 0
	for _, ev := range evs {
		if ev.Seq <= last {
			t.Fatalf("seq not increasing: %+v", evs)
		}
		last = ev.Seq
		if ev.Type == "shard-done" {
			doneShards++
		}
	}
	if doneShards != 12 {
		t.Fatalf("shard-done events = %d, want 12", doneShards)
	}
	if evs[len(evs)-1].Type != "state" || evs[len(evs)-1].State != StateDone {
		t.Fatalf("last event = %+v", evs[len(evs)-1])
	}
	// Cursor semantics: nothing new after the tail.
	more, _, _, err := m.Events(id, next)
	if err != nil || len(more) != 0 {
		t.Fatalf("events past tail: %v %+v", err, more)
	}
	if _, _, _, err := m.Events("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing job: %v", err)
	}
}

func TestDrainThenResume(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	base := DefaultRunner()
	cfg := fastCfg(dir)
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return engine.WavePartial{}, ctx.Err()
		}
		return base(ctx, cell, lo, hi)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started // at least one shard in flight
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	close(release) // in-flight shards finish and checkpoint during drain
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
	// The drained checkpoint must contain the in-flight shards' results.
	recs, _, err := readLog(logPath(cfg.Dir + "/" + id))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("drain checkpointed nothing")
	}
	// Reopen: the job resumes and finishes identically to the golden.
	cfg2 := fastCfg(dir)
	m2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	if st := await(t, m2, id); st.State != StateDone {
		t.Fatalf("resumed state = %s", st.State)
	}
	data, err := m2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, goldenResult(t, testSpec())) {
		t.Fatal("drain+resume diverged from golden")
	}
}

// fabricForCell / patternForCell mirror DefaultRunner's resolution for
// direct engine comparisons in tests.
func fabricForCell(cell Cell) (*sim.Fabric, error) {
	fc := &fabricCache{}
	return fc.get(cell.Network, cell.Stages)
}

func patternForCell(t *testing.T, cell Cell) sim.Traffic {
	t.Helper()
	sc, ok := sim.LookupScenario(cell.Scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", cell.Scenario)
	}
	params := sim.DefaultScenarioParams()
	params.Load = cell.Load
	p := sc.New(params)
	if !sc.LoadAware && cell.Load < 1 {
		p = sim.Thinned(cell.Load, p)
	}
	return p
}
