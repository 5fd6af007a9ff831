package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minequiv/internal/engine"
)

// TestChaosCrashResumeByteIdentity is the acceptance-criteria test: a
// job whose manager is crash-stopped mid-sweep and reopened from its
// checkpoint directory must (a) finish, (b) produce result bytes
// identical to an uninterrupted run, and (c) never recompute a shard
// whose frame already reached the log.
func TestChaosCrashResumeByteIdentity(t *testing.T) {
	golden := goldenResult(t, testSpec())
	dir := t.TempDir()

	// Phase 1: crash-stop the manager after a handful of shard frames
	// have landed. Every shard after the fourth is held in flight until
	// the crash, so the crash always lands mid-sweep.
	cfg := fastCfg(dir)
	var started atomic.Int64
	held := DefaultRunner()
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		if started.Add(1) > 4 {
			<-ctx.Done()
			return engine.WavePartial{}, ctx.Err()
		}
		return held(ctx, cell, lo, hi)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dir, id)
	deadline := time.Now().Add(20 * time.Second)
	for {
		recs, _, err := readLog(logPath(jobDir))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint progress before crash point")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.Kill() // crash: no drain, no finalize, in-flight reports discarded

	// The log now holds some shards; note which, so phase 2 can prove
	// they are not recomputed.
	recs, _, err := readLog(logPath(jobDir))
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := map[int]bool{}
	for _, r := range recs {
		if r.Type == "shard" {
			checkpointed[r.Shard] = true
		}
	}
	if len(checkpointed) == 0 {
		t.Fatal("crash landed no shard frames")
	}
	if len(checkpointed) == 12 {
		t.Skip("crash raced past completion; nothing left to resume") // vanishingly unlikely at 4 frames
	}

	// Phase 2: reopen. The resumed manager's runner records every shard
	// it executes; checkpointed shards must never reappear.
	cfg2 := fastCfg(dir)
	var reran sync.Map
	base := DefaultRunner()
	cfg2.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		g := newGrid(testSpecNormalized())
		shard := cell.Index*g.shardsPerCell + lo/g.spec.ShardTrials
		reran.Store(shard, true)
		return base(ctx, cell, lo, hi)
	}
	m2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	st := await(t, m2, id)
	if st.State != StateDone {
		t.Fatalf("resumed state = %s (%+v)", st.State, st)
	}
	reran.Range(func(k, _ any) bool {
		if checkpointed[k.(int)] {
			t.Errorf("checkpointed shard %d was recomputed after resume", k.(int))
		}
		return true
	})
	data, err := m2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, golden) {
		t.Fatalf("crash-resume result is not byte-identical to the golden run:\n%s\n---\n%s", data, golden)
	}
	// And the on-disk artifact is those same bytes.
	onDisk, err := os.ReadFile(resultPath(jobDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, golden) {
		t.Fatal("result.json differs from served result bytes")
	}
}

func testSpecNormalized() Spec {
	s := testSpec()
	s.normalize(2048)
	return s
}

// TestChaosPoisonQuarantine: a shard that fails every attempt must be
// quarantined after MaxRetries+1 tries and the job must complete
// degraded — reporting the poison — rather than hang.
func TestChaosPoisonQuarantine(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	base := DefaultRunner()
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		if cell.Index == 2 && lo == 16 {
			return engine.WavePartial{}, errors.New("poison payload")
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
	st := await(t, m, id)
	if st.State != StateDegraded || st.ShardsQuarantined != 1 || st.ShardsDone != 11 {
		t.Fatalf("status = %+v", st)
	}
	s := m.Stats()
	if s.ShardsQuarantined != 1 || s.ShardsRetried != uint64(cfg.MaxRetries) {
		t.Fatalf("stats = %+v", s)
	}
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.QuarantinedShards) != 1 {
		t.Fatalf("result = %+v", res)
	}
	q := res.QuarantinedShards[0]
	if q.Cell != 2 || q.Lo != 16 || q.Hi != 32 || !strings.Contains(q.Reason, "poison payload") {
		t.Fatalf("quarantine report = %+v", q)
	}
	// The poisoned cell aggregates only its healthy shards.
	c := res.Cells[2]
	if c.Trials != 32 || c.QuarantinedTrials != 16 {
		t.Fatalf("poisoned cell = %+v", c)
	}
	for i, c := range res.Cells {
		if i != 2 && (c.Trials != 48 || c.QuarantinedTrials != 0) {
			t.Fatalf("healthy cell %d = %+v", i, c)
		}
	}
}

// TestChaosAllPoisonFails: when every shard is poison the job must
// land in failed (ErrQuarantined), not degraded and not hung.
func TestChaosAllPoisonFails(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		return engine.WavePartial{}, errors.New("poison everywhere")
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
	st := await(t, m, id)
	if st.State != StateFailed {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := m.Result(id); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Result: %v", err)
	}
}

// TestChaosStallTimeout: a shard that stalls past ShardTimeout is
// cancelled by its context, retried, and succeeds on the next attempt.
func TestChaosStallTimeout(t *testing.T) {
	cfg := fastCfg(t.TempDir())
	cfg.ShardTimeout = 30 * time.Millisecond
	var stalled atomic.Bool
	base := DefaultRunner()
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		if cell.Index == 0 && lo == 0 && stalled.CompareAndSwap(false, true) {
			<-ctx.Done() // stall until the per-attempt budget kills us
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
	if st := await(t, m, id); st.State != StateDone {
		t.Fatalf("state = %s", st.State)
	}
	data, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, goldenResult(t, testSpec())) {
		t.Fatal("stall/retry run diverged from golden")
	}
}

// TestTornWriteRecovery: a crash can leave a torn or corrupt final
// frame in shards.log. Reopening must keep the valid prefix, truncate
// the damage, resume, and still reach the byte-identical result.
func TestTornWriteRecovery(t *testing.T) {
	golden := goldenResult(t, testSpec())
	for name, damage := range map[string][]byte{
		"torn-header":  {'M', 'J', 0x40},
		"torn-payload": {'M', 'J', 0xff, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, '{'},
		"bad-magic":    {'X', 'Y', 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 'j', 'u', 'n', 'k'},
		"bad-crc":      {'M', 'J', 0x02, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, '{', '}'},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := fastCfg(dir)
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			id, err := m.Submit(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			jobDir := filepath.Join(dir, id)
			// Let a few shards land, then crash and damage the tail.
			deadline := time.Now().Add(20 * time.Second)
			for {
				recs, _, _ := readLog(logPath(jobDir))
				if len(recs) >= 2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no shards checkpointed")
				}
				time.Sleep(2 * time.Millisecond)
			}
			m.Kill()
			recsBefore, validBefore, err := readLog(logPath(jobDir))
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(logPath(jobDir), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(damage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			recs, valid, err := readLog(logPath(jobDir))
			if err != nil {
				t.Fatal(err)
			}
			if valid != validBefore || len(recs) != len(recsBefore) {
				t.Fatalf("damage leaked into the valid prefix: %d/%d vs %d/%d", valid, len(recs), validBefore, len(recsBefore))
			}

			m2, err := Open(fastCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Kill()
			if st := await(t, m2, id); st.State != StateDone {
				t.Fatalf("resumed state = %s", st.State)
			}
			// The reopened log was truncated back to the valid prefix
			// before new appends, so a second recovery parses cleanly.
			if _, _, err := readLog(logPath(jobDir)); err != nil {
				t.Fatal(err)
			}
			data, err := m2.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, golden) {
				t.Fatal("recovered run diverged from golden")
			}
		})
	}
}

// TestCorruptSpecSurfacesAsFailedJob: an unreadable spec.json cannot
// be trusted, so the job resumes as failed carrying ErrCorrupt — and
// does not prevent the rest of the plane from opening.
func TestCorruptSpecSurfacesAsFailedJob(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	await(t, m, id)
	m.Kill()
	if err := os.WriteFile(specPath(filepath.Join(dir, id)), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Kill()
	st, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state = %s", st.State)
	}
	if _, err := m2.Result(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Result: %v", err)
	}
}

// breakLog swaps the only job's shards.log handle for a read-only one,
// so every later append fails while the rest of the store works.
func breakLog(t *testing.T, m *Manager) {
	m.mu.Lock()
	var st *store
	for _, j := range m.jobs {
		st = j.store
	}
	m.mu.Unlock()
	ro, err := os.Open(logPath(st.dir))
	if err != nil {
		t.Error(err)
		return
	}
	st.mu.Lock()
	st.f.Close()
	st.f = ro
	st.mu.Unlock()
}

// shardFrames counts the shard records in a job's checkpoint log.
func shardFrames(t *testing.T, jobDir string) int {
	t.Helper()
	recs, _, err := readLog(logPath(jobDir))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Type == "shard" {
			n++
		}
	}
	return n
}

// TestLostFramesCostOnlyReruns pins the checkpoint contract: a failed
// shards.log append neither stalls nor fails the job, since the shard
// is done in memory either way, and only costs a re-run after a crash.
// With every append failing, a job (a) finishes with the golden result
// bytes, which a crash and reopen serve back unchanged, and (b) crashed
// mid-sweep, re-runs every shard it had finished and reaches the same
// bytes.
func TestLostFramesCostOnlyReruns(t *testing.T) {
	golden := goldenResult(t, testSpec())
	base := DefaultRunner()
	result := func(t *testing.T, m *Manager, id string) []byte {
		t.Helper()
		if st := await(t, m, id); st.State != StateDone {
			t.Fatalf("state = %s (%+v)", st.State, st)
		}
		data, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("finishes", func(t *testing.T) {
		dir := t.TempDir()
		cfg := fastCfg(dir)
		var m *Manager
		var once sync.Once
		cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
			once.Do(func() { breakLog(t, m) })
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
		if data := result(t, m, id); !bytes.Equal(data, golden) {
			t.Fatalf("result with failed appends differs from the golden run:\n%s\n---\n%s", data, golden)
		}
		if n := shardFrames(t, filepath.Join(dir, id)); n != 0 {
			t.Fatalf("%d shard frames landed through a broken log", n)
		}
		m.Kill()
		m2, err := Open(fastCfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Kill()
		if data := result(t, m2, id); !bytes.Equal(data, golden) {
			t.Fatal("reopened result differs from the golden run")
		}
	})

	t.Run("crash", func(t *testing.T) {
		dir := t.TempDir()
		cfg := fastCfg(dir)
		const finished = 4
		var m *Manager
		var once sync.Once
		var started atomic.Int64
		cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
			once.Do(func() { breakLog(t, m) })
			if started.Add(1) > finished {
				<-ctx.Done() // hold the rest of the sweep until the crash
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
		deadline := time.Now().Add(20 * time.Second)
		for {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShardsDone == finished {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shards done = %d, want %d", st.ShardsDone, finished)
			}
			time.Sleep(2 * time.Millisecond)
		}
		m.Kill()
		jobDir := filepath.Join(dir, id)
		if n := shardFrames(t, jobDir); n != 0 {
			t.Fatalf("%d shard frames landed through a broken log", n)
		}

		cfg2 := fastCfg(dir)
		var reran atomic.Int64
		cfg2.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
			reran.Add(1)
			return base(ctx, cell, lo, hi)
		}
		m2, err := Open(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Kill()
		if data := result(t, m2, id); !bytes.Equal(data, golden) {
			t.Fatalf("crash-resume result differs from the golden run:\n%s\n---\n%s", data, golden)
		}
		if shards := int64(newGrid(testSpecNormalized()).shards); reran.Load() != shards {
			t.Fatalf("resume ran %d shards, want all %d: no frame reached the log", reran.Load(), shards)
		}
	})
}
