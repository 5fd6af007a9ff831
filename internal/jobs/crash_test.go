package jobs

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"minequiv/internal/engine"
)

// The crash test re-executes its own test binary as a child process.
// crashDirEnv names the checkpoint root the child opens its Manager on;
// crashRunsEnv names the file it appends the index of every shard it
// starts to, one per line.
const (
	crashDirEnv  = "MINEQUIV_JOBS_CRASH_DIR"
	crashRunsEnv = "MINEQUIV_JOBS_CRASH_RUNS"
)

// TestProcessCrashResume kills a real process: a child opens a Manager
// on a checkpoint directory and submits testSpec() (or resumes it), the
// parent SIGKILLs the child once shards.log holds k frames, for seeded
// k, and restarts it until result.json exists. The result bytes must
// equal an uninterrupted run's, and no shard whose frame reached the
// log before a restart may run again after it. Unlike Manager.Kill,
// this loses everything the process had not yet handed to the kernel,
// so it covers the fsync and rename ordering of the checkpoint store.
func TestProcessCrashResume(t *testing.T) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		crashChild(t, dir, os.Getenv(crashRunsEnv))
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary and kills it")
	}
	golden := goldenResult(t, testSpec())
	total := newGrid(testSpecNormalized()).shards
	const maxKills = 3
	crashes := 0
	for seed := uint64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		root := t.TempDir()
		dir := filepath.Join(root, "jobs")
		for gen := 0; ; gen++ {
			if gen > maxKills {
				t.Fatalf("seed %d: no result.json after %d runs", seed, gen)
			}
			jobDir := crashJobDir(t, dir)
			logged := loggedShards(t, jobDir)
			target := 0 // frames to wait for before the kill; 0 runs to the end
			if gen < maxKills && len(logged) < total-1 {
				target = len(logged) + 1 + rng.IntN(total-1-len(logged))
			}
			runs := filepath.Join(root, fmt.Sprintf("runs-%d", gen))
			killed := runCrashChild(t, dir, runs, target)
			for _, s := range readRuns(t, runs) {
				if logged[s] {
					t.Errorf("seed %d run %d: shard %d ran again, but its frame was logged before the restart", seed, gen, s)
				}
			}
			jobDir = crashJobDir(t, dir)
			if _, err := os.Stat(resultPath(jobDir)); err == nil {
				break
			}
			if !killed {
				t.Fatalf("seed %d run %d: the child exited without a result.json", seed, gen)
			}
			crashes++
		}
		jobDir := crashJobDir(t, dir)
		data, err := os.ReadFile(resultPath(jobDir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, golden) {
			t.Fatalf("seed %d: result after crashes differs from the golden run:\n%s\n---\n%s", seed, data, golden)
		}
		if n, distinct := shardFrames(t, jobDir), len(loggedShards(t, jobDir)); n != total || distinct != total {
			t.Fatalf("seed %d: log holds %d shard frames for %d distinct shards, want %d of each", seed, n, distinct, total)
		}
	}
	if crashes == 0 {
		t.Fatal("every child finished before its kill point; no crash was resumed")
	}
	t.Logf("resumed after %d kills", crashes)
}

// runCrashChild starts one child on dir, recording its shard starts in
// runs. With target > 0 it SIGKILLs the child once the job's log holds
// target shard frames and reports whether the kill landed before the
// child exited; with target 0 it waits for the child to finish.
func runCrashChild(t *testing.T, dir, runs string, target int) (killed bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestProcessCrashResume$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir, crashRunsEnv+"="+runs)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	check := func(err error) {
		if err != nil {
			t.Fatalf("crash child: %v\n%s", err, out.Bytes())
		}
	}
	if target == 0 {
		check(<-exited)
		return false
	}
	for {
		select {
		case err := <-exited:
			check(err)
			return false
		case <-time.After(time.Millisecond):
		}
		if jobDir := crashJobDir(t, dir); jobDir != "" && shardFrames(t, jobDir) >= target {
			if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
				t.Fatal(err)
			}
			err := <-exited
			var exit *exec.ExitError
			if errors.As(err, &exit) && exit.ExitCode() == -1 {
				return true // terminated by the signal
			}
			check(err) // the child finished just before the kill
			return false
		}
	}
}

// crashChild is the child side: it runs testSpec() to completion on
// dir, submitting it on the first run and resuming it afterwards. Its
// runner logs each shard it starts and paces the shards so that the
// parent's kill lands between frames.
func crashChild(t *testing.T, dir, runsPath string) {
	runs, err := os.OpenFile(runsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer runs.Close()
	base := DefaultRunner()
	cfg := fastCfg(dir)
	cfg.Workers = 2
	cfg.Runner = func(ctx context.Context, cell Cell, lo, hi int) (engine.WavePartial, error) {
		if _, err := fmt.Fprintf(runs, "%d\n", testShard(cell, lo)); err != nil {
			return engine.WavePartial{}, err
		}
		time.Sleep(5 * time.Millisecond)
		return base(ctx, cell, lo, hi)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	var id string
	if jobs := m.List(); len(jobs) > 0 {
		id = jobs[0].ID
	} else if id, err = m.Submit(testSpec()); err != nil {
		t.Fatal(err)
	}
	if st := await(t, m, id); st.State != StateDone {
		t.Fatalf("state = %s (%+v)", st.State, st)
	}
}

// crashJobDir returns the only job directory under dir, or "" before
// the first child has submitted.
func crashJobDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			return filepath.Join(dir, e.Name())
		}
	}
	return ""
}

// loggedShards returns the shards with a frame in jobDir's log.
func loggedShards(t *testing.T, jobDir string) map[int]bool {
	t.Helper()
	out := map[int]bool{}
	if jobDir == "" {
		return out
	}
	recs, _, err := readLog(logPath(jobDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == "shard" {
			out[r.Shard] = true
		}
	}
	return out
}

// readRuns returns the shard indices a child logged as started.
func readRuns(t *testing.T, path string) []int {
	t.Helper()
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		s, err := strconv.Atoi(sc.Text())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
