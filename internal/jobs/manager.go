package jobs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"minequiv/internal/engine"
)

// Job states. A job is live in pending/running and terminal otherwise;
// degraded is a successful completion with quarantined shards reported,
// failed means no usable result exists (every shard quarantined, or the
// checkpoint was corrupt at resume).
const (
	StatePending  = "pending"
	StateRunning  = "running"
	StateDone     = "done"
	StateDegraded = "degraded"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Sentinel errors the serving layer maps to wire codes.
var (
	ErrNotFound    = errors.New("jobs: no such job")
	ErrNotReady    = errors.New("jobs: result not ready")
	ErrQuarantined = errors.New("jobs: every shard quarantined")
	ErrCorrupt     = errCorrupt
	// ErrStaleStream wraps ErrCorrupt: the checkpoint of a faulty sweep
	// was written under another fault stream (sim.FaultStreamVersion).
	ErrStaleStream = errStaleStream
	ErrTooManyJobs = errors.New("jobs: too many active jobs")
	ErrClosed      = errors.New("jobs: manager closed")
)

// Config parametrizes a Manager.
type Config struct {
	Dir          string           // checkpoint root; "" = in-memory only (jobs still run, nothing survives restart)
	Workers      int              // shard executor goroutines; <= 0 means GOMAXPROCS
	ShardTrials  int              // default trials per shard when the spec leaves it 0
	ShardTimeout time.Duration    // per-attempt execution budget
	MaxRetries   int              // failures beyond this quarantine the shard
	BackoffBase  time.Duration    // first retry delay; doubles per failure, ±50% jitter
	BackoffMax   time.Duration    // retry delay ceiling
	TTL          time.Duration    // terminal jobs older than this are garbage collected; <= 0 keeps forever
	MaxActive    int              // cap on live (pending/running) jobs; <= 0 means 64
	SweepEvery   time.Duration    // janitor cadence: backoff requeue, TTL GC
	EventBuffer  int              // per-job event ring capacity
	Runner       Runner           // nil means DefaultRunner()
	Now          func() time.Time // injectable clock for tests
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardTrials <= 0 {
		c.ShardTrials = 2048
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Minute
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 500 * time.Millisecond
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 1024
	}
	if c.Runner == nil {
		c.Runner = DefaultRunner()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time snapshot of the manager's counters, shaped
// for the /metrics exposition.
type Stats struct {
	JobsInFlight      int64
	JobsCompleted     uint64 // done + degraded
	JobsFailed        uint64
	ShardsDone        uint64
	ShardsRetried     uint64
	ShardsQuarantined uint64
	CheckpointBytes   uint64
}

// job is the scheduler's view of one sweep. All fields are guarded by
// the manager mutex; the store and event ring have their own locks and
// may be used outside it.
type job struct {
	id     string
	grid   grid
	store  *store
	events *eventRing
	ctx    context.Context
	cancel context.CancelFunc

	state       string
	errKind     error // ErrQuarantined, ErrCorrupt or ErrStaleStream for failed jobs
	errMsg      string
	done        []bool
	partials    []engine.WavePartial
	quarantined map[int]string
	attempts    []int
	waiting     map[int]time.Time // shard -> earliest requeue time (backoff)
	doneCount   int
	remaining   int // shards neither done nor quarantined
	created     time.Time
	finished    time.Time
	result      []byte
	doneCh      chan struct{}
}

func (j *job) live() bool { return j.state == StatePending || j.state == StateRunning }

// Status is the wire-facing summary of a job.
type Status struct {
	ID                string `json:"id"`
	State             string `json:"state"`
	Spec              Spec   `json:"spec"`
	ShardsTotal       int    `json:"shardsTotal"`
	ShardsDone        int    `json:"shardsDone"`
	ShardsQuarantined int    `json:"shardsQuarantined,omitempty"`
	Error             string `json:"error,omitempty"`
}

type shardRef struct {
	j     *job
	shard int
}

// Manager owns the job plane: the job table, the ready queue, the
// worker pool, and the janitor that requeues backed-off shards and
// garbage-collects expired jobs. A shard enters the queue only from
// Submit, from resume, or from a backoff requeue after its failed
// report, so a claimed shard runs exactly once per attempt, on the
// worker that claimed it.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	queue    []shardRef
	closed   bool
	draining bool

	workerWG    sync.WaitGroup
	janitorStop chan struct{}
	stopOnce    sync.Once

	jobsInFlight      atomic.Int64
	jobsCompleted     atomic.Uint64
	jobsFailed        atomic.Uint64
	shardsDone        atomic.Uint64
	shardsRetried     atomic.Uint64
	shardsQuarantined atomic.Uint64
	checkpointBytes   atomic.Uint64
}

// Open builds a Manager, resumes every job found under cfg.Dir, and
// starts the worker pool and janitor. Jobs whose checkpoints show
// unfinished shards are re-enqueued immediately; their already-logged
// shard results are NOT recomputed, and the eventual result bytes are
// identical to what an uninterrupted run would have produced.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:         cfg,
		jobs:        map[string]*job{},
		janitorStop: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(cfg.Dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if err := m.resume(e.Name()); err != nil {
				return nil, err
			}
		}
	}
	m.workerWG.Add(cfg.Workers)
	for range cfg.Workers {
		go m.workerLoop()
	}
	go m.janitor()
	return m, nil
}

func (m *Manager) now() time.Time { return m.cfg.Now() }

func (m *Manager) wrote(n int) { m.checkpointBytes.Add(uint64(n)) }

func (m *Manager) newJob(id string, g grid, st *store) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:          id,
		grid:        g,
		store:       st,
		events:      newEventRing(m.cfg.EventBuffer),
		ctx:         ctx,
		cancel:      cancel,
		state:       StatePending,
		done:        make([]bool, g.shards),
		partials:    make([]engine.WavePartial, g.shards),
		quarantined: map[int]string{},
		attempts:    make([]int, g.shards),
		waiting:     map[int]time.Time{},
		remaining:   g.shards,
		created:     m.now(),
		doneCh:      make(chan struct{}),
	}
}

// resume loads one persisted job directory into the table. Corrupt
// checkpoints surface as a failed job carrying ErrCorrupt (or
// ErrStaleStream, which wraps it) rather than an Open error: one
// damaged job must not take the whole plane down.
func (m *Manager) resume(id string) error {
	dir := filepath.Join(m.cfg.Dir, id)
	st, spec, recs, err := openStore(dir, m.wrote)
	if errors.Is(err, errCorrupt) {
		j := m.newJob(id, grid{}, &store{dir: dir, closed: true})
		j.state = StateFailed
		j.errKind = ErrCorrupt
		if errors.Is(err, errStaleStream) {
			j.errKind = ErrStaleStream
		}
		j.errMsg = err.Error()
		j.finished = m.now()
		close(j.doneCh)
		m.jobs[id] = j
		return nil
	}
	if err != nil {
		return err
	}
	g := newGrid(spec)
	j := m.newJob(id, g, st)
	canceled := false
	for _, rec := range recs {
		switch rec.Type {
		case "shard":
			if rec.Shard >= 0 && rec.Shard < g.shards && rec.Partial != nil && !j.done[rec.Shard] {
				j.done[rec.Shard] = true
				j.partials[rec.Shard] = *rec.Partial
				j.doneCount++
				j.remaining--
			}
		case "quarantine":
			if rec.Shard >= 0 && rec.Shard < g.shards && !j.done[rec.Shard] {
				if _, dup := j.quarantined[rec.Shard]; !dup {
					j.quarantined[rec.Shard] = rec.Reason
					j.remaining--
				}
			}
		case "cancel":
			canceled = true
		}
	}
	m.jobs[id] = j
	if data, err := os.ReadFile(resultPath(dir)); err == nil {
		var res Result
		j.state = StateDone
		if json.Unmarshal(data, &res) == nil && res.Degraded {
			j.state = StateDegraded
		}
		j.result = data
		j.finished = m.now()
		close(j.doneCh)
		return nil
	}
	if canceled {
		j.state = StateCanceled
		j.finished = m.now()
		close(j.doneCh)
		return nil
	}
	j.state = StateRunning
	m.jobsInFlight.Add(1)
	if j.remaining == 0 {
		// Crashed after the last shard landed but before the result was
		// published: finalize now, from the log alone.
		m.finalizeLocked(j)
		return nil
	}
	for s := 0; s < g.shards; s++ {
		if !j.done[s] {
			if _, q := j.quarantined[s]; !q {
				m.queue = append(m.queue, shardRef{j, s})
			}
		}
	}
	j.events.publish(Event{Type: "state", State: StateRunning, Done: j.doneCount, Total: g.shards})
	return nil
}

func newID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(err) // the platform CSPRNG is load-bearing and never fails on supported OSes
	}
	return hex.EncodeToString(b[:])
}

// Submit validates, normalizes, persists, and enqueues a sweep,
// returning its job ID.
func (m *Manager) Submit(spec Spec) (string, error) {
	spec.normalize(m.cfg.ShardTrials)
	if err := spec.validate(); err != nil {
		return "", err
	}
	g := newGrid(spec)

	m.mu.Lock()
	if m.closed || m.draining {
		m.mu.Unlock()
		return "", ErrClosed
	}
	live := 0
	for _, j := range m.jobs {
		if j.live() {
			live++
		}
	}
	if live >= m.cfg.MaxActive {
		m.mu.Unlock()
		return "", ErrTooManyJobs
	}
	id := newID()
	for m.jobs[id] != nil {
		id = newID()
	}
	m.mu.Unlock()

	// Persist outside the scheduler lock: spec.json lands with fsyncs.
	var st *store
	if m.cfg.Dir != "" {
		var err error
		st, err = newStore(filepath.Join(m.cfg.Dir, id), spec, m.wrote)
		if err != nil {
			return "", err
		}
	}
	j := m.newJob(id, g, st)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.draining {
		st.remove()
		return "", ErrClosed
	}
	j.state = StateRunning
	m.jobs[id] = j
	m.jobsInFlight.Add(1)
	for s := 0; s < g.shards; s++ {
		m.queue = append(m.queue, shardRef{j, s})
	}
	j.events.publish(Event{Type: "state", State: StateRunning, Done: 0, Total: g.shards})
	m.cond.Broadcast()
	return id, nil
}

// workerLoop claims ready shards until the manager closes or drains.
func (m *Manager) workerLoop() {
	defer m.workerWG.Done()
	for {
		ref, ok := m.next()
		if !ok {
			return
		}
		m.exec(ref)
	}
}

// next blocks for the next ready shard; ok=false means shut down.
func (m *Manager) next() (shardRef, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed || m.draining {
			return shardRef{}, false
		}
		if len(m.queue) > 0 {
			ref := m.queue[0]
			m.queue = m.queue[1:]
			return ref, true
		}
		m.cond.Wait()
	}
}

// exec runs one claimed shard under its per-attempt budget and
// reports the outcome. Shards of a job that stopped running are
// skipped.
func (m *Manager) exec(ref shardRef) {
	j, s := ref.j, ref.shard
	m.mu.Lock()
	running := j.state == StateRunning
	m.mu.Unlock()
	if !running {
		return
	}
	cell, lo, hi := j.grid.shard(s)
	ctx, cancel := context.WithTimeout(j.ctx, m.cfg.ShardTimeout)
	p, err := m.cfg.Runner(ctx, cell, lo, hi)
	cancel()
	m.report(j, s, p, err)
}

// report lands one shard outcome. A successful partial is appended
// (and fsync'd) to the checkpoint log before the scheduler state marks
// it done, but the shard is marked done whether or not the append
// landed: the in-memory table may run ahead of the log, and a lost
// frame only costs that shard a re-run after a crash (see
// store.append).
func (m *Manager) report(j *job, s int, p engine.WavePartial, err error) {
	if err == nil && j.store != nil {
		_ = j.store.append(logRecord{Type: "shard", Shard: s, Partial: &p})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || j.state != StateRunning {
		return // crashed or canceled: the report never happened
	}
	if err != nil {
		if j.ctx.Err() != nil {
			return // job canceled or force-drained mid-run
		}
		j.attempts[s]++
		if j.attempts[s] > m.cfg.MaxRetries {
			reason := fmt.Sprintf("attempt %d: %v", j.attempts[s], err)
			j.quarantined[s] = reason
			if j.store != nil {
				_ = j.store.append(logRecord{Type: "quarantine", Shard: s, Reason: reason})
			}
			j.remaining--
			m.shardsQuarantined.Add(1)
			j.events.publish(Event{Type: "shard-quarantined", Shard: s, Done: j.doneCount, Total: j.grid.shards})
			if j.remaining == 0 {
				m.finalizeLocked(j)
			}
			return
		}
		m.shardsRetried.Add(1)
		j.waiting[s] = m.now().Add(m.backoff(j.attempts[s]))
		j.events.publish(Event{Type: "shard-retry", Shard: s, Done: j.doneCount, Total: j.grid.shards})
		return
	}
	j.done[s] = true
	j.partials[s] = p
	j.doneCount++
	j.remaining--
	m.shardsDone.Add(1)
	j.events.publish(Event{Type: "shard-done", Shard: s, Done: j.doneCount, Total: j.grid.shards})
	if j.remaining == 0 {
		m.finalizeLocked(j)
	}
}

// backoff is exponential from BackoffBase with ±50% jitter, capped at
// BackoffMax. Jitter decorrelates retry storms; it cannot perturb
// results, only schedules.
func (m *Manager) backoff(attempt int) time.Duration {
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	d := m.cfg.BackoffBase << shift
	if d > m.cfg.BackoffMax {
		d = m.cfg.BackoffMax
	}
	return d/2 + rand.N(d)
}

// finalizeLocked publishes a job's terminal state. Caller holds m.mu
// and guarantees remaining == 0.
func (m *Manager) finalizeLocked(j *job) {
	state := StateDone
	switch {
	case len(j.quarantined) == 0:
	case j.doneCount > 0:
		state = StateDegraded
	default:
		state = StateFailed
		j.errKind = ErrQuarantined
		j.errMsg = "every shard quarantined"
	}
	if state != StateFailed {
		data, err := finalizeResult(j.grid, j.done, j.partials, j.quarantined)
		if err != nil {
			state = StateFailed
			j.errMsg = err.Error()
		} else {
			j.result = data
			if j.store != nil {
				_ = j.store.writeResult(data)
			}
		}
	}
	j.state = state
	j.finished = m.now()
	m.jobsInFlight.Add(-1)
	if state == StateFailed {
		m.jobsFailed.Add(1)
	} else {
		m.jobsCompleted.Add(1)
	}
	j.events.publish(Event{Type: "state", State: state, Done: j.doneCount, Total: j.grid.shards})
	close(j.doneCh)
}

// janitor is the periodic sweep: backed-off shards whose delay elapsed
// are requeued, and terminal jobs past the TTL are deleted along with
// their directories.
func (m *Manager) janitor() {
	ticker := time.NewTicker(m.cfg.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-ticker.C:
			m.sweep()
		}
	}
}

func (m *Manager) sweep() {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	woke := false
	for id, j := range m.jobs {
		if j.state == StateRunning {
			for s, nb := range j.waiting {
				if !now.Before(nb) {
					delete(j.waiting, s)
					m.queue = append(m.queue, shardRef{j, s})
					woke = true
				}
			}
			continue
		}
		if !j.live() && m.cfg.TTL > 0 && !j.finished.IsZero() && now.Sub(j.finished) > m.cfg.TTL {
			delete(m.jobs, id)
			j.store.remove()
		}
	}
	if woke {
		m.cond.Broadcast()
	}
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

func (m *Manager) statusLocked(j *job) Status {
	return Status{
		ID:                j.id,
		State:             j.state,
		Spec:              j.grid.spec,
		ShardsTotal:       j.grid.shards,
		ShardsDone:        j.doneCount,
		ShardsQuarantined: len(j.quarantined),
		Error:             j.errMsg,
	}
}

// List returns every resident job's status, ordered by ID.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, m.statusLocked(j))
	}
	slices.SortFunc(out, func(a, b Status) int {
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
	return out
}

// Result returns the finalized result bytes — the exact bytes on disk.
// ErrNotReady while the job is live or canceled, ErrQuarantined when
// every shard was quarantined, ErrCorrupt when the job's checkpoint
// could not be trusted at resume (ErrStaleStream when it was drawn
// under another fault stream).
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	switch j.state {
	case StateDone, StateDegraded:
		return j.result, nil
	case StateFailed:
		if j.errKind != nil {
			return nil, j.errKind
		}
		return nil, fmt.Errorf("jobs: job failed: %s", j.errMsg)
	default:
		return nil, ErrNotReady
	}
}

// Events returns the buffered events with Seq > since, the cursor to
// resume from, and a channel closed at the next publish.
func (m *Manager) Events(id string, since int64) ([]Event, int64, <-chan struct{}, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, 0, nil, ErrNotFound
	}
	evs, next := j.events.Since(since)
	return evs, next, j.events.Changed(), nil
}

// Done exposes a job's completion channel (closed at terminal state).
func (m *Manager) Done(id string) (<-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.doneCh, nil
}

// Cancel moves a live job to canceled: a cancel record is logged so a
// restart will not resurrect it, in-flight shards are aborted via the
// job context, and their late reports are dropped.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if !j.live() {
		m.mu.Unlock()
		return nil
	}
	j.state = StateCanceled
	j.finished = m.now()
	m.jobsInFlight.Add(-1)
	j.cancel()
	j.events.publish(Event{Type: "state", State: StateCanceled, Done: j.doneCount, Total: j.grid.shards})
	close(j.doneCh)
	st := j.store
	m.mu.Unlock()
	if st != nil {
		_ = st.append(logRecord{Type: "cancel"})
	}
	return nil
}

// Stats snapshots the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		JobsInFlight:      m.jobsInFlight.Load(),
		JobsCompleted:     m.jobsCompleted.Load(),
		JobsFailed:        m.jobsFailed.Load(),
		ShardsDone:        m.shardsDone.Load(),
		ShardsRetried:     m.shardsRetried.Load(),
		ShardsQuarantined: m.shardsQuarantined.Load(),
		CheckpointBytes:   m.checkpointBytes.Load(),
	}
}

// Drain is the graceful shutdown: no new shards are claimed, in-flight
// shards finish and checkpoint normally, then the stores close. If ctx
// expires first, the remaining in-flight shards are aborted through
// their job contexts (their work is lost but their jobs' logs stay
// consistent — the shards simply re-run after the next Open).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-done
	}
	m.stopOnce.Do(func() { close(m.janitorStop) })
	m.mu.Lock()
	m.closed = true
	for _, j := range m.jobs {
		j.store.close()
	}
	m.mu.Unlock()
	return err
}

// Kill simulates a crash: everything stops where it stands. Stores are
// closed abruptly (no final flush beyond what each append already
// fsync'd), in-flight work is aborted and its reports discarded, and
// no state transition is recorded. The only durable truth left is what
// the checkpoint log had already absorbed — which is the point: tests
// reopen the directory and must reach the byte-identical result.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.stopOnce.Do(func() { close(m.janitorStop) })
	for _, j := range m.jobs {
		j.cancel()
		j.store.close()
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.workerWG.Wait()
}
