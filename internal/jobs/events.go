package jobs

import "sync"

// Event is one progress notification for a job. Seq numbers are
// per-job, strictly increasing, and restart from 1 when a job is
// resumed after a server restart (events are ephemeral progress, not
// part of the durable record).
type Event struct {
	Seq   int64  `json:"seq"`
	Type  string `json:"type"`            // "state" | "shard-done" | "shard-retry" | "shard-quarantined"
	State string `json:"state,omitempty"` // for "state" events: running/done/degraded/failed/canceled
	Shard int    `json:"shard,omitempty"`
	Done  int    `json:"done"`  // shards finished so far
	Total int    `json:"total"` // shards overall
}

// eventRing keeps the last `cap` events of one job plus a broadcast
// channel that flips on every publish, so both the SSE streamer and
// the long-poll handler can wait without per-subscriber bookkeeping:
// read Since, then wait on Changed, then read Since again.
type eventRing struct {
	mu      sync.Mutex
	buf     []Event
	max     int
	next    int64
	changed chan struct{}
}

func newEventRing(max int) *eventRing {
	if max <= 0 {
		max = 1024
	}
	return &eventRing{max: max, next: 1, changed: make(chan struct{})}
}

// publish appends the event, evicting the oldest past capacity, and
// wakes every waiter.
func (r *eventRing) publish(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	r.buf = append(r.buf, ev)
	if len(r.buf) > r.max {
		r.buf = r.buf[len(r.buf)-r.max:]
	}
	close(r.changed)
	r.changed = make(chan struct{})
	r.mu.Unlock()
}

// Since returns the buffered events with Seq > since (oldest first)
// and the seq cursor to pass next time.
func (r *eventRing) Since(since int64) ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := len(r.buf)
	for i > 0 && r.buf[i-1].Seq > since {
		i--
	}
	out := make([]Event, len(r.buf)-i)
	copy(out, r.buf[i:])
	return out, r.next - 1
}

// Changed returns a channel closed at the next publish.
func (r *eventRing) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.changed
}
