package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
)

// ArbiterPolicy picks the winner when both switch inputs contend for the
// same output port in one cycle.
type ArbiterPolicy uint8

const (
	// ArbRandom flips a fair coin per conflict (the classic model).
	ArbRandom ArbiterPolicy = iota
	// ArbRoundRobin alternates priority per (cell, output): the loser of
	// a contested cycle holds priority for the next conflict.
	ArbRoundRobin
)

func (a ArbiterPolicy) String() string {
	switch a {
	case ArbRandom:
		return "random"
	case ArbRoundRobin:
		return "roundrobin"
	}
	return fmt.Sprintf("ArbiterPolicy(%d)", uint8(a))
}

// LanePolicy picks the lane a packet joins when it is enqueued at an
// input port with multiple lanes.
type LanePolicy uint8

const (
	// LaneShortest joins the least-occupied lane with room (lowest index
	// wins ties) — the load-balancing default.
	LaneShortest LanePolicy = iota
	// LaneByDst joins lane dst mod Lanes, keeping per-destination FIFO
	// order across the whole path.
	LaneByDst
	// LaneRandom joins a uniformly random lane among those with room.
	LaneRandom
)

func (l LanePolicy) String() string {
	switch l {
	case LaneShortest:
		return "shortest"
	case LaneByDst:
		return "bydst"
	case LaneRandom:
		return "random"
	}
	return fmt.Sprintf("LanePolicy(%d)", uint8(l))
}

// BufferedConfig parametrizes the queued (store-and-forward) simulation.
type BufferedConfig struct {
	Queue  int // FIFO capacity per lane
	Lanes  int // FIFO lanes per switch input port; 0 means 1
	Cycles int // measured cycles
	Warmup int // cycles discarded before measuring

	// Pattern generates one cycle of injections: dsts[i] >= 0 offers a
	// packet at input i. It is required. Any registry scenario works;
	// Scenario.Traffic sets its offered load (Bernoulli(load) is the
	// classic uniform source).
	Pattern Traffic

	Arbiter    ArbiterPolicy // output-port arbitration between the two inputs
	LaneSelect LanePolicy    // lane choice on enqueue
}

// lanes returns the effective lane count.
func (c BufferedConfig) lanes() int {
	if c.Lanes < 1 {
		return 1
	}
	return c.Lanes
}

// BufferedResult aggregates one replication.
type BufferedResult struct {
	Injected     int
	Rejected     int // injection attempts refused by a full entry port
	Delivered    int
	Dropped      int // undeliverable head packets discarded (non-Banyan fabrics, faults)
	FaultDropped int // subset of Dropped killed directly by a fault (dead switch, severed link)
	Misrouted    int // packets a stuck last-stage switch pushed out the wrong terminal
	InFlight     int // packets still queued at the end
	Cycles       int
	MeanLatency  float64 // cycles from injection to delivery
	P50          int     // latency percentiles over measured deliveries, cycles
	P95          int
	P99          int
	Throughput   float64 // delivered per terminal per measured cycle
	MaxOccupancy int     // largest single-lane queue length observed
	// StageOccupancy[s] is the mean number of packets queued at stage s
	// per measured cycle. The slice is owned by the runner and
	// overwritten by its next Run; copy it if it must outlive the call.
	StageOccupancy []float64
}

// BufferedRunner owns every buffer of the store-and-forward model —
// multi-lane ring FIFOs, arbitration state, the latency histogram, the
// occupancy accumulators and the injection buffer — so that repeated
// replications through one fabric are allocation-free in steady state.
// A runner is NOT safe for concurrent use; create one per goroutine
// (the parallel engine gives each worker its own).
//
// Model, serviced downstream-first so a packet advances at most one hop
// per cycle but slots freed downstream are usable within the cycle:
// each switch input port holds Lanes independent FIFOs of capacity
// Queue. Per cycle each input port may send one packet and each output
// port may accept one. An input offers, per output port, the head of
// the first lane (in round-robin order) requesting that output — so a
// head blocked on one output never blinds lanes headed for the other
// (the head-of-line bypass that multi-lane storage exists for).
// Contended outputs are arbitrated by the ArbiterPolicy; a winner
// advances only if a downstream lane has room (backpressure), and
// undeliverable heads are dropped and counted instead of stalling the
// lane forever.
type BufferedRunner struct {
	f      *Fabric
	faults *FaultState
	cfg    BufferedConfig
	lanes  int
	cap    int

	// Ring-buffer FIFOs, flat over (stage, port, lane):
	// fifo i occupies buf[i*cap : (i+1)*cap] with head[i]/count[i].
	buf   []packet
	head  []int32
	count []int32

	rrLane     []int32 // per (stage, input port): next lane to serve
	rrIn       []uint8 // per (stage, cell, output): priority input for ArbRoundRobin
	stageCount []int32 // packets currently queued per stage
	occSum     []int64 // per stage: sum of stageCount over measured cycles
	stageOcc   []float64
	hist       []int32 // latency histogram; index = latency in cycles
	dsts       []int   // injection buffer for Pattern

	// Injection draws run on their own stream, reseeded from the trial
	// rng at the top of each Run: the offered-traffic sequence is then a
	// pure function of the trial seed, immune to how many arbitration /
	// lane draws the service phase consumes — which is what lets a
	// FaultPlan degrade the fabric without perturbing what the sources
	// offer.
	injSrc *rand.PCG
	injRng *rand.Rand
}

// packet is a queued message: its destination terminal and the cycle
// it was injected. Both fit an int32 (N <= 2^MaxFabricStages,
// Warmup+Cycles <= MaxBufferedCycles), so a FIFO slot is 8 bytes.
type packet struct {
	dst, born int32
}

// MaxBufferedPackets bounds the packet slots one BufferedRunner sizes up
// front: Lanes FIFOs of Queue packets at each of the fabric's Spans·N
// switch input ports. The engine gives every worker its own runner, so
// without a bound one config's Queue and Lanes would size an allocation
// of any size. 1<<22 slots of 8-byte packets are ~32 MB; at 10 stages
// that admits Lanes·Queue up to 409.
const MaxBufferedPackets = 1 << 22

// MaxBufferedCycles bounds Warmup+Cycles of one replication. A runner
// sizes its latency histogram with one int32 bucket per cycle and
// clears it every replication, so without a bound a config's cycle
// count would size an allocation of any size; 1<<22 cycles are a 16 MB
// histogram, twenty times minserve's default cycle cap.
const MaxBufferedCycles = 1 << 22

// ErrBufferTooLarge is wrapped by the error ValidateBuffered returns
// when a config's packet storage exceeds MaxBufferedPackets or its
// Warmup+Cycles exceed MaxBufferedCycles.
var ErrBufferTooLarge = errors.New("sim: buffered runner storage too large")

// ValidateBuffered checks a buffered configuration against this fabric
// without sizing any buffers: the field ranges, and that the packet
// storage and latency histogram a runner would size stay within
// MaxBufferedPackets and MaxBufferedCycles.
func (f *Fabric) ValidateBuffered(c BufferedConfig) error {
	if c.Pattern == nil {
		return fmt.Errorf("sim: buffered config needs a traffic pattern")
	}
	if c.Queue < 1 {
		return fmt.Errorf("sim: queue capacity must be >= 1")
	}
	if c.Lanes < 0 {
		return fmt.Errorf("sim: lane count %d negative", c.Lanes)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("sim: cycles must be >= 1")
	}
	if c.Warmup < 0 {
		return fmt.Errorf("sim: warmup %d negative", c.Warmup)
	}
	switch c.Arbiter {
	case ArbRandom, ArbRoundRobin:
	default:
		return fmt.Errorf("sim: unknown arbiter policy %d", c.Arbiter)
	}
	switch c.LaneSelect {
	case LaneShortest, LaneByDst, LaneRandom:
	default:
		return fmt.Errorf("sim: unknown lane policy %d", c.LaneSelect)
	}
	// ports·lanes stays within the bound before it multiplies Queue, so
	// no product overflows.
	ports, lanes := f.Spans*f.N, c.lanes()
	if lanes > MaxBufferedPackets/ports || c.Queue > MaxBufferedPackets/(ports*lanes) {
		return fmt.Errorf("%w: %d ports x %d lanes x queue %d exceeds the bound of %d packets",
			ErrBufferTooLarge, ports, lanes, c.Queue, MaxBufferedPackets)
	}
	// Each term is checked alone first, so the sum cannot overflow.
	if c.Cycles > MaxBufferedCycles || c.Warmup > MaxBufferedCycles-c.Cycles {
		return fmt.Errorf("%w: warmup %d + cycles %d exceeds the bound of %d cycles",
			ErrBufferTooLarge, c.Warmup, c.Cycles, MaxBufferedCycles)
	}
	return nil
}

// NewBufferedRunner validates the configuration (ValidateBuffered) and
// sizes every buffer. The returned runner reuses all of them across
// calls to Run.
func (f *Fabric) NewBufferedRunner(cfg BufferedConfig) (*BufferedRunner, error) {
	if err := f.ValidateBuffered(cfg); err != nil {
		return nil, err
	}
	lanes := cfg.lanes()
	ports := f.Spans * f.H * 2
	fifos := ports * lanes
	total := cfg.Warmup + cfg.Cycles
	injSrc := rand.NewPCG(0, 0)
	return &BufferedRunner{
		injSrc:     injSrc,
		injRng:     rand.New(injSrc),
		f:          f,
		cfg:        cfg,
		lanes:      lanes,
		cap:        cfg.Queue,
		buf:        make([]packet, fifos*cfg.Queue),
		head:       make([]int32, fifos),
		count:      make([]int32, fifos),
		rrLane:     make([]int32, ports),
		rrIn:       make([]uint8, ports),
		stageCount: make([]int32, f.Spans),
		occSum:     make([]int64, f.Spans),
		stageOcc:   make([]float64, f.Spans),
		hist:       make([]int32, total+2),
		dsts:       make([]int, f.N),
	}, nil
}

// SetFaults attaches a fault state the runner consults on every switch
// decision; nil restores the intact fabric. The state must be sized for
// the runner's stage count. The caller keeps ownership and may resample
// it between replications (the engine resamples per trial); Run does
// not clear it.
func (r *BufferedRunner) SetFaults(fs *FaultState) error {
	if err := fs.fits(r.f.Spans); err != nil {
		return err
	}
	r.faults = fs
	return nil
}

// fifo index of (stage, port, lane); the port index of a stage equals
// the link value cell*2+in.
func (r *BufferedRunner) fifo(s, port, lane int) int {
	return (s*r.f.H*2+port)*r.lanes + lane
}

func (r *BufferedRunner) peek(fi int) packet {
	return r.buf[fi*r.cap+int(r.head[fi])]
}

func (r *BufferedRunner) pop(fi, s int) packet {
	p := r.buf[fi*r.cap+int(r.head[fi])]
	r.head[fi]++
	if int(r.head[fi]) == r.cap {
		r.head[fi] = 0
	}
	r.count[fi]--
	r.stageCount[s]--
	return p
}

func (r *BufferedRunner) push(fi, s int, p packet) {
	tail := int(r.head[fi]) + int(r.count[fi])
	if tail >= r.cap {
		tail -= r.cap
	}
	r.buf[fi*r.cap+tail] = p
	r.count[fi]++
	r.stageCount[s]++
}

// pickLane selects the enqueue lane at (stage, port) for a packet to
// dst, honoring the configured policy; -1 means every admissible lane
// is full (backpressure).
func (r *BufferedRunner) pickLane(s, port, dst int, rng *rand.Rand) int {
	base := r.fifo(s, port, 0)
	if r.lanes == 1 {
		if int(r.count[base]) >= r.cap {
			return -1
		}
		return 0
	}
	switch r.cfg.LaneSelect {
	case LaneByDst:
		l := dst % r.lanes
		if int(r.count[base+l]) >= r.cap {
			return -1
		}
		return l
	case LaneRandom:
		free := 0
		for l := 0; l < r.lanes; l++ {
			if int(r.count[base+l]) < r.cap {
				free++
			}
		}
		if free == 0 {
			return -1
		}
		k := rng.IntN(free)
		for l := 0; l < r.lanes; l++ {
			if int(r.count[base+l]) < r.cap {
				if k == 0 {
					return l
				}
				k--
			}
		}
		return -1 // unreachable
	default: // LaneShortest
		best, bestCount := -1, int32(0)
		for l := 0; l < r.lanes; l++ {
			c := r.count[base+l]
			if int(c) < r.cap && (best < 0 || c < bestCount) {
				best, bestCount = l, c
			}
		}
		return best
	}
}

// Run executes one replication and resets all state first, so every
// call is an independent sample path of the given rng. The returned
// result's StageOccupancy aliases runner-owned storage. Run checks ctx
// once per cycle and returns ctx.Err() when it is done.
func (r *BufferedRunner) Run(ctx context.Context, rng *rand.Rand) (BufferedResult, error) {
	f, cfg := r.f, r.cfg
	// Derive the injection stream from the trial rng's first two words,
	// then never touch it from the service phase: offered traffic is a
	// pure function of the trial seed (see the injRng field comment).
	r.injSrc.Seed(rng.Uint64(), rng.Uint64())
	for i := range r.head {
		r.head[i], r.count[i] = 0, 0
	}
	for i := range r.rrLane {
		r.rrLane[i], r.rrIn[i] = 0, 0
	}
	for i := range r.occSum {
		r.occSum[i] = 0
		r.stageCount[i] = 0
	}
	for i := range r.hist {
		r.hist[i] = 0
	}

	res := BufferedResult{Cycles: cfg.Cycles}
	var latSum float64
	total := cfg.Warmup + cfg.Cycles
	for cycle := 0; cycle < total; cycle++ {
		if err := ctx.Err(); err != nil {
			return BufferedResult{}, err
		}
		measuring := cycle >= cfg.Warmup
		// Service stages from the last to the first.
		for s := f.Spans - 1; s >= 0; s-- {
			for cell := 0; cell < f.H; cell++ {
				r.serviceCell(s, cell, cycle, measuring, rng, &res, &latSum)
			}
		}
		// Injection, on the dedicated stream.
		r.cfg.Pattern(r.dsts, r.injRng)
		for t := 0; t < f.N; t++ {
			dst := r.dsts[t]
			if dst < 0 {
				continue
			}
			l := r.pickLane(0, t, dst, rng)
			if l < 0 {
				if measuring {
					res.Rejected++
				}
				continue
			}
			fi := r.fifo(0, t, l)
			r.push(fi, 0, packet{dst: int32(dst), born: int32(cycle)})
			if measuring {
				res.Injected++
			}
			if int(r.count[fi]) > res.MaxOccupancy {
				res.MaxOccupancy = int(r.count[fi])
			}
		}
		if measuring {
			for s := range r.occSum {
				r.occSum[s] += int64(r.stageCount[s])
			}
		}
	}

	for _, c := range r.count {
		res.InFlight += int(c)
	}
	for s := range r.stageOcc {
		r.stageOcc[s] = float64(r.occSum[s]) / float64(cfg.Cycles)
	}
	res.StageOccupancy = r.stageOcc
	if res.Delivered > 0 {
		res.MeanLatency = latSum / float64(res.Delivered)
		res.P50 = r.percentile(res.Delivered, 0.50)
		res.P95 = r.percentile(res.Delivered, 0.95)
		res.P99 = r.percentile(res.Delivered, 0.99)
	}
	res.Throughput = float64(res.Delivered) / float64(cfg.Cycles) / float64(f.N)
	return res, nil
}

// serviceCell moves up to one packet per output port of one switch.
func (r *BufferedRunner) serviceCell(s, cell, cycle int, measuring bool, rng *rand.Rand, res *BufferedResult, latSum *float64) {
	f := r.f
	pbase := s * f.H * 2 // this stage's base into the per-port rr state
	// cand[in][out] is the round-robin-first lane at input `in` whose
	// head requests output `out`, or -1. Undeliverable heads found
	// while scanning are dropped and counted.
	var cand [2][2]int
	for in := 0; in < 2; in++ {
		cand[in][0], cand[in][1] = -1, -1
		port := cell*2 + in
		start := int(r.rrLane[pbase+port])
		for k := 0; k < r.lanes; k++ {
			l := start + k
			if l >= r.lanes {
				l -= r.lanes
			}
			fi := r.fifo(s, port, l)
			var pt uint8
			for r.count[fi] > 0 {
				pt = f.steer(r.faults, s, cell, int(r.peek(fi).dst))
				if pt < portFaulted {
					break
				}
				// Undeliverable head: no path in this fabric, or a fault
				// (dead switch / severed outlink) kills it. Dropping keeps
				// the lane live instead of wedging it forever.
				r.pop(fi, s)
				if measuring {
					res.Dropped++
					if pt == portFaulted {
						res.FaultDropped++
					}
				}
			}
			if r.count[fi] == 0 {
				continue
			}
			if cand[in][pt] < 0 {
				cand[in][pt] = l
			}
			if cand[in][0] >= 0 && cand[in][1] >= 0 {
				break
			}
		}
	}
	var sent [2]bool
	for out := 0; out < 2; out++ {
		a0 := cand[0][out] >= 0 && !sent[0]
		a1 := cand[1][out] >= 0 && !sent[1]
		var order [2]int
		var n int
		contested := a0 && a1
		switch {
		case contested:
			first := 0
			if r.cfg.Arbiter == ArbRoundRobin {
				first = int(r.rrIn[pbase+cell*2+out])
			} else {
				first = rng.IntN(2)
			}
			order = [2]int{first, 1 - first}
			n = 2
		case a0:
			order[0], n = 0, 1
		case a1:
			order[0], n = 1, 1
		default:
			continue
		}
		// Both inputs feed the same downstream port. Under LaneShortest
		// and LaneRandom a winner stalled by backpressure means every
		// lane there is full, so the loser is stalled too; under
		// LaneByDst the loser's destination may map to a lane with
		// room, so it gets the chance the winner could not use.
		for i := 0; i < n; i++ {
			in := order[i]
			lane := cand[in][out]
			port := cell*2 + in
			fi := r.fifo(s, port, lane)
			if s == f.Spans-1 {
				p := r.pop(fi, s)
				if measuring {
					// A stuck last-stage switch can force the wrong port:
					// the packet leaves a terminal, just not its own. The
					// wave model separates these as Misrouted; so do we —
					// they are not deliveries and carry no latency sample.
					if cell<<1|out == int(p.dst) {
						res.Delivered++
						lat := cycle - int(p.born) + 1
						*latSum += float64(lat)
						r.hist[lat]++
					} else {
						res.Misrouted++
					}
				}
			} else {
				dport := int(f.forward(s, uint64(cell)<<1|uint64(out)))
				dl := r.pickLane(s+1, dport, int(r.peek(fi).dst), rng)
				if dl < 0 {
					continue // backpressure stall; maybe the other input can go
				}
				p := r.pop(fi, s)
				dfi := r.fifo(s+1, dport, dl)
				r.push(dfi, s+1, p)
				if int(r.count[dfi]) > res.MaxOccupancy {
					res.MaxOccupancy = int(r.count[dfi])
				}
			}
			sent[in] = true
			if contested {
				// The grant holder yields priority for the next conflict.
				r.rrIn[pbase+cell*2+out] = uint8(1 - in)
			}
			next := lane + 1
			if next == r.lanes {
				next = 0
			}
			r.rrLane[pbase+port] = int32(next)
			break
		}
	}
}

// percentile returns the smallest latency whose cumulative measured
// delivery count reaches q of the total.
func (r *BufferedRunner) percentile(delivered int, q float64) int {
	need := int64(q * float64(delivered))
	if float64(need) < q*float64(delivered) {
		need++
	}
	if need < 1 {
		need = 1
	}
	var cum int64
	for lat, c := range r.hist {
		cum += int64(c)
		if cum >= need {
			return lat
		}
	}
	return len(r.hist) - 1
}

// RunBuffered is the one-shot convenience form; it allocates a fresh
// runner per call and runs the replication to completion, with no
// context to cancel it. Hot loops should hold a BufferedRunner instead.
func (f *Fabric) RunBuffered(cfg BufferedConfig, rng *rand.Rand) (BufferedResult, error) {
	r, err := f.NewBufferedRunner(cfg)
	if err != nil {
		return BufferedResult{}, err
	}
	return r.Run(context.TODO(), rng)
}
