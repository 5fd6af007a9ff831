package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"minequiv/min"
	"minequiv/minserve"
)

// The request shapes below mirror the minserve JSON API field for field
// (same names, same order, same omitempty), so a body marshalled here
// is what any JSON client would send.

type netSpec struct {
	Network   string  `json:"network,omitempty"`
	Stages    int     `json:"stages"`
	LinkPerms [][]int `json:"linkPerms,omitempty"`
}

type checkReq struct {
	netSpec
	Iso bool `json:"iso,omitempty"`
}

type routeReq struct {
	netSpec
	Src    int            `json:"src"`
	Dst    int            `json:"dst"`
	Faults *min.FaultPlan `json:"faults,omitempty"`
}

type simReq struct {
	netSpec
	Model        string         `json:"model,omitempty"`
	Scenario     string         `json:"scenario,omitempty"`
	Load         float64        `json:"load,omitempty"`
	HotDst       int            `json:"hotDst,omitempty"`
	HotProb      float64        `json:"hotProb,omitempty"`
	Seed         uint64         `json:"seed,omitempty"`
	Workers      int            `json:"workers,omitempty"`
	Faults       *min.FaultPlan `json:"faults,omitempty"`
	Waves        int            `json:"waves,omitempty"`
	Kernel       string         `json:"kernel,omitempty"`
	Replications int            `json:"replications,omitempty"`
	Queue        int            `json:"queue,omitempty"`
	Lanes        int            `json:"lanes,omitempty"`
	Cycles       int            `json:"cycles,omitempty"`
	Warmup       int            `json:"warmup,omitempty"`
}

type batchItem struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

type batchReq struct {
	Requests []batchItem `json:"requests"`
}

type sweepSpec struct {
	Networks      []string  `json:"networks"`
	Stages        int       `json:"stages"`
	Loads         []float64 `json:"loads,omitempty"`
	FaultRates    []float64 `json:"faultRates,omitempty"`
	Scenario      string    `json:"scenario,omitempty"`
	Kernel        string    `json:"kernel,omitempty"`
	TrialsPerCell int       `json:"trialsPerCell"`
	Seed          uint64    `json:"seed,omitempty"`
	ShardTrials   int       `json:"shardTrials,omitempty"`
}

// cells is the sweep's grid size; empty load and fault-rate lists
// count as one value each, as the job plane normalizes them.
func (s *sweepSpec) cells() int {
	return len(s.Networks) * max(1, len(s.Loads)) * max(1, len(s.FaultRates))
}

// Op kinds. simfault is a /v1/simulate body carrying a long pinned
// fault list; buffered is a buffered-model /v1/simulate body.
const (
	kindCheck    = "check"
	kindRoute    = "route"
	kindBatch    = "batch"
	kindSimulate = "simulate"
	kindSimFault = "simfault"
	kindBuffered = "buffered"
	kindSweep    = "sweep"
)

// op is one pregenerated request: the bytes sent plus what the
// benchmark needs to check the answer and to replay the work through
// the min façade.
type op struct {
	kind     string
	endpoint string // minserve endpoint name: check, route, simulate, batch, jobs
	bin      bool   // binary request body and binary response
	body     []byte // the bytes sent
	jsonBody []byte // the JSON form of the same request

	check *checkReq
	route *routeReq
	sim   *simReq
	batch []*checkReq
	sweep *sweepSpec

	// wantEquivalent is the verdict the paper's theorem predicts for a
	// check: relabeled catalog wirings are equivalent, tail-cycle and
	// double-arc wirings are not.
	wantEquivalent bool
	// bitOK is whether the simulated fabric qualifies for KernelBit.
	bitOK bool
	// original is, for a resubmitted sweep, the earlier op with the same
	// spec whose /result bytes this one must reproduce.
	original *op
	// perms regenerates the link permutations of a serve-cold wiring,
	// which the request structs above drop once the body is built: a
	// run holds thousands of these wirings, and only the bytes sent are
	// kept per op.
	perms func() [][]int
}

// spec returns s with its link permutations restored.
func (o *op) spec(s netSpec) netSpec {
	if s.LinkPerms == nil && o.perms != nil {
		s.LinkPerms = o.perms()
	}
	return s
}

// request returns the op's full request value.
func (o *op) request() any {
	switch {
	case o.check != nil:
		r := *o.check
		r.netSpec = o.spec(r.netSpec)
		return &r
	case o.route != nil:
		r := *o.route
		r.netSpec = o.spec(r.netSpec)
		return &r
	case o.sim != nil:
		return o.sim
	case o.sweep != nil:
		return o.sweep
	}
	br := batchReq{}
	for _, it := range o.batch {
		data, _ := json.Marshal(it)
		br.Requests = append(br.Requests, batchItem{Op: "check", Request: data})
	}
	return br
}

// jsonForm returns the JSON form of the request (binary ops keep only
// their binary body, so theirs is rebuilt).
func (o *op) jsonForm() []byte {
	if o.jsonBody != nil {
		return o.jsonBody
	}
	data, _ := json.Marshal(o.request())
	return data
}

// workload is a generated traffic mix.
type workload struct {
	name    string
	clients int
	// warm runs once per setup, before timing, to reach steady state.
	warm []*op
	// ops is the timed sequence; client c takes ops c, c+clients, ...
	// and wraps around at the end.
	ops []*op
	// opsPerSec is about how many ops one client completes per second
	// on a 2-core host; it sizes the latency sample buffers.
	opsPerSec int
}

var workloadNames = []string{"serve-hot", "serve-cold", "simulate", "sweep"}

// catalog is the six equivalent networks of the paper's main corollary.
var catalog = []string{min.Baseline, min.ReverseBaseline, min.Omega, min.Flip, min.IndirectCube, min.ModifiedDM}

// generate builds the named workload's requests from seed.
func generate(name string, seed uint64) (*workload, error) {
	g := &gen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
	var w *workload
	switch name {
	case "serve-hot":
		w = g.serveHot()
	case "serve-cold":
		w = g.serveCold()
	case "simulate":
		w = g.simulate()
	case "sweep":
		w = g.sweep()
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	w.name = name
	if g.err != nil {
		return nil, g.err
	}
	return w, nil
}

type gen struct {
	rng *rand.Rand
	err error
}

// finish marshals the op's JSON body and, for binary ops, transcodes it
// with the public minserve encoder. A binary op keeps only the binary
// body.
func (g *gen) finish(o *op, req any) *op {
	data, err := json.Marshal(req)
	if err != nil {
		g.fail(err)
		return o
	}
	o.body = data
	if !o.bin {
		o.jsonBody = data
		return o
	}
	enc, err := minserve.EncodeBinaryRequest(o.endpoint, data)
	if err != nil {
		g.fail(fmt.Errorf("transcode %s: %w", o.kind, err))
		return o
	}
	o.body = enc
	return o
}

func (g *gen) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// round lays out one stratified round: counts[k] ops of kind k in a
// seeded order. Stratifying keeps the mix, and so the medians, the same
// from seed to seed; the seed picks the order and every request
// parameter.
func (g *gen) round(counts map[string]int, kinds []string) []string {
	var out []string
	for _, k := range kinds {
		for i := 0; i < counts[k]; i++ {
			out = append(out, k)
		}
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// codecs returns n codec flags, exactly half binary, in seeded order.
func (g *gen) codecs(n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n/2; i++ {
		out[i] = true
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- serve-hot --------------------------------------------------------

// pair is one hot request in both codecs.
type pair struct{ json, bin *op }

// serveHot: check, route and 4-item check batches over a hot set that
// fits the default 256-entry response cache, plus 10% simfault
// simulates. The hot set is 36 check and 36 route bodies, one per
// (stage 3..8, catalog network) pair, each in both codecs: 144 cache
// entries. Its shape is the same for every seed; the seed draws the
// routed pairs, the op order, the codecs and the fault lists.
func (g *gen) serveHot() *workload {
	const hot = 36
	checks := make([]pair, hot)
	routes := make([]pair, hot)
	for i := 0; i < hot; i++ {
		st, name := 3+i%6, catalog[i/6]
		req := &checkReq{netSpec: netSpec{Network: name, Stages: st}, Iso: (i+i/6)%2 == 0}
		for _, bin := range []bool{false, true} {
			o := g.finish(&op{kind: kindCheck, endpoint: "check", bin: bin, check: req, wantEquivalent: true}, req)
			if bin {
				checks[i].bin = o
			} else {
				checks[i].json = o
			}
		}
		n := 1 << st
		rr := &routeReq{netSpec: netSpec{Network: catalog[(i/6+1)%6], Stages: st}, Src: g.rng.IntN(n), Dst: g.rng.IntN(n)}
		for _, bin := range []bool{false, true} {
			o := g.finish(&op{kind: kindRoute, endpoint: "route", bin: bin, route: rr}, rr)
			if bin {
				routes[i].bin = o
			} else {
				routes[i].json = o
			}
		}
	}
	// One client: with two, the sub-microsecond hits flip from run to
	// run between about 0.5 and 1.3 us as the clients contend across
	// cores on the cache's lock and the shared counters, and p50's
	// run-to-run spread outgrew its bound. One client keeps the hits
	// within a few percent.
	w := &workload{clients: 1, opsPerSec: 80000}
	// Warmup: every hot body once per codec fills the cache.
	for i := 0; i < hot; i++ {
		w.warm = append(w.warm, checks[i].json, checks[i].bin, routes[i].json, routes[i].bin)
	}
	// Hot ops are dealt from shuffled decks of every (body, codec) pair,
	// so every seed sends the same mix of response sizes and codecs; a
	// seed only reorders it. The latency of a hit depends on its body,
	// and drawing bodies independently moved p50 from seed to seed.
	checkDeck := g.deck(checks, hot)
	routeDeck := g.deck(routes, hot)
	var items []*checkReq
	batchBin := g.deckOf(2)
	counts := map[string]int{kindCheck: 8, kindRoute: 6, kindBatch: 4, kindSimFault: 2}
	kinds := []string{kindCheck, kindRoute, kindBatch, kindSimFault}
	simfaults := 0
	for r := 0; r < 200; r++ {
		for _, k := range g.round(counts, kinds) {
			switch k {
			case kindCheck:
				w.ops = append(w.ops, checkDeck())
			case kindRoute:
				w.ops = append(w.ops, routeDeck())
			case kindBatch:
				br := batchReq{}
				batch := make([]*checkReq, 4)
				for j := range batch {
					if len(items) == 0 {
						for _, i := range g.rng.Perm(hot) {
							items = append(items, checks[i].json.check)
						}
					}
					batch[j], items = items[0], items[1:]
					data, _ := json.Marshal(batch[j])
					br.Requests = append(br.Requests, batchItem{Op: "check", Request: data})
				}
				w.ops = append(w.ops, g.finish(&op{kind: kindBatch, endpoint: "batch", bin: batchBin() == 1, batch: batch, wantEquivalent: true}, br))
			case kindSimFault:
				w.ops = append(w.ops, g.simFault(5+simfaults%2, simfaults%4 >= 2))
				simfaults++
			}
		}
	}
	return w
}

// deckOf deals 0..n-1 forever, reshuffling after every n.
func (g *gen) deckOf(n int) func() int {
	var cards []int
	return func() int {
		if len(cards) == 0 {
			cards = g.rng.Perm(n)
		}
		c := cards[0]
		cards = cards[1:]
		return c
	}
}

// deck deals the hot ops of every (body, codec) pair in shuffled order.
func (g *gen) deck(pairs []pair, hot int) func() *op {
	next := g.deckOf(2 * hot)
	return func() *op {
		c := next()
		if c >= hot {
			return pairs[c-hot].bin
		}
		return pairs[c].json
	}
}

// simFault is a 64-wave simulate on a catalog network of 5 or 6 stages
// with 128 pinned faults: the request whose cost is mostly decoding
// its fault list.
func (g *gen) simFault(st int, bin bool) *op {
	n := 1 << st
	plan := &min.FaultPlan{Faults: make([]min.Fault, 128)}
	for j := range plan.Faults {
		stage := g.rng.IntN(st)
		switch j % 3 {
		case 0:
			plan.Faults[j] = min.Fault{Kind: min.SwitchDead, Stage: stage, Cell: g.rng.IntN(n / 2)}
		case 1:
			plan.Faults[j] = min.Fault{Kind: min.SwitchStuck1, Stage: stage, Cell: g.rng.IntN(n / 2)}
		default:
			plan.Faults[j] = min.Fault{Kind: min.LinkDown, Stage: stage, Link: g.rng.IntN(n)}
		}
	}
	req := &simReq{
		netSpec: netSpec{Network: catalog[g.rng.IntN(len(catalog))], Stages: st},
		Waves:   64, Seed: g.rng.Uint64N(1<<40) + 1, Faults: plan,
	}
	return g.finish(&op{kind: kindSimFault, endpoint: "simulate", bin: bin, sim: req, bitOK: true}, req)
}

// --- serve-cold -------------------------------------------------------

// coldPool is how many distinct wirings serve-cold cycles through. A
// repeat comes 3000 inserts after its last use, far past what the
// default 256-entry LRU cache retains, so every op still misses and
// evicts; the pool only bounds the run's memory (each wiring's body is
// 1-46 KB, and two clients send about 950 per second on a 2-core host).
const coldPool = 3000

// serveCold: checks (half with iso) and routes on wirings drawn fresh
// for every op of the pool. Most wirings are random cell relabelings of
// catalog networks (equivalent by construction); the rest are relabeled
// tail-cycle counterexamples or double-arc non-Banyan wirings (not
// equivalent).
func (g *gen) serveCold() *workload {
	w := &workload{clients: 2, opsPerSec: 500}
	// Warmup: 300 small distinct checks push the cache past its 256
	// entries, so the timed run starts with every insert evicting.
	for i := 0; i < 300; i++ {
		w.warm = append(w.warm, g.coldCheck(3+g.rng.IntN(2), i%2 == 0, "relabel", false))
	}
	counts := map[string]int{"check-eq": 4, "check-iso": 4, "check-tail": 1, "check-nonbanyan": 1, kindRoute: 4, "route-fault": 2}
	kinds := []string{"check-eq", "check-iso", "check-tail", "check-nonbanyan", kindRoute, "route-fault"}
	// A round is every kind at every stage 6..10, in seeded order.
	type slot struct {
		kind string
		st   int
	}
	var round []slot
	for _, k := range kinds {
		for i := 0; i < counts[k]; i++ {
			for st := 6; st <= 10; st++ {
				round = append(round, slot{k, st})
			}
		}
	}
	for len(w.ops) < coldPool {
		g.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		bins := g.codecs(len(round))
		for i, sl := range round {
			k, st := sl.kind, sl.st
			switch k {
			case "check-eq":
				w.ops = append(w.ops, g.coldCheck(st, false, "relabel", bins[i]))
			case "check-iso":
				w.ops = append(w.ops, g.coldCheck(st, true, "relabel", bins[i]))
			case "check-tail":
				w.ops = append(w.ops, g.coldCheck(st, g.rng.IntN(2) == 0, "tail", bins[i]))
			case "check-nonbanyan":
				w.ops = append(w.ops, g.coldCheck(st, g.rng.IntN(2) == 0, "nonbanyan", bins[i]))
			case kindRoute:
				w.ops = append(w.ops, g.coldRoute(st, false, bins[i]))
			case "route-fault":
				w.ops = append(w.ops, g.coldRoute(st, true, bins[i]))
			}
		}
	}
	return w
}

// coldCheck and coldRoute draw a sub-seed per wiring; the wiring is a
// pure function of it, so op.perms can rebuild it for checks and
// replays after the request struct has dropped it.
func (g *gen) coldCheck(st int, iso bool, shape string, bin bool) *op {
	name, sub := catalog[g.rng.IntN(len(catalog))], g.rng.Uint64()
	perms := func() [][]int { return coldPerms(shape, name, st, sub) }
	req := &checkReq{netSpec: netSpec{Network: "cold", Stages: st, LinkPerms: perms()}, Iso: iso}
	o := g.finish(&op{kind: kindCheck, endpoint: "check", bin: bin, check: req, wantEquivalent: shape == "relabel", perms: perms}, req)
	req.LinkPerms = nil
	return o
}

// coldRoute routes a random (src, dst) pair on a relabeled catalog
// wiring. With faults, a pinned plan of 8 faults is drawn off the
// intact unique path, so the degraded fabric still routes the pair.
func (g *gen) coldRoute(st int, faults bool, bin bool) *op {
	name, sub := catalog[g.rng.IntN(len(catalog))], g.rng.Uint64()
	perms := func() [][]int { return coldPerms("relabel", name, st, sub) }
	n := 1 << st
	req := &routeReq{netSpec: netSpec{Network: "cold", Stages: st, LinkPerms: perms()}, Src: g.rng.IntN(n), Dst: g.rng.IntN(n)}
	if faults {
		nw, err := min.FromLinkPerms("cold", st, req.LinkPerms)
		if err != nil {
			g.fail(err)
			return &op{}
		}
		path, err := min.Route(nw, req.Src, req.Dst)
		if err != nil {
			g.fail(err)
			return &op{}
		}
		onPath := map[[2]int]bool{}
		usedLink := map[[2]int]bool{}
		for _, h := range path.Hops {
			onPath[[2]int{h.Stage, h.Cell}] = true
			usedLink[[2]int{h.Stage, 2*h.Cell + h.OutPort}] = true
		}
		plan := &min.FaultPlan{}
		kinds := []min.FaultKind{min.SwitchDead, min.SwitchStuck0, min.SwitchStuck1, min.LinkDown}
		for len(plan.Faults) < 8 {
			f := min.Fault{Kind: kinds[g.rng.IntN(len(kinds))], Stage: g.rng.IntN(st)}
			if f.Kind == min.LinkDown {
				f.Link = g.rng.IntN(n)
				if usedLink[[2]int{f.Stage, f.Link}] {
					continue
				}
			} else {
				f.Cell = g.rng.IntN(n / 2)
				if onPath[[2]int{f.Stage, f.Cell}] {
					continue
				}
			}
			plan.Faults = append(plan.Faults, f)
		}
		req.Faults = plan
	}
	o := g.finish(&op{kind: kindRoute, endpoint: "route", bin: bin, route: req, perms: perms}, req)
	req.LinkPerms = nil
	return o
}

// coldPerms builds one serve-cold wiring from its sub-seed: a relabeled
// catalog network, a relabeled tail-cycle counterexample, or a
// double-arc non-Banyan wiring.
func coldPerms(shape, name string, st int, sub uint64) [][]int {
	rng := rand.New(rand.NewPCG(sub, 0x5eed))
	var nw *min.Network
	var err error
	switch shape {
	case "nonbanyan":
		return doubleArc(rng, st)
	case "tail":
		nw, err = min.TailCycle(st)
	default:
		nw, err = min.Build(name, st)
	}
	if err != nil {
		panic(err) // st is in [6,10] by construction
	}
	return relabel(rng, nw.LinkPerms())
}

// relabel applies a random stage-respecting relabeling: every stage's
// cells are permuted and every cell's two in-ports and two out-ports
// are independently swapped or not. The relabeled wiring is isomorphic
// to the original, so equivalence is preserved.
func relabel(rng *rand.Rand, perms [][]int) [][]int {
	if len(perms) == 0 {
		return nil
	}
	stages := len(perms) + 1
	n := len(perms[0])
	h := n / 2
	cell := make([][]int, stages) // new label of each stage's cells
	outSwap := make([][]bool, stages)
	inSwap := make([][]bool, stages)
	for s := range cell {
		cell[s] = rng.Perm(h)
		outSwap[s] = make([]bool, h)
		inSwap[s] = make([]bool, h)
		for c := 0; c < h; c++ {
			outSwap[s][c] = rng.IntN(2) == 0
			inSwap[s][c] = rng.IntN(2) == 0
		}
	}
	link := func(label []int, swap []bool, x int) int {
		c, p := x>>1, x&1
		if swap[c] {
			p ^= 1
		}
		return label[c]<<1 | p
	}
	out := make([][]int, len(perms))
	for s, p := range perms {
		row := make([]int, n)
		for x, y := range p {
			row[link(cell[s], outSwap[s], x)] = link(cell[s+1], inSwap[s+1], y)
		}
		out[s] = row
	}
	return out
}

// doubleArc draws random link permutations and then rewires one cell so
// both of its outlinks enter the same next-stage cell: two parallel
// arcs break unique-path reachability, so the wiring is not Banyan and
// not equivalent, whatever the rest of it looks like.
func doubleArc(rng *rand.Rand, st int) [][]int {
	n := 1 << st
	perms := make([][]int, st-1)
	for s := range perms {
		perms[s] = rng.Perm(n)
	}
	s := rng.IntN(st - 1)
	p := perms[s]
	c := rng.IntN(n / 2)
	target := p[2*c] ^ 1 // the sibling inlink of 2c's destination
	for x, y := range p {
		if y == target {
			p[x], p[2*c+1] = p[2*c+1], p[x]
			break
		}
	}
	return perms
}

// --- simulate ---------------------------------------------------------

// simulate: /v1/simulate over stages 6..10 with 64, 1024 or 8192
// waves under uniform, hotspot and transpose traffic. Large wave counts
// run at the small stage counts so one op stays well under a second. A
// share uses Bernoulli fault rates, a share runs on non-Banyan fabrics
// (scalar kernel only), and 3 in 30 are buffered-model requests.
//
// A round holds one op per listed stage of every class: 30 ops. Four of
// them take 40-90 ms on a 2-core host: three 64-wave ops on 10-stage
// bit-sliceable fabrics, dominated by the fabric compile, and one
// faulty 8192-wave op at 8 stages, dominated by the kernel. At 13% of
// the ops they put p90 inside their own population, not on the edge
// between two.
func (g *gen) simulate() *workload {
	w := &workload{clients: 2, opsPerSec: 200}
	// A class with one scenario keeps its cost tight; the slow classes
	// run uniform traffic so the tail percentiles do not straddle
	// scenarios.
	type class struct {
		stages    []int
		waves     int
		shape     string // "catalog", "faulty", "nonbanyan", "buffered"
		scenarios []string
	}
	all, uniform := []string{"uniform", "hotspot", "transpose"}, []string{"uniform"}
	classes := []class{
		{[]int{6, 7, 8, 9, 10, 10}, 64, "catalog", all},
		{[]int{6, 7, 8}, 1024, "catalog", all},
		{[]int{6, 7, 8}, 8192, "catalog", uniform},
		{[]int{6, 7, 8, 9, 10}, 64, "faulty", all},
		{[]int{6, 7}, 1024, "faulty", all},
		{[]int{8}, 8192, "faulty", uniform},
		{[]int{6, 7, 8, 9, 10}, 64, "nonbanyan", all},
		{[]int{6, 7}, 1024, "nonbanyan", all},
		{[]int{6, 7, 8}, 0, "buffered", uniform},
	}
	type slot struct{ class, st int }
	var round []slot
	for ci, c := range classes {
		for _, st := range c.stages {
			round = append(round, slot{ci, st})
		}
	}
	// Each class cycles through its scenarios round by round; the seed
	// picks the networks, the wirings, the traffic seeds and the order.
	made := make([]int, len(classes))
	mk := func(sl slot, bin bool) *op {
		c, st := classes[sl.class], sl.st
		req := &simReq{Scenario: c.scenarios[(made[sl.class]/len(c.stages))%len(c.scenarios)], Seed: g.rng.Uint64N(1<<40) + 1}
		made[sl.class]++
		if req.Scenario == "hotspot" {
			req.HotDst, req.HotProb = g.rng.IntN(1<<st), 0.2
		}
		o := &op{kind: kindSimulate, endpoint: "simulate", bin: bin, sim: req, bitOK: true}
		switch c.shape {
		case "catalog", "faulty", "buffered":
			req.netSpec = netSpec{Network: catalog[g.rng.IntN(len(catalog))], Stages: st}
		case "nonbanyan":
			req.netSpec = netSpec{Network: "nonbanyan", Stages: st, LinkPerms: doubleArc(g.rng, st)}
			o.bitOK = false
		}
		if c.shape == "faulty" {
			req.Faults = &min.FaultPlan{SwitchDeadRate: 0.01, LinkDownRate: 0.01}
		}
		if c.shape == "buffered" {
			o.kind = kindBuffered
			o.bitOK = false
			req.Model = "buffered"
			req.Cycles, req.Warmup, req.Queue = 400, 100, 4
			req.Load = 0.5
			return g.finish(o, req)
		}
		req.Waves = c.waves
		return g.finish(o, req)
	}
	// Warmup: one op of each class at its smallest stage count.
	for ci, c := range classes {
		w.warm = append(w.warm, mk(slot{ci, c.stages[0]}, false))
	}
	for r := 0; r < 60; r++ {
		g.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		bins := g.codecs(len(round))
		for i, sl := range round {
			w.ops = append(w.ops, mk(sl, bins[i]))
		}
	}
	return w
}

// --- sweep ------------------------------------------------------------

// sweep: one client submits 2 networks x 2 loads x 2 fault rates at 8
// stages, 8192 trials per cell in 1024-trial shards (64 shards, each
// fsync'd to the checkpoint log), polls to completion and fetches
// /result. Every spec is submitted twice in a row; the second /result
// must match the first byte for byte. The sweep is sized so compute is
// about two thirds of a job: fsync latency swings widely on some disks,
// and at half the trials it dominated the run-to-run spread.
func (g *gen) sweep() *workload {
	w := &workload{clients: 1, opsPerSec: 6}
	mk := func(trials int) *sweepSpec {
		a := g.rng.IntN(len(catalog))
		b := (a + 1 + g.rng.IntN(len(catalog)-1)) % len(catalog)
		return &sweepSpec{
			Networks:      []string{catalog[a], catalog[b]},
			Stages:        8,
			Loads:         []float64{0.5 + 0.05*float64(g.rng.IntN(5)), 1},
			FaultRates:    []float64{0, 0.001 * float64(1+g.rng.IntN(10))},
			Scenario:      []string{"uniform", "hotspot", "transpose"}[g.rng.IntN(3)],
			TrialsPerCell: trials, ShardTrials: trials / 8,
			Seed: g.rng.Uint64N(1<<40) + 1,
		}
	}
	// Warmup: a one-shard job of 8192 trials starts the job plane's
	// workers and store. One shard means one checkpoint fsync: with many,
	// set-up time was mostly fsync latency, which swings from run to run.
	warm := &sweepSpec{Networks: []string{catalog[g.rng.IntN(len(catalog))]}, Stages: 8, TrialsPerCell: 8192, ShardTrials: 8192, Seed: 1}
	w.warm = append(w.warm, g.finish(&op{kind: kindSweep, endpoint: "jobs", sweep: warm}, warm))
	for i := 0; i < 200; i++ {
		spec := mk(8192)
		bin := i%2 == 0
		for k := 0; k < 2; k++ {
			o := g.finish(&op{kind: kindSweep, endpoint: "jobs", bin: bin, sweep: spec}, spec)
			if k == 1 {
				o.original = w.ops[len(w.ops)-1]
			}
			w.ops = append(w.ops, o)
		}
	}
	return w
}
