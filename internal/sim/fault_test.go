package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"minequiv/internal/topology"
)

func omegaFabric(t *testing.T, n int) *Fabric {
	t.Helper()
	f, err := NewFabric(topology.MustBuild(topology.NameOmega, n).LinkPerms)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A dead stage-0 switch kills exactly the packets entering it; they are
// counted as fault drops at stage 0.
func TestFaultDeadSwitchKillsItsInputs(t *testing.T) {
	f := omegaFabric(t, 4)
	fs := NewFaultState(f.Spans)
	if err := fs.Sample(FaultPlan{Faults: []Fault{{Kind: SwitchDead, Stage: 0, Cell: 0}}}, nil); err != nil {
		t.Fatal(err)
	}
	r := f.NewWaveRunner()
	if err := r.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	// Terminals 0 and 1 enter stage-0 cell 0: both die there as fault
	// drops, regardless of destination.
	dsts := make([]int, f.N)
	for i := range dsts {
		dsts[i] = -1
	}
	dsts[0], dsts[1] = 3, 9
	res, err := r.RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 2 || res.FaultDropped != 2 || res.Delivered != 0 {
		t.Fatalf("dropped=%d faultDropped=%d delivered=%d, want 2/2/0", res.Dropped, res.FaultDropped, res.Delivered)
	}
	if res.DropStage[0] != 2 {
		t.Fatalf("DropStage[0]=%d, want 2", res.DropStage[0])
	}
	// A packet entering any other switch is untouched.
	dsts[0], dsts[1] = -1, -1
	dsts[2] = 6
	res, err = r.RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.Dropped != 0 {
		t.Fatalf("healthy switch: delivered=%d dropped=%d, want 1/0", res.Delivered, res.Dropped)
	}
}

// A stuck switch forces the crossbar: packets that needed the other
// port are knocked off their unique path and die downstream as
// unreachable (not as direct fault kills), packets that wanted the
// forced port sail through.
func TestFaultStuckSwitchMisroutes(t *testing.T) {
	f := omegaFabric(t, 4)
	fs := NewFaultState(f.Spans)
	if err := fs.Sample(FaultPlan{Faults: []Fault{{Kind: SwitchStuck0, Stage: 0, Cell: 0}}}, nil); err != nil {
		t.Fatal(err)
	}
	r := f.NewWaveRunner()
	if err := r.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))

	// Find, for src 0, a destination the intact fabric routes via port 1
	// at stage 0 — the stuck switch must lose that packet downstream.
	var blockedDst = -1
	for dst := 0; dst < f.N; dst++ {
		if f.steer(nil, 0, 0, dst) == 1 {
			blockedDst = dst
			break
		}
	}
	if blockedDst < 0 {
		t.Fatal("no port-1 destination from cell 0?")
	}
	dsts := make([]int, f.N)
	for i := range dsts {
		dsts[i] = -1
	}
	dsts[0] = blockedDst
	res, err := r.RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Dropped != 1 {
		t.Fatalf("stuck switch: delivered=%d dropped=%d, want 0/1", res.Delivered, res.Dropped)
	}
	if res.FaultDropped != 0 {
		t.Fatalf("misroute counted as direct fault kill: FaultDropped=%d", res.FaultDropped)
	}
	if res.DropStage[0] != 0 {
		t.Fatal("misrouted packet should die downstream, not at the stuck stage")
	}

	// A destination the stuck port serves anyway is unaffected.
	for dst := 0; dst < f.N; dst++ {
		if f.steer(nil, 0, 0, dst) == 0 {
			dsts[0] = dst
			break
		}
	}
	res, err = r.RunWave(dsts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 {
		t.Fatalf("port-0 destination through stuck0 switch: delivered=%d, want 1", res.Delivered)
	}
}

// Severing a last-stage outlink cuts delivery to exactly that terminal.
func TestFaultLinkDownCutsTerminal(t *testing.T) {
	f := omegaFabric(t, 3)
	fs := NewFaultState(f.Spans)
	target := 5
	if err := fs.Sample(FaultPlan{Faults: []Fault{{Kind: LinkDown, Stage: f.Spans - 1, Link: target}}}, nil); err != nil {
		t.Fatal(err)
	}
	r := f.NewWaveRunner()
	if err := r.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	// One packet per wave from src 0 to every destination: only the
	// severed terminal is lost, and it is lost at the last stage.
	dsts := make([]int, f.N)
	for dst := 0; dst < f.N; dst++ {
		for i := range dsts {
			dsts[i] = -1
		}
		dsts[0] = dst
		res, err := r.RunWave(dsts, rng)
		if err != nil {
			t.Fatal(err)
		}
		if dst == target {
			if res.Delivered != 0 || res.FaultDropped != 1 || res.DropStage[f.Spans-1] != 1 {
				t.Fatalf("dst %d: delivered=%d faultDropped=%d dropStage=%v, want the last-stage fault kill",
					dst, res.Delivered, res.FaultDropped, res.DropStage)
			}
		} else if res.Delivered != 1 {
			t.Fatalf("dst %d: delivered=%d, want 1", dst, res.Delivered)
		}
	}
}

// An empty plan samples to an inactive state and a nil-faults run is
// byte-identical to one with an inactive state attached.
func TestFaultInactiveStateIsIntact(t *testing.T) {
	f := omegaFabric(t, 4)
	fs := NewFaultState(f.Spans)
	if err := fs.Sample(FaultPlan{}, nil); err != nil {
		t.Fatal(err)
	}
	if fs.Active() {
		t.Fatal("empty plan produced an active state")
	}
	run := func(attach bool) WaveResult {
		r := f.NewWaveRunner()
		if attach {
			if err := r.SetFaults(fs); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.RunTraffic(Uniform(), rand.New(rand.NewPCG(7, 8)))
		if err != nil {
			t.Fatal(err)
		}
		res.DropStage = nil
		return res
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("inactive fault state changed the simulation")
	}
}

// countFaults reports the fault census of fs read off its sparse index:
// dead and stuck switches and severed links. Checked against the dense
// state, it pins the index that Reset and the bit kernel's fold walk.
func countFaults(fs *FaultState) (dead, stuck, links int) {
	for _, i := range fs.switches {
		if fs.mode[i] == switchDead {
			dead++
		} else {
			stuck++
		}
	}
	return dead, stuck, len(fs.links)
}

// Sampling is a pure function of (plan, rng stream): identical streams
// give identical states, and the pinned faults survive random draws.
func TestFaultSampleDeterministic(t *testing.T) {
	f := omegaFabric(t, 5)
	plan := FaultPlan{
		Faults:          []Fault{{Kind: SwitchDead, Stage: 1, Cell: 3}},
		SwitchDeadRate:  0.1,
		SwitchStuckRate: 0.2,
		LinkDownRate:    0.05,
	}
	a, b := NewFaultState(f.Spans), NewFaultState(f.Spans)
	if err := a.Sample(plan, rand.New(rand.NewPCG(9, 10))); err != nil {
		t.Fatal(err)
	}
	if err := b.Sample(plan, rand.New(rand.NewPCG(9, 10))); err != nil {
		t.Fatal(err)
	}
	for i := range a.mode {
		if a.mode[i] != b.mode[i] {
			t.Fatalf("mode[%d] differs: %d vs %d", i, a.mode[i], b.mode[i])
		}
	}
	for i := range a.linkDown {
		if a.linkDown[i] != b.linkDown[i] {
			t.Fatalf("linkDown[%d] differs", i)
		}
	}
	if a.mode[1*f.H+3] != switchDead {
		t.Fatal("pinned fault lost during random sampling")
	}
	dead, stuck, links := countFaults(a)
	if dead == 0 || stuck == 0 || links == 0 {
		t.Fatalf("expected a mix of sampled faults, got dead=%d stuck=%d links=%d", dead, stuck, links)
	}
	// Resampling an empty plan restores the intact fabric.
	if err := a.Sample(FaultPlan{}, nil); err != nil {
		t.Fatal(err)
	}
	if d, s, l := countFaults(a); d+s+l != 0 || a.Active() {
		t.Fatal("Reset via empty plan left faults behind")
	}
}

// Plan validation rejects out-of-range elements and rates.
func TestFaultPlanValidate(t *testing.T) {
	f := omegaFabric(t, 3)
	bad := []FaultPlan{
		{Faults: []Fault{{Kind: SwitchDead, Stage: f.Spans, Cell: 0}}},
		{Faults: []Fault{{Kind: SwitchDead, Stage: 0, Cell: f.H}}},
		{Faults: []Fault{{Kind: LinkDown, Stage: 0, Link: f.N}}},
		{Faults: []Fault{{Kind: 0, Stage: 0}}},
		{SwitchDeadRate: -0.1},
		{LinkDownRate: 1.5},
		{SwitchStuckRate: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(f.Spans); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	if err := (FaultPlan{SwitchDeadRate: 0.5}).Validate(f.Spans); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// A fault kind has one text form: every name maps to its value and
// back, "" is the zero value, an unknown name fails UnmarshalText, and
// a value outside the four kinds fails MarshalText and Validate.
func TestFaultKindText(t *testing.T) {
	names := map[FaultKind]string{
		0: "", SwitchDead: "switch-dead", SwitchStuck0: "switch-stuck0",
		SwitchStuck1: "switch-stuck1", LinkDown: "link-down",
	}
	for k, name := range names {
		text, err := k.MarshalText()
		if err != nil || string(text) != name {
			t.Errorf("MarshalText(%d) = %q, %v; want %q", uint8(k), text, err, name)
		}
		var got FaultKind = 99
		if err := got.UnmarshalText([]byte(name)); err != nil || got != k {
			t.Errorf("UnmarshalText(%q) = %d, %v; want %d", name, uint8(got), err, uint8(k))
		}
	}
	for _, name := range []string{"bogus", "Switch-Dead", "switch-dead ", "1"} {
		var k FaultKind
		err := k.UnmarshalText([]byte(name))
		if want := fmt.Sprintf("sim: unknown fault kind %q", name); err == nil || err.Error() != want {
			t.Errorf("UnmarshalText(%q): err %v, want %q", name, err, want)
		}
	}
	for _, k := range []FaultKind{0, LinkDown + 1, 255} {
		plan := FaultPlan{Faults: []Fault{{Kind: k, Stage: 0}}}
		want := fmt.Sprintf("sim: fault 0: unknown kind %d", uint8(k))
		if err := plan.Validate(3); err == nil || err.Error() != want {
			t.Errorf("Validate kind %d: err %v, want %q", uint8(k), err, want)
		}
		if k != 0 {
			if _, err := k.MarshalText(); err == nil {
				t.Errorf("MarshalText(%d) succeeded", uint8(k))
			}
		}
	}
}

// The buffered model honors the same fault state: a dead switch drains
// its queues as fault drops while the rest of the fabric keeps
// delivering, and an inactive state leaves results byte-identical.
func TestFaultBufferedDeadSwitch(t *testing.T) {
	f := omegaFabric(t, 4)
	cfg := BufferedConfig{Pattern: Bernoulli(0.7), Queue: 4, Cycles: 400, Warmup: 50}
	run := func(fs *FaultState) BufferedResult {
		r, err := f.NewBufferedRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fs != nil {
			if err := r.SetFaults(fs); err != nil {
				t.Fatal(err)
			}
		}
		res := runOnce(t, r, rand.New(rand.NewPCG(11, 12)))
		res.StageOccupancy = nil
		return res
	}

	intact := run(nil)
	if intact.FaultDropped != 0 || intact.Dropped != 0 {
		t.Fatalf("intact omega dropped packets: %+v", intact)
	}

	fs := NewFaultState(f.Spans)
	if err := fs.Sample(FaultPlan{Faults: []Fault{{Kind: SwitchDead, Stage: 1, Cell: 2}}}, nil); err != nil {
		t.Fatal(err)
	}
	faulty := run(fs)
	if faulty.FaultDropped == 0 {
		t.Fatal("dead switch produced no fault drops in the buffered model")
	}
	if faulty.Dropped < faulty.FaultDropped {
		t.Fatalf("Dropped=%d < FaultDropped=%d", faulty.Dropped, faulty.FaultDropped)
	}
	if faulty.Delivered == 0 {
		t.Fatal("one dead switch killed all traffic")
	}
	if faulty.Delivered >= intact.Delivered {
		t.Fatalf("fault did not degrade delivery: %d >= %d", faulty.Delivered, intact.Delivered)
	}

	inactive := NewFaultState(f.Spans)
	if got := run(inactive); !reflect.DeepEqual(got, intact) {
		t.Fatalf("inactive fault state changed the buffered run:\n%+v\n%+v", got, intact)
	}
}

// SetFaults refuses a state sized for another stage count.
func TestSetFaultsWrongFabric(t *testing.T) {
	a := omegaFabric(t, 3)
	fs := NewFaultState(4)
	if err := a.NewWaveRunner().SetFaults(fs); err == nil {
		t.Fatal("wave runner accepted a fault state sized for 4 stages")
	}
	br, err := a.NewBufferedRunner(BufferedConfig{Pattern: Bernoulli(0.5), Queue: 2, Cycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.SetFaults(fs); err == nil {
		t.Fatal("buffered runner accepted a fault state sized for 4 stages")
	}
}

// A stuck LAST-stage switch pushes packets out the wrong terminal;
// the buffered model must count those as Misrouted, not Delivered
// (and give them no latency sample), mirroring the wave model.
func TestFaultBufferedStuckLastStageMisroutes(t *testing.T) {
	f := omegaFabric(t, 3)
	fs := NewFaultState(f.Spans)
	// Terminals 4 and 5 exit stage-2 cell 2; stuck0 forces everything
	// out terminal 4.
	if err := fs.Sample(FaultPlan{Faults: []Fault{{Kind: SwitchStuck0, Stage: f.Spans - 1, Cell: 2}}}, nil); err != nil {
		t.Fatal(err)
	}
	r, err := f.NewBufferedRunner(BufferedConfig{
		Queue: 2, Cycles: 200, Warmup: 20,
		Pattern: Thinned(0.3, HotSpot(5, 1.0)), // every packet heads for terminal 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	res := runOnce(t, r, rand.New(rand.NewPCG(13, 14)))
	if res.Delivered != 0 {
		t.Fatalf("wrong-terminal exits counted as deliveries: %+v", res)
	}
	if res.Misrouted == 0 {
		t.Fatalf("stuck last-stage switch produced no misroutes: %+v", res)
	}
	if res.MeanLatency != 0 || res.P99 != 0 {
		t.Fatalf("misroutes contributed latency samples: %+v", res)
	}
	// Packets for terminal 4 (the stuck port's own terminal) still land.
	r2, err := f.NewBufferedRunner(BufferedConfig{
		Queue: 2, Cycles: 200, Warmup: 20,
		Pattern: Thinned(0.3, HotSpot(4, 1.0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	res = runOnce(t, r2, rand.New(rand.NewPCG(13, 14)))
	if res.Delivered == 0 || res.Misrouted != 0 {
		t.Fatalf("stuck port's own terminal broken: %+v", res)
	}
}

// denseFaults is a dense mirror of the sampler, kept as a test oracle:
// every resample clears and rewrites every element, and finds the
// random hits by its own element-by-element scan of each gap block
// (walkHits) on the same stream. What it checks is the sparse side —
// the index, clearing of stale elements, pin precedence and duplicate
// pins — not the draw stream, which the distribution tests in
// faultgap_test.go check.
type denseFaults struct {
	h, n     int
	mode     []uint8
	linkDown []bool
	active   bool
}

func newDenseFaults(stages int) *denseFaults {
	h, n := 1<<uint(stages-1), 1<<uint(stages)
	return &denseFaults{h: h, n: n, mode: make([]uint8, stages*h), linkDown: make([]bool, stages*n)}
}

// walkHits returns, in order, the elements of [0, n) a gap walk at rate
// r hits, calling kind after each hit: each draw covers the next
// min(64, remaining) elements, its hit is the first element whose
// cumulative entry exceeds the draw, found by a linear scan, and the
// next block starts just past the hit.
func walkHits(r float64, n int, rng *rand.Rand, kind func(i int)) {
	var g gapTable
	g.set(r)
	for i := 0; i < n; {
		b := min(64, n-i)
		u := rng.Uint64() >> 11
		j := 0
		for j < b && u >= g.cum[j] {
			j++
		}
		if j == b {
			i += b
			continue
		}
		kind(i + j)
		i += j + 1
	}
}

func (d *denseFaults) resample(p FaultPlan, rng *rand.Rand) {
	for i := range d.mode {
		d.mode[i] = switchOK
	}
	for i := range d.linkDown {
		d.linkDown[i] = false
	}
	d.active = false
	for _, flt := range p.Faults {
		// A dead switch stays dead; a later stuck pin replaces a stuck one.
		cell := flt.Stage*d.h + flt.Cell
		switch flt.Kind {
		case SwitchDead:
			d.mode[cell] = switchDead
		case SwitchStuck0, SwitchStuck1:
			if d.mode[cell] != switchDead {
				d.mode[cell] = switchStuck0 + uint8(flt.Kind-SwitchStuck0)
			}
		case LinkDown:
			d.linkDown[flt.Stage*d.n+flt.Link] = true
		}
		d.active = true
	}
	if dr, sr := p.SwitchDeadRate, p.SwitchStuckRate; dr > 0 || sr > 0 {
		q := dr + float64((1-dr)*sr)
		pDead := dr / q
		walkHits(q, len(d.mode), rng, func(i int) {
			m := switchDead
			if sr > 0 {
				k := rng.Uint64()
				if float64(k>>11)/(1<<53) >= pDead {
					m = switchStuck0 + uint8(k&1)
				}
			}
			if d.mode[i] == switchOK {
				d.mode[i] = m
				d.active = true
			}
		})
	}
	if p.LinkDownRate > 0 {
		walkHits(p.LinkDownRate, len(d.linkDown), rng, func(i int) {
			d.linkDown[i] = true
			d.active = true
		})
	}
}

func (d *denseFaults) count() (dead, stuck, links int) {
	for _, m := range d.mode {
		switch m {
		case switchDead:
			dead++
		case switchStuck0, switchStuck1:
			stuck++
		}
	}
	for _, down := range d.linkDown {
		if down {
			links++
		}
	}
	return dead, stuck, links
}

// matchDense checks the sparse state element for element against the
// dense oracle, and that its index lists only faulted elements, each
// once (CountFaults, which sums the index, then makes it complete).
func matchDense(t *testing.T, what string, fs *FaultState, d *denseFaults) {
	t.Helper()
	if !slices.Equal(fs.mode, d.mode) {
		t.Fatalf("%s: switch modes differ from the dense oracle", what)
	}
	if !slices.Equal(fs.linkDown, d.linkDown) {
		t.Fatalf("%s: severed links differ from the dense oracle", what)
	}
	if fs.Active() != d.active {
		t.Fatalf("%s: Active() = %t, dense %t", what, fs.Active(), d.active)
	}
	gd, gs, gl := countFaults(fs)
	wd, ws, wl := d.count()
	if gd != wd || gs != ws || gl != wl {
		t.Fatalf("%s: countFaults = %d/%d/%d, dense %d/%d/%d", what, gd, gs, gl, wd, ws, wl)
	}
	seen := map[int32]bool{}
	for _, i := range fs.switches {
		if seen[i] || fs.mode[i] == switchOK {
			t.Fatalf("%s: switch index lists %d twice or intact", what, i)
		}
		seen[i] = true
	}
	clear(seen)
	for _, i := range fs.links {
		if seen[i] || !fs.linkDown[i] {
			t.Fatalf("%s: link index lists %d twice or intact", what, i)
		}
		seen[i] = true
	}
}

// The edge rates of the Bernoulli test: the smallest positive draw
// probability, a small and a fair rate, the largest rate below 1, and 1.
var edgeRates = []float64{0x1p-53, 0.01, 0.5, 1 - 0x1p-53, 1}

// TestFaultStateMatchesDense resamples one sparse state back to back
// over random plans, seeds and stage counts — pinned lists with
// duplicates, and rate sequences that shrink the fault set so stale
// entries must be cleared — and compares it with the dense mirror's
// realization of the same stream after every resample.
func TestFaultStateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	kinds := []FaultKind{SwitchDead, SwitchStuck0, SwitchStuck1, LinkDown}
	rates := append([]float64{0, 0, 0.03, 0.2}, edgeRates...)
	for stages := 2; stages <= 7; stages++ {
		fs, d := NewFaultState(stages), newDenseFaults(stages)
		h, n := 1<<uint(stages-1), 1<<uint(stages)
		for trial := 0; trial < 60; trial++ {
			p := FaultPlan{
				SwitchDeadRate:  rates[rng.IntN(len(rates))],
				SwitchStuckRate: rates[rng.IntN(len(rates))],
				LinkDownRate:    rates[rng.IntN(len(rates))],
			}
			for k := rng.IntN(5); k > 0; k-- {
				flt := Fault{Kind: kinds[rng.IntN(len(kinds))], Stage: rng.IntN(stages), Cell: rng.IntN(h), Link: rng.IntN(n)}
				p.Faults = append(p.Faults, flt)
				if rng.IntN(3) == 0 { // the same element pinned again
					flt.Kind = kinds[rng.IntN(len(kinds))]
					p.Faults = append(p.Faults, flt)
				}
			}
			seed := rng.Uint64()
			if err := fs.Sample(p, rand.New(rand.NewPCG(seed, 1))); err != nil {
				t.Fatal(err)
			}
			d.resample(p, rand.New(rand.NewPCG(seed, 1)))
			matchDense(t, fmt.Sprintf("n=%d trial %d %+v", stages, trial, p), fs, d)
		}
	}
}

// TestFaultStateShrinks: resampling after a dense realization must
// clear every stale element — through a low rate, an edge rate, a
// pinned-only plan (with the same switch and link pinned twice) and the
// empty plan.
func TestFaultStateShrinks(t *testing.T) {
	const stages = 5
	fs, d := NewFaultState(stages), newDenseFaults(stages)
	dup := []Fault{
		{Kind: SwitchDead, Stage: 2, Cell: 5},
		{Kind: SwitchStuck1, Stage: 2, Cell: 5},
		{Kind: LinkDown, Stage: 4, Link: 7},
		{Kind: LinkDown, Stage: 4, Link: 7},
	}
	plans := []FaultPlan{
		{SwitchDeadRate: 0.5, SwitchStuckRate: 0.5, LinkDownRate: 0.5},
		{SwitchDeadRate: 0.01, LinkDownRate: 0.01},
		{SwitchDeadRate: 1, LinkDownRate: 1},
		{SwitchStuckRate: 0x1p-53, LinkDownRate: 0x1p-53},
		{SwitchStuckRate: 1 - 0x1p-53},
		{Faults: dup},
		{},
	}
	for round, p := range plans {
		if err := fs.Sample(p, rand.New(rand.NewPCG(uint64(round), 3))); err != nil {
			t.Fatal(err)
		}
		d.resample(p, rand.New(rand.NewPCG(uint64(round), 3)))
		matchDense(t, fmt.Sprintf("round %d %+v", round, p), fs, d)
	}
}

// TestBernoulliThreshold: the integer test u<<11>>11 < ceil(r·2^53)
// decides exactly as rng.Float64() < r on the same draw u, for the edge
// rates and random ones, on random draws and on the draws that straddle
// the threshold.
func TestBernoulliThreshold(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	rs := append([]float64{0.1, 1.0 / 3, 0.999}, edgeRates...)
	for i := 0; i < 200; i++ {
		rs = append(rs, rng.Float64())
	}
	for _, r := range rs {
		thr := bernoulliThreshold(r)
		us := []uint64{0, 1<<53 - 1, ^uint64(0)}
		for _, k := range []uint64{thr - 1, thr, thr + 1} {
			if k < 1<<53 {
				us = append(us, k, k|rng.Uint64()<<53)
			}
		}
		for i := 0; i < 500; i++ {
			us = append(us, rng.Uint64())
		}
		for _, u := range us {
			float := float64(u<<11>>11)/(1<<53) < r
			if integer := u<<11>>11 < thr; integer != float {
				t.Fatalf("r=%v u=%#x: integer test %t, float test %t", r, u, integer, float)
			}
		}
	}
}

// TestPinnedSwitchFaultPrecedence: of several pinned switch faults on
// one cell, switch-dead wins in either order and between two stuck
// pins the later one wins — in the fault state, the scalar steer and
// the bit-kernel fold alike.
func TestPinnedSwitchFaultPrecedence(t *testing.T) {
	f := omegaFabric(t, 4)
	const stage, cell = 1, 3
	at := func(k FaultKind) Fault { return Fault{Kind: k, Stage: stage, Cell: cell} }
	i := stage*f.H + cell
	for _, tc := range []struct {
		faults []Fault
		want   uint8
	}{
		{[]Fault{at(SwitchDead), at(SwitchStuck0)}, switchDead},
		{[]Fault{at(SwitchStuck0), at(SwitchDead)}, switchDead},
		{[]Fault{at(SwitchStuck1), at(SwitchDead), at(SwitchStuck0)}, switchDead},
		{[]Fault{at(SwitchStuck0), at(SwitchStuck1)}, switchStuck1},
		{[]Fault{at(SwitchStuck1), at(SwitchStuck0)}, switchStuck0},
	} {
		fs := NewFaultState(f.Spans)
		if err := fs.Sample(FaultPlan{Faults: tc.faults}, nil); err != nil {
			t.Fatal(err)
		}
		if fs.mode[i] != tc.want || len(fs.switches) != 1 {
			t.Fatalf("%v: mode %d (want %d), %d switches indexed (want 1)", tc.faults, fs.mode[i], tc.want, len(fs.switches))
		}
		for dst := 0; dst < f.N; dst++ {
			got, intact := f.steer(fs, stage, cell, dst), f.steer(nil, stage, cell, dst)
			want := intact
			switch {
			case tc.want == switchDead:
				want = portFaulted
			case intact != portUnreachable:
				want = tc.want - switchStuck0
			}
			if got != want {
				t.Fatalf("%v: steer to %d = %d, want %d", tc.faults, dst, got, want)
			}
		}
		r := bitRunnerFor(t, f)
		if err := r.SetLaneFaults(^uint64(0), fs); err != nil {
			t.Fatal(err)
		}
		lanes := func(on bool) uint64 {
			if on {
				return ^uint64(0)
			}
			return 0
		}
		if r.dead[i] != lanes(tc.want == switchDead) || r.stuck0[i] != lanes(tc.want == switchStuck0) || r.stuck1[i] != lanes(tc.want == switchStuck1) {
			t.Fatalf("%v: bit fold dead %#x stuck0 %#x stuck1 %#x, want mode %d", tc.faults, r.dead[i], r.stuck0[i], r.stuck1[i], tc.want)
		}
	}
}
