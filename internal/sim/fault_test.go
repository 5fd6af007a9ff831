package sim

import (
	"math/rand/v2"
	"reflect"
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
	dead, stuck, links := a.CountFaults()
	if dead == 0 || stuck == 0 || links == 0 {
		t.Fatalf("expected a mix of sampled faults, got dead=%d stuck=%d links=%d", dead, stuck, links)
	}
	// Resampling an empty plan restores the intact fabric.
	if err := a.Sample(FaultPlan{}, nil); err != nil {
		t.Fatal(err)
	}
	if d, s, l := a.CountFaults(); d+s+l != 0 || a.Active() {
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
		res := r.Run(rand.New(rand.NewPCG(11, 12)))
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
	res := r.Run(rand.New(rand.NewPCG(13, 14)))
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
	res = r2.Run(rand.New(rand.NewPCG(13, 14)))
	if res.Delivered == 0 || res.Misrouted != 0 {
		t.Fatalf("stuck port's own terminal broken: %+v", res)
	}
}
