package sim

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

func bitRunnerFor(t testing.TB, f *Fabric) *BitWaveRunner {
	t.Helper()
	r, err := f.NewBitWaveRunner()
	if err != nil {
		t.Fatalf("NewBitWaveRunner: %v", err)
	}
	return r
}

// identityFabric builds a non-Banyan fabric (identity inter-stage links
// leave every stage-0 cell reaching only 2 of N terminals).
func identityFabric(t *testing.T, n int) *Fabric {
	t.Helper()
	N := 1 << uint(n)
	perms := make([]perm.Perm, n-1)
	for i := range perms {
		perms[i] = perm.Identity(N)
	}
	f, err := NewFabric(perms)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f
}

func TestBitSliceable(t *testing.T) {
	for _, name := range topology.Names() {
		f := fabricFor(t, name, 4)
		if !f.BitSliceable() {
			t.Errorf("%s: registry Banyan fabric not bit-sliceable", name)
		}
	}
	bad := identityFabric(t, 4)
	if bad.BitSliceable() {
		t.Fatalf("identity-linked fabric reported bit-sliceable")
	}
	if _, err := bad.NewBitWaveRunner(); err == nil {
		t.Fatalf("NewBitWaveRunner on non-sliceable fabric: no error")
	}
}

// foldLanes folds per-lane resamples of plan into the runner, lane j
// drawn from stream (fseed, j) — the same stream the scalar reference
// below uses, so lane j sees the identical realization. Every lane from
// `lanes` on is folded intact.
func foldLanes(t *testing.T, r *BitWaveRunner, plan FaultPlan, fseed uint64, lanes int) {
	t.Helper()
	fs := NewFaultState(r.f.Spans)
	for j := 0; j < lanes; j++ {
		fs.Resample(plan, rand.New(rand.NewPCG(fseed, uint64(j))))
		if err := r.SetLaneFaults(1<<uint(j), fs); err != nil {
			t.Fatalf("SetLaneFaults(lane %d): %v", j, err)
		}
	}
	if err := r.SetLaneFaults(^uint64(0)<<uint(lanes), nil); err != nil {
		t.Fatal(err)
	}
}

// portSwapped names a test-only wiring: Omega with the two outlinks of
// random cells swapped at every inner stage. It is still
// Baseline-equivalent, but unlike the registry's destination-tag
// networks its port schedules depend on the source, and it compiles
// with swap bits set, so a packer or fault fold that confuses ports
// with slots cannot match the scalar kernel on it.
const portSwapped = "omega-port-swapped"

// bitCaseFabric compiles a registry network, or the portSwapped wiring.
func bitCaseFabric(t *testing.T, name string, n int) *Fabric {
	t.Helper()
	if name != portSwapped {
		return fabricFor(t, name, n)
	}
	rng := rand.New(rand.NewPCG(uint64(n), 19))
	var perms []perm.Perm
	for _, p := range topology.MustBuild(topology.NameOmega, n).LinkPerms {
		q := p.Clone()
		for out := 0; out < len(q); out += 2 {
			if rng.IntN(2) == 1 {
				q[out], q[out+1] = q[out+1], q[out]
			}
		}
		perms = append(perms, q)
	}
	f, err := NewFabric(perms)
	if err != nil {
		t.Fatal(err)
	}
	if !f.BitSliceable() {
		t.Fatalf("%s n=%d is not bit-sliceable", name, n)
	}
	return f
}

// TestBitWaveMatchesScalar is the kernel-equivalence property at the
// sim layer: for every registry topology, several sizes, traffic
// patterns, fault plans and batch widths, lane j of the bit-sliced
// kernel must reproduce the scalar wave of the identical rng stream
// counter for counter, and the pooled DropStage must match the scalar
// sum. This is byte-identity by construction, so comparisons are exact.
func TestBitWaveMatchesScalar(t *testing.T) {
	plans := []struct {
		name string
		plan FaultPlan
		use  bool
	}{
		{"intact", FaultPlan{}, false},
		{"pinned", FaultPlan{Faults: []Fault{
			{Kind: SwitchDead, Stage: 0, Cell: 1},
			{Kind: SwitchStuck1, Stage: 1, Cell: 0},
			{Kind: LinkDown, Stage: 2, Link: 3},
		}}, true},
		{"random", FaultPlan{SwitchDeadRate: 0.05, SwitchStuckRate: 0.10, LinkDownRate: 0.05}, true},
	}
	traffics := []struct {
		name string
		tr   Traffic
	}{
		{"uniform", Uniform()},
		{"bernoulli-0.6", Bernoulli(0.6)},
		{"bit-reversal", BitReversal()},
	}
	for _, name := range append(topology.Names(), portSwapped) {
		for _, n := range []int{2, 3, 5} {
			f := bitCaseFabric(t, name, n)
			wr := f.NewWaveRunner()
			br := bitRunnerFor(t, f)
			for _, pl := range plans {
				if pl.plan.Validate(f.Spans) != nil {
					continue // the pinned plan names stage 2, past a 2-stage fabric
				}
				for _, tr := range traffics {
					for _, lanes := range []int{1, 5, 64} {
						const seed, fseed = 0xABCD, 0xF00D
						// Scalar reference, one lane at a time.
						var (
							scal      [64]WaveResult
							dropStage = make([]int, f.Spans)
						)
						fs := NewFaultState(f.Spans)
						for j := 0; j < lanes; j++ {
							if pl.use {
								fs.Resample(pl.plan, rand.New(rand.NewPCG(fseed, uint64(j))))
								if err := wr.SetFaults(fs); err != nil {
									t.Fatal(err)
								}
							} else if err := wr.SetFaults(nil); err != nil {
								t.Fatal(err)
							}
							res, err := wr.RunTraffic(tr.tr, rand.New(rand.NewPCG(seed, uint64(j))))
							if err != nil {
								t.Fatalf("%s/n=%d/%s/%s scalar lane %d: %v", name, n, pl.name, tr.name, j, err)
							}
							for s, d := range res.DropStage {
								dropStage[s] += d
							}
							res.DropStage = nil
							scal[j] = res
						}
						// Bit-sliced batch on the identical streams.
						foldLanes(t, br, pl.plan, fseed, lanes)
						rngs := make([]*rand.Rand, lanes)
						for j := range rngs {
							rngs[j] = rand.New(rand.NewPCG(seed, uint64(j)))
						}
						got, err := br.RunTraffic(tr.tr, rngs)
						if err != nil {
							t.Fatalf("%s/n=%d/%s/%s bit: %v", name, n, pl.name, tr.name, err)
						}
						if got.Lanes != lanes {
							t.Fatalf("Lanes = %d, want %d", got.Lanes, lanes)
						}
						for j := 0; j < lanes; j++ {
							want := scal[j]
							if got.Offered[j] != want.Offered || got.Delivered[j] != want.Delivered ||
								got.Dropped[j] != want.Dropped || got.Misrouted[j] != want.Misrouted ||
								got.FaultDropped[j] != want.FaultDropped {
								t.Errorf("%s/n=%d/%s/%s lane %d/%d:\n bit    {off %d del %d drop %d mis %d fdrop %d}\n scalar %+v",
									name, n, pl.name, tr.name, j, lanes,
									got.Offered[j], got.Delivered[j], got.Dropped[j], got.Misrouted[j], got.FaultDropped[j], want)
							}
						}
						for j := lanes; j < 64; j++ {
							if got.Offered[j]|got.Delivered[j]|got.Dropped[j]|got.Misrouted[j]|got.FaultDropped[j] != 0 {
								t.Errorf("%s/n=%d/%s/%s: unused lane %d has non-zero counters", name, n, pl.name, tr.name, j)
							}
						}
						for s := range dropStage {
							if got.DropStage[s] != dropStage[s] {
								t.Errorf("%s/n=%d/%s/%s DropStage[%d] = %d, want %d",
									name, n, pl.name, tr.name, s, got.DropStage[s], dropStage[s])
							}
						}
					}
				}
			}
		}
	}
}

// TestBitWaveMisroutedPath pins the last-stage derail classification: a
// switch stuck at the final stage exits packets on a wrong terminal,
// which both kernels must count as Misrouted, not Dropped.
func TestBitWaveMisroutedPath(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	plan := FaultPlan{Faults: []Fault{{Kind: SwitchStuck1, Stage: f.Spans - 1, Cell: 0}}}
	fs := NewFaultState(f.Spans)
	fs.Resample(plan, nil)

	const lanes = 50
	wr := f.NewWaveRunner()
	if err := wr.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	var want [lanes]WaveResult
	totalMis := 0
	for j := 0; j < lanes; j++ {
		res, err := wr.RunTraffic(Uniform(), rand.New(rand.NewPCG(9, uint64(j))))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = res
		totalMis += res.Misrouted
	}
	if totalMis == 0 {
		t.Fatalf("scalar runs produced no misroutes; stuck-last-stage scenario is not exercising the path")
	}

	br := bitRunnerFor(t, f)
	if err := br.SetLaneFaults(^uint64(0), fs); err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, lanes)
	for j := range rngs {
		rngs[j] = rand.New(rand.NewPCG(9, uint64(j)))
	}
	got, err := br.RunTraffic(Uniform(), rngs)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < lanes; j++ {
		if got.Misrouted[j] != want[j].Misrouted || got.Dropped[j] != want[j].Dropped || got.Delivered[j] != want[j].Delivered {
			t.Fatalf("bit lane %d = {mis %d drop %d del %d}, scalar = {mis %d drop %d del %d}", j,
				got.Misrouted[j], got.Dropped[j], got.Delivered[j], want[j].Misrouted, want[j].Dropped, want[j].Delivered)
		}
	}
}

// TestBitFaultStateFolding: SetLaneFaults writes exactly the masked
// lanes of the runner's masks from the byte state, and refolding
// replaces them.
func TestBitFaultStateFolding(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	plan := FaultPlan{SwitchDeadRate: 0.2, SwitchStuckRate: 0.3, LinkDownRate: 0.2}
	fs := NewFaultState(f.Spans)
	fs.Resample(plan, rand.New(rand.NewPCG(1, 1)))

	r := bitRunnerFor(t, f)
	const lanes = uint64(1)<<3 | 1<<40
	if err := r.SetLaneFaults(lanes, fs); err != nil {
		t.Fatal(err)
	}
	want := func(on bool) uint64 {
		if on {
			return lanes
		}
		return 0
	}
	for i, m := range fs.mode {
		if got := r.dead[i]; got != want(m == switchDead) {
			t.Fatalf("dead[%d] = %#x, mode = %d", i, got, m)
		}
		if got := r.stuck0[i]; got != want(m == switchStuck0) {
			t.Fatalf("stuck0[%d] = %#x, mode = %d", i, got, m)
		}
		if got := r.stuck1[i]; got != want(m == switchStuck1) {
			t.Fatalf("stuck1[%d] = %#x, mode = %d", i, got, m)
		}
	}
	for i, down := range fs.linkDown {
		if got := r.linkDown[i]; got != want(down) {
			t.Fatalf("linkDown[%d] = %#x, want down = %t", i, got, down)
		}
	}

	// Refolding the lanes replaces them; nil clears them.
	if err := r.SetLaneFaults(lanes, nil); err != nil {
		t.Fatal(err)
	}
	for i := range r.dead {
		if r.dead[i]|r.stuck0[i]|r.stuck1[i] != 0 {
			t.Fatalf("switch masks[%d] survive a nil refold", i)
		}
	}
	for i := range r.linkDown {
		if r.linkDown[i] != 0 {
			t.Fatalf("linkDown[%d] survives a nil refold", i)
		}
	}
}

// TestAddLaneFaults: clearing every lane once and adding each lane's
// realization (the engine's per-batch fold) leaves the same masks as
// replacing lane by lane with SetLaneFaults over stale contents.
func TestAddLaneFaults(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	plan := FaultPlan{SwitchDeadRate: 0.05, SwitchStuckRate: 0.05, LinkDownRate: 0.05}
	set, add := bitRunnerFor(t, f), bitRunnerFor(t, f)
	fs := NewFaultState(f.Spans)
	fs.Resample(FaultPlan{SwitchDeadRate: 0.5, SwitchStuckRate: 0.5, LinkDownRate: 0.5}, rand.New(rand.NewPCG(2, 0)))
	for _, r := range []*BitWaveRunner{set, add} {
		if err := r.SetLaneFaults(^uint64(0), fs); err != nil {
			t.Fatal(err)
		}
	}
	if err := add.SetLaneFaults(^uint64(0), nil); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 64; j++ {
		fs.Resample(plan, rand.New(rand.NewPCG(2, uint64(1+j))))
		if err := set.SetLaneFaults(1<<uint(j), fs); err != nil {
			t.Fatal(err)
		}
		if err := add.AddLaneFaults(1<<uint(j), fs); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(set.dead, add.dead) || !slices.Equal(set.stuck0, add.stuck0) ||
		!slices.Equal(set.stuck1, add.stuck1) || !slices.Equal(set.linkDown, add.linkDown) {
		t.Fatal("clear-then-add fold differs from per-lane SetLaneFaults")
	}
	if err := add.AddLaneFaults(1, NewFaultState(f.Spans+1)); err == nil {
		t.Fatal("AddLaneFaults accepted a state sized for another fabric")
	}
}

func TestBitWaveErrors(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 3)
	r := bitRunnerFor(t, f)
	if _, err := r.RunTraffic(Uniform(), nil); err == nil {
		t.Errorf("0 lanes: no error")
	}
	rngs := make([]*rand.Rand, 65)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewPCG(0, uint64(i)))
	}
	if _, err := r.RunTraffic(Uniform(), rngs); err == nil {
		t.Errorf("65 lanes: no error")
	}
	bad := func(dsts []int, _ *rand.Rand) {
		for i := range dsts {
			dsts[i] = len(dsts)
		}
	}
	if _, err := r.RunTraffic(bad, rngs[:1]); err == nil {
		t.Errorf("out-of-range destination: no error")
	}
	if err := r.SetLaneFaults(1, NewFaultState(f.Spans+1)); err == nil {
		t.Errorf("fault state sized for another stage count: no error")
	}
}

func TestBitSteerSweepDeterministic(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	a := bitRunnerFor(t, f)
	b := bitRunnerFor(t, f)
	if x, y := a.BitSteerSweep(7), b.BitSteerSweep(7); x != y {
		t.Fatalf("sweep not deterministic: %d vs %d", x, y)
	}
	fs := NewFaultState(f.Spans)
	fs.Resample(FaultPlan{SwitchDeadRate: 0.1}, rand.New(rand.NewPCG(2, 2)))
	if err := b.SetLaneFaults(^uint64(0), fs); err != nil {
		t.Fatal(err)
	}
	if x, y := a.BitSteerSweep(7), b.BitSteerSweep(7); x == y {
		t.Fatalf("faulted sweep identical to intact sweep: %d", x)
	}
}

// fuzzFabric is a relabeled Omega, so its slot-space wires differ from
// its port-space ones.
var fuzzFabric = sync.OnceValue(func() *Fabric {
	f, err := NewFabric(randnet.RelabelLinks(rand.New(rand.NewPCG(4, 1)), topology.MustBuild(topology.NameOmega, 4).LinkPerms))
	if err != nil {
		panic(err)
	}
	return f
})

// FuzzBitPlaneRoundTrip checks the two pack/unpack pivots the bit
// kernel rests on: a packed slot tag, unpacked bit by bit and walked
// through the slot-space wiring the kernel follows, must land on the
// destination it was packed from; and the salt-block transpose must be a true involution
// (unpack(pack(x)) == x) for arbitrary word contents.
func FuzzBitPlaneRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 15, 8, 0x80, 7}, uint64(42))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xFF, 0x7F, 0x40}, uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		fab := fuzzFabric()
		N, n := fab.N, fab.Spans
		for src := 0; src < N && src < len(data); src++ {
			if data[src]&0x80 != 0 {
				continue // idle terminal
			}
			dst := int(data[src]) % N
			tag := fab.rtag[dst]
			link := uint64(src)
			for s := 0; s < n; s++ {
				cell := link >> 1
				pt := uint64(tag) >> uint(s) & 1
				link = cell<<1 | pt
				if s < n-1 {
					link = fab.stages[s].slotNext[link]
				}
			}
			if int(link) != dst {
				t.Fatalf("tag %#x of (src %d, dst %d) walks to terminal %d", tag, src, dst, link)
			}
		}
		var blk, orig [64]uint64
		x := seed
		for i := range blk {
			x = mix64(x)
			blk[i] = x
		}
		orig = blk
		bitops.Transpose64(&blk)
		for i, w := range blk {
			for j := 0; j < 64; j++ {
				if w>>uint(j)&1 != orig[j]>>uint(i)&1 {
					t.Fatalf("transpose: word %d bit %d != orig word %d bit %d", i, j, j, i)
				}
			}
		}
		bitops.Transpose64(&blk)
		if blk != orig {
			t.Fatalf("transpose is not an involution for seed %#x", seed)
		}
	})
}

// FuzzFaultFold checks the one fold from the byte fault state into the
// bit kernel's lane masks. Fuzz bytes choose a registry network of 2..7
// stages (as built, or seeded-relabeled so cells carry swap bits),
// Bernoulli rates, a lane j and a pinned fault list; the plan is
// realized with Sample and folded into lane j of a runner whose 64
// lanes already hold another realization. Every element's lane-j bit,
// mapped through its switch's swap bit into slot space (stuck0 and
// stuck1 exchange, a severed outlink's bit 0 flips), must equal the
// byte state and no other lane may change; a batch whose lane j runs
// the scalar wave's stream must then reproduce that wave.
func FuzzFaultFold(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint64(1))
	f.Add([]byte{1, 2, 40, 60, 30, 5, 0, 1, 2, 1, 0, 3, 3, 2, 9}, uint64(7))
	f.Add([]byte{5, 4, 255, 0, 0, 63}, uint64(99))
	f.Add([]byte{3, 1, 0, 200, 0, 17, 2, 0, 0, 2, 1, 1}, uint64(3))
	f.Add([]byte{9, 4, 30, 90, 30, 40, 1, 1, 3, 2, 2, 5, 3, 0, 6}, uint64(5))
	f.Add([]byte{10, 2, 0, 255, 60, 0}, uint64(11))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var hdr [6]byte
		copy(hdr[:], data)
		names := topology.Names()
		perms := topology.MustBuild(names[int(hdr[1])%len(names)], 2+int(hdr[0])%6).LinkPerms
		if hdr[0]/6%2 == 1 {
			perms = randnet.RelabelLinks(rand.New(rand.NewPCG(seed, 0)), perms)
		}
		fab, err := NewFabric(perms)
		if err != nil {
			t.Fatal(err)
		}
		n, N, H := fab.Spans, fab.N, fab.H
		plan := FaultPlan{
			SwitchDeadRate:  float64(hdr[2]) / 1020,
			SwitchStuckRate: float64(hdr[3]) / 1020,
			LinkDownRate:    float64(hdr[4]) / 1020,
		}
		lane := int(hdr[5]) % 64
		kinds := []FaultKind{SwitchDead, SwitchStuck0, SwitchStuck1, LinkDown}
		for i := len(hdr); i+2 < len(data); i += 3 {
			flt := Fault{Kind: kinds[data[i]%4], Stage: int(data[i+1]) % n}
			if flt.Kind == LinkDown {
				flt.Link = int(data[i+2]) % N
			} else {
				flt.Cell = int(data[i+2]) % H
			}
			plan.Faults = append(plan.Faults, flt)
		}

		r := bitRunnerFor(t, fab)
		bg := NewFaultState(n)
		bg.Resample(FaultPlan{SwitchDeadRate: 0.1, SwitchStuckRate: 0.1, LinkDownRate: 0.1}, rand.New(rand.NewPCG(seed, 1)))
		if err := r.SetLaneFaults(^uint64(0), bg); err != nil {
			t.Fatal(err)
		}
		dead, st0, st1, ld := slices.Clone(r.dead), slices.Clone(r.stuck0), slices.Clone(r.stuck1), slices.Clone(r.linkDown)
		fs := NewFaultState(n)
		if err := fs.Sample(plan, rand.New(rand.NewPCG(seed, 2))); err != nil {
			t.Fatal(err)
		}
		bit := uint64(1) << uint(lane)
		if err := r.SetLaneFaults(bit, fs); err != nil {
			t.Fatal(err)
		}
		for i, m := range fs.mode {
			slot0, slot1 := switchStuck0, switchStuck1
			if fab.swapped(i) == 1 {
				slot0, slot1 = slot1, slot0
			}
			for _, c := range []struct {
				name      string
				got, prev uint64
				want      bool
			}{
				{"dead", r.dead[i], dead[i], m == switchDead},
				{"stuck0", r.stuck0[i], st0[i], m == slot0},
				{"stuck1", r.stuck1[i], st1[i], m == slot1},
			} {
				if (c.got&bit != 0) != c.want {
					t.Fatalf("%s[%d] lane %d bit = %t, mode = %d", c.name, i, lane, c.got&bit != 0, m)
				}
				if (c.got^c.prev)&^bit != 0 {
					t.Fatalf("%s[%d]: fold into lane %d changed lanes %#x", c.name, i, lane, (c.got^c.prev)&^bit)
				}
			}
		}
		for i, down := range fs.linkDown {
			j := i ^ int(fab.swapped(i>>1))
			if (r.linkDown[j]&bit != 0) != down {
				t.Fatalf("linkDown[%d] (slot %d) lane %d bit = %t, want %t", i, j, lane, r.linkDown[j]&bit != 0, down)
			}
			if (r.linkDown[j]^ld[j])&^bit != 0 {
				t.Fatalf("linkDown[%d] (slot %d): fold into lane %d changed lanes %#x", i, j, lane, (r.linkDown[j]^ld[j])&^bit)
			}
		}

		wr := fab.NewWaveRunner()
		if err := wr.SetFaults(fs); err != nil {
			t.Fatal(err)
		}
		want, err := wr.RunTraffic(Uniform(), rand.New(rand.NewPCG(seed, 3)))
		if err != nil {
			t.Fatal(err)
		}
		rngs := make([]*rand.Rand, lane+1)
		for j := range rngs {
			rngs[j] = rand.New(rand.NewPCG(seed, uint64(4+j)))
		}
		rngs[lane] = rand.New(rand.NewPCG(seed, 3))
		got, err := r.RunTraffic(Uniform(), rngs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Offered[lane] != want.Offered || got.Delivered[lane] != want.Delivered || got.Dropped[lane] != want.Dropped ||
			got.Misrouted[lane] != want.Misrouted || got.FaultDropped[lane] != want.FaultDropped {
			t.Fatalf("lane %d {off %d del %d drop %d mis %d fdrop %d}, scalar %+v", lane,
				got.Offered[lane], got.Delivered[lane], got.Dropped[lane], got.Misrouted[lane], got.FaultDropped[lane], want)
		}
	})
}
