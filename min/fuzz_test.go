package min

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"minequiv/internal/midigraph"
	"minequiv/internal/perm"
	"minequiv/internal/pipid"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// FuzzBuilderStageSpecs drives the Builder/FromIndexPerms surface with
// arbitrary stage specs: whatever bytes arrive, construction must
// either fail cleanly or yield a network whose invariants hold (stage
// count, terminal count, PIPID detection, a compilable fabric). CI runs
// this for a short smoke window on every push.
func FuzzBuilderStageSpecs(f *testing.F) {
	f.Add(3, []byte{2, 1, 0, 1, 0, 2})
	f.Add(4, []byte{1, 2, 3, 0, 0, 1, 2, 3, 3, 2, 1, 0})
	f.Add(2, []byte{0, 1})
	f.Add(5, []byte{})
	f.Add(-1, []byte{0})
	f.Add(20, []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, stages int, raw []byte) {
		if stages > 12 {
			stages %= 13 // keep networks small; size limits are tested directly
		}
		// Slice raw into stages-1 candidate thetas of length `stages`.
		var thetas [][]int
		if stages > 0 {
			need := (stages - 1) * stages
			for len(raw) < need {
				raw = append(raw, byte(len(raw)))
			}
			thetas = make([][]int, stages-1)
			for s := range thetas {
				th := make([]int, stages)
				for j := range th {
					th[j] = int(raw[s*stages+j]) % (stages + 2) // mostly valid, sometimes out of range
				}
				thetas[s] = th
			}
		}
		nw, err := FromIndexPerms("fuzz", stages, thetas)
		if err != nil {
			return // rejection is a fine outcome; panics are not
		}
		if nw.Stages() != stages || nw.Terminals() != 1<<uint(stages) {
			t.Fatalf("accepted network has wrong shape: stages=%d terminals=%d", nw.Stages(), nw.Terminals())
		}
		if !nw.IsPIPID() {
			t.Fatal("FromIndexPerms built a non-PIPID network")
		}
		// The accepted spec must round-trip through the Builder.
		b := NewBuilder(stages)
		for _, th := range thetas {
			b.Stage(IndexBits(th...))
		}
		rebuilt, err := b.Build("fuzz-rebuilt")
		if err != nil {
			t.Fatalf("Builder rejected a spec FromIndexPerms accepted: %v", err)
		}
		if rebuilt.Fingerprint() != nw.Fingerprint() {
			t.Fatal("Builder and FromIndexPerms disagree on the wiring")
		}
		// Every constructible network must characterize and simulate
		// without panicking.
		rep := Check(nw)
		if rep.Banyan {
			if _, err := Route(nw, 0, nw.Terminals()-1); err != nil {
				t.Fatalf("banyan network failed to route: %v", err)
			}
		}
	})
}

// FuzzRouteUnderFaults routes catalog networks at 3..6 stages under
// arbitrary pinned fault lists: each byte of kinds is one fault's raw
// FaultKind value, so the zero value and 5..255 arrive next to the four
// kinds, and coordinates are signed bytes, so negative and out-of-range
// stages, cells and links all arrive. A plan must either fail with the
// exact validation text, or route exactly like the intact fabric minus
// its faults: on a Banyan network the pair routes iff its unique intact
// path avoids every dead switch, wrongly jammed crossbar and severed
// link, and then the route is that path. CI runs this for a short smoke
// window on every push.
func FuzzRouteUnderFaults(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(3), uint16(5), []byte{1}, []byte{1, 2, 0})
	f.Add(uint8(2), uint8(1), uint16(0), uint16(15), []byte{2, 3}, []byte{0, 0, 0, 3, 7, 0})
	f.Add(uint8(4), uint8(3), uint16(60), uint16(9), []byte{4, 4}, []byte{5, 0, 63, 2, 0, 64})
	f.Add(uint8(1), uint8(2), uint16(7), uint16(7), []byte{0, 1}, []byte{0xff, 0, 0, 0, 0, 0})
	f.Add(uint8(1), uint8(2), uint16(7), uint16(7), []byte{1, 5}, []byte{0, 0, 0, 1, 0, 0})
	f.Add(uint8(5), uint8(1), uint16(9), uint16(4), []byte{255}, []byte{0, 0, 0})
	f.Add(uint8(2), uint8(1), uint16(0), uint16(3), []byte{2, 3}, []byte{0})
	f.Add(uint8(3), uint8(0), uint16(2), uint16(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, netIdx, extra uint8, src, dst uint16, kinds, coords []byte) {
		names := CatalogNames()
		nw := MustBuild(names[int(netIdx)%len(names)], 3+int(extra)%4)
		stages, h, N := nw.Stages(), nw.CellsPerStage(), nw.Terminals()
		s, d := int(src)%N, int(dst)%N
		var plan FaultPlan
		for i, k := range kinds {
			if i == 16 {
				break
			}
			var c [3]int
			for j := range c {
				if b := 3*i + j; b < len(coords) {
					c[j] = int(int8(coords[b]))
				}
			}
			plan.Faults = append(plan.Faults, Fault{Kind: FaultKind(k), Stage: c[0], Cell: c[1], Link: c[2]})
		}
		got, err := RouteUnderFaults(nw, s, d, plan)
		if want := wantFaultPlanError(plan, stages, h, N); want != "" {
			if err == nil || err.Error() != want {
				t.Fatalf("invalid plan %+v: err %v, want %q", plan.Faults, err, want)
			}
			return
		}
		intact, ierr := Route(nw, s, d)
		if ierr != nil {
			t.Fatalf("intact %s: %v", nw.Name(), ierr)
		}
		// Of several switch faults on one cell, switch-dead wins in
		// either order and otherwise the later stuck pin wins; a link is
		// severed by any fault naming it.
		blocked := false
		for _, hop := range intact.Hops {
			var mode FaultKind
			for _, flt := range plan.Faults {
				switch {
				case flt.Stage != hop.Stage:
				case flt.Kind == LinkDown:
					blocked = blocked || flt.Link == hop.Cell*2+hop.OutPort
				case flt.Cell == hop.Cell && mode != SwitchDead:
					mode = flt.Kind
				}
			}
			switch mode {
			case SwitchDead:
				blocked = true
			case SwitchStuck0:
				blocked = blocked || hop.OutPort == 1
			case SwitchStuck1:
				blocked = blocked || hop.OutPort == 0
			}
		}
		switch {
		case blocked && err == nil:
			t.Fatalf("%s %d->%d routed through a fault: %+v under %+v", nw.Name(), s, d, got, plan.Faults)
		case blocked && !strings.HasPrefix(err.Error(), "route: no fault-free path from "):
			t.Fatalf("%s %d->%d: err %v", nw.Name(), s, d, err)
		case !blocked && err != nil:
			t.Fatalf("%s %d->%d: fault-free intact path rejected: %v", nw.Name(), s, d, err)
		case !blocked && !reflect.DeepEqual(got, intact):
			t.Fatalf("%s %d->%d: route %+v differs from the intact path %+v", nw.Name(), s, d, got, intact)
		}
	})
}

// wantFaultPlanError is the error text a pinned fault plan must be
// rejected with on a network of the given shape, or "" for a valid
// plan. It follows sim.FaultPlan.Validate's single pass in list order:
// each fault's stage, then its kind, then its cell or link.
func wantFaultPlanError(plan FaultPlan, stages, h, N int) string {
	for i, f := range plan.Faults {
		switch {
		case f.Stage < 0 || f.Stage >= stages:
			return fmt.Sprintf("sim: fault %d: stage %d out of [0,%d)", i, f.Stage, stages)
		case f.Kind < SwitchDead || f.Kind > LinkDown:
			return fmt.Sprintf("sim: fault %d: unknown kind %d", i, uint8(f.Kind))
		case f.Kind != LinkDown && (f.Cell < 0 || f.Cell >= h):
			return fmt.Sprintf("sim: fault %d: cell %d out of [0,%d)", i, f.Cell, h)
		case f.Kind == LinkDown && (f.Link < 0 || f.Link >= N):
			return fmt.Sprintf("sim: fault %d: link %d out of [0,%d)", i, f.Link, N)
		}
	}
	return ""
}

// FuzzFromLinkPerms checks the one-pass FromLinkPerms against
// fiveWalkFromLinkPerms, the build it replaced. The input decodes to
// stages-1+extra%3 rows; row s holds 2^stages+int8(lens[s]) entries
// (2^stages once lens runs out), each a little-endian int16 pair of
// data bytes, and a row ends early when data does. Negative,
// out-of-range and repeated entries, short and long rows and a wrong
// row count all arrive. Both builds must fail with the same text, or
// both succeed with the same fingerprint, link permutations and PIPID
// structure. CI runs this for a short smoke window on every push.
func FuzzFromLinkPerms(f *testing.F) {
	encode := func(rows [][]int) []byte {
		var b []byte
		for _, row := range rows {
			for _, v := range row {
				b = append(b, byte(v), byte(uint16(v)>>8))
			}
		}
		return b
	}
	tail, err := TailCycle(4)
	if err != nil {
		f.Fatal(err)
	}
	relabeled := randnet.RelabelLinks(rand.New(rand.NewPCG(4, 1)), MustBuild(Omega, 4).topo.LinkPerms)
	rows := make([][]int, len(relabeled))
	for s, p := range relabeled {
		for _, v := range p {
			rows[s] = append(rows[s], int(v))
		}
	}
	for _, w := range [][][]int{MustBuild(Omega, 3).LinkPerms(), rows, tail.LinkPerms(), doubleArcWiring(4, 1, 3), identityWiring(3)} {
		f.Add(len(w)+1, int8(0), []byte{}, encode(w))
	}
	omega := encode(MustBuild(Omega, 3).LinkPerms())
	f.Add(3, int8(0), []byte{}, append([]byte{0xff, 0xff}, omega[2:]...))                                 // negative
	f.Add(3, int8(0), []byte{}, append([]byte{8, 0}, omega[2:]...))                                       // out of range
	f.Add(3, int8(0), []byte{}, append(omega[2:4:4], omega[2:]...))                                       // repeated
	f.Add(3, int8(0), []byte{}, slices.Concat([]byte{8, 0}, omega[2:14], []byte{0xfe, 0xff}, omega[16:])) // the negative wins
	f.Add(3, int8(0), []byte{0, 0xff}, omega)                                                             // short row
	f.Add(3, int8(0), []byte{1}, slices.Concat(omega[:16], []byte{8, 0}, omega[16:]))                     // long row
	f.Add(3, int8(1), []byte{}, omega)                                                                    // one row too many
	f.Add(3, int8(0), []byte{}, omega[:20])                                                               // truncated
	f.Add(1, int8(0), []byte{}, []byte{})
	f.Add(27, int8(0), []byte{}, omega)
	f.Fuzz(func(t *testing.T, stages int, extra int8, lens, data []byte) {
		N := 1 << uint(max(0, min(stages, 12)))
		rows := make([][]int, max(0, min(stages-1+int(extra%3), 40)))
		for s := range rows {
			size := N
			if s < len(lens) {
				size = max(0, N+int(int8(lens[s])))
			}
			rows[s] = []int{}
			for ; size > 0 && len(data) >= 2; size-- {
				rows[s] = append(rows[s], int(int16(uint16(data[0])|uint16(data[1])<<8)))
				data = data[2:]
			}
		}
		got, err := FromLinkPerms("fuzz", stages, rows)
		want, wantErr := fiveWalkFromLinkPerms("fuzz", stages, rows)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("stages %d, %d rows: err %v, want %v", stages, len(rows), err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("fingerprint %x, want %x", got.Fingerprint(), want.Fingerprint())
		}
		if !reflect.DeepEqual(got.LinkPerms(), want.LinkPerms()) {
			t.Fatal("link permutations differ")
		}
		gotIdx, gotPIPID := got.IndexPerms()
		wantIdx, wantPIPID := want.IndexPerms()
		if gotPIPID != wantPIPID || !reflect.DeepEqual(gotIdx, wantIdx) {
			t.Fatalf("PIPID %t %v, want %t %v", gotPIPID, gotIdx, wantPIPID, wantIdx)
		}
	})
}

// fiveWalkFromLinkPerms is FromLinkPerms as it stood before the
// one-pass build: copy and validate each row, validate it again while
// building the MI-digraph on slots preset to NoNode, then validate the
// graph's degrees. It is FuzzFromLinkPerms's oracle; validateBools is
// the []bool Perm.Validate of that build.
func fiveWalkFromLinkPerms(name string, stages int, perms [][]int) (*Network, error) {
	if stages < 2 || stages > MaxStages {
		return nil, fmt.Errorf("min: stage count %d out of range [2,%d]", stages, MaxStages)
	}
	if len(perms) != stages-1 {
		return nil, fmt.Errorf("min: want %d link permutations for %d stages, got %d",
			stages-1, stages, len(perms))
	}
	lps := make([]perm.Perm, len(perms))
	for s, p := range perms {
		lp := make(perm.Perm, len(p))
		for i, v := range p {
			if v < 0 {
				return nil, fmt.Errorf("min: stage %d permutation has negative entry %d", s, v)
			}
			lp[i] = uint64(v)
		}
		if err := validateBools(lp); err != nil {
			return nil, fmt.Errorf("min: stage %d: %w", s, err)
		}
		if lp.N() != 1<<uint(stages) {
			return nil, fmt.Errorf("min: stage %d permutation on %d symbols, want %d",
				s, lp.N(), 1<<uint(stages))
		}
		lps[s] = lp
	}
	g := midigraph.New(stages)
	for s, p := range lps {
		if p.N() != 1<<uint(stages) {
			return nil, fmt.Errorf("midigraph: stage %d link permutation on %d symbols, want %d",
				s, p.N(), 1<<uint(stages))
		}
		if err := validateBools(p); err != nil {
			return nil, fmt.Errorf("midigraph: stage %d: %w", s, err)
		}
		for x := 0; x < g.CellsPerStage(); x++ {
			g.SetChildren(s, uint32(x), uint32(p[2*x]>>1), uint32(p[2*x+1]>>1))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ips := make([]pipid.IndexPerm, len(lps))
	for s, lp := range lps {
		ip, ok := pipid.Detect(lp)
		if !ok {
			ips = nil
			break
		}
		ips[s] = ip
	}
	return newNetwork(topology.Network{Name: name, Graph: g, IndexPerms: ips, LinkPerms: lps}), nil
}

func validateBools(p perm.Perm) error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v >= uint64(len(p)) {
			return fmt.Errorf("perm: image %d of %d out of range [0,%d)", v, i, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: image %d repeated (first duplicate at source %d)", v, i)
		}
		seen[v] = true
	}
	return nil
}
