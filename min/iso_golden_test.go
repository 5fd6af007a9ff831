package min

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// isoGolden pins the maps Iso returns, not just their validity: per
// family, the SHA-256 of one JSON line per network. The labeler makes a
// 0/1 side choice at every window split, and any consistent choice
// gives a valid isomorphism, so only a digest holds a change to how the
// labels are found to the same choices.
var isoGolden = map[string]string{
	"catalog":   "0910a631baf62049512d58f95643234e928bb8405b13a57c97b6607d3caa537d",
	"relabeled": "e43a5b53c982ad362de8b1ce9553fe353791eca0611a6acd34d7ffa3ae72f5b1",
}

// TestIsoGolden hashes Iso's maps over every catalog network at
// n = 2..12 and one seeded relabeling of each at n = 2..10, and checks
// each map against the Baseline.
func TestIsoGolden(t *testing.T) {
	var catalog []*Network
	for _, name := range CatalogNames() {
		for n := 2; n <= 12; n++ {
			catalog = append(catalog, MustBuild(name, n))
		}
	}
	for family, nets := range map[string][]*Network{
		"catalog":   catalog,
		"relabeled": relabeledNets(t, 2, 10),
	} {
		h := sha256.New()
		for _, nw := range nets {
			iso, err := Iso(nw)
			if err != nil {
				t.Fatalf("%s %s n=%d: %v", family, nw.Name(), nw.Stages(), err)
			}
			if err := iso.Verify(nw, MustBuild(Baseline, nw.Stages())); err != nil {
				t.Fatalf("%s %s n=%d: %v", family, nw.Name(), nw.Stages(), err)
			}
			b, err := json.Marshal(iso)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s n=%d %s\n", nw.Name(), nw.Stages(), b)
		}
		checkDigest(t, isoGolden, family, h)
	}
}

// TestCheckIsoMatchesCheckAndIso pins Check and CheckIso, which take
// the certified path, to the full check's report, IsBaselineEquivalent
// to its verdict, and CheckIso's maps to Iso's when the report says
// equivalent: on the catalog at n = 2..12 with two seeded relabelings of each, the
// tail cycles at n = 3..10 (Banyan, not equivalent), and double-arc
// wirings at n = 3..8 (not Banyan).
func TestCheckIsoMatchesCheckAndIso(t *testing.T) {
	var nets []*Network
	for i, name := range CatalogNames() {
		for n := 2; n <= 12; n++ {
			nw := MustBuild(name, n)
			nets = append(nets, nw)
			for r := uint64(0); r < 2; r++ {
				rng := rand.New(rand.NewPCG(uint64(n), uint64(2*i)+r))
				topo, err := topology.FromLinkPerms("relabeled-"+name, n, randnet.RelabelLinks(rng, nw.topo.LinkPerms))
				if err != nil {
					t.Fatal(err)
				}
				nets = append(nets, newNetwork(topo))
			}
		}
	}
	for n := 3; n <= 10; n++ {
		nw, err := TailCycle(n)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	for n := 3; n <= 8; n++ {
		h := 1 << uint(n-1)
		for _, w := range [][][]int{doubleArcWiring(n, 0, h-1), doubleArcWiring(n, n/2, 1), doubleArcWiring(n, n-2, 0)} {
			nw, err := FromLinkPerms("double-arc", n, w)
			if err != nil {
				t.Fatal(err)
			}
			nets = append(nets, nw)
		}
	}
	equivalent := 0
	for _, nw := range nets {
		rep, iso, err := CheckIso(nw)
		if err != nil {
			t.Fatalf("%s n=%d: %v", nw.Name(), nw.Stages(), err)
		}
		want := checkReport(nw)
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("%s n=%d: report\n%+v\nwant\n%+v", nw.Name(), nw.Stages(), rep, want)
		}
		if got := Check(nw); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s n=%d: Check\n%+v\nwant\n%+v", nw.Name(), nw.Stages(), got, want)
		}
		if got := IsBaselineEquivalent(nw); got != want.Equivalent {
			t.Fatalf("%s n=%d: IsBaselineEquivalent %t, Check says %t", nw.Name(), nw.Stages(), got, want.Equivalent)
		}
		if !want.Equivalent {
			if iso != nil {
				t.Fatalf("%s n=%d: iso on a network that is not equivalent", nw.Name(), nw.Stages())
			}
			continue
		}
		equivalent++
		wantIso, err := Iso(nw)
		if err != nil {
			t.Fatalf("%s n=%d: %v", nw.Name(), nw.Stages(), err)
		}
		if iso == nil || !reflect.DeepEqual(*iso, wantIso) {
			t.Fatalf("%s n=%d: iso %v, want %v", nw.Name(), nw.Stages(), iso, wantIso)
		}
	}
	if want := 6 * 11 * 3; equivalent != want {
		t.Fatalf("%d equivalent networks, want %d", equivalent, want)
	}
}
