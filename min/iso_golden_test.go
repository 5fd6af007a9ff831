package min

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
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
