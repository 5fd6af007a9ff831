package codec

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"testing"

	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// referenceDecodeJSON is the request decoder before permutation
// lifting: json.Decoder alone, with the same strictness.
func referenceDecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// relabeledCheckBody is a check request shaped like the ones a client
// sends for an uncached wiring: a seeded cell relabeling of Omega at
// the given stage count, as linkPerms.
func relabeledCheckBody(tb testing.TB, stages int) []byte {
	tb.Helper()
	nw := topology.MustBuild("omega", stages)
	perms := randnet.RelabelLinks(rand.New(rand.NewPCG(uint64(stages), 7)), nw.LinkPerms)
	req := CheckRequest{NetworkSpec: NetworkSpec{Network: "cold", Stages: stages, LinkPerms: make([][]int, len(perms))}}
	for s, p := range perms {
		for _, y := range p {
			req.LinkPerms[s] = append(req.LinkPerms[s], int(y))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecodeJSONRequest is the differential test of DecodeJSON: for
// every body and each request shape that lifts permutations, it must
// give what json.Decoder alone gives — the same error text, or an equal
// struct, with nil and empty rows kept apart. CI runs this for a short
// smoke window on every push.
func FuzzDecodeJSONRequest(f *testing.F) {
	for _, body := range []string{
		`{"network":"omega","stages":3}`,
		`{"stages":3,"linkPerms":[[0,1,2,3,4,5,6,7],[7,6,5,4,3,2,1,0]],"iso":true}`,
		`{"stages":3,"indexPerms":[[2,1,0],[1,0,2]]}`,
		// Case-folded and escaped keys bind like the exact one, including
		// the Kelvin sign and the long s, which fold to k and s.
		`{"LinkPerms":[[1,0]]}`,
		`{"INDEXPERMS":[[1,0]]}`,
		`{"\u006cinkPerms":[[1,0]]}`,
		`{"lin\u212aPerms":[[1,0]]}`,
		"{\"lin\u212aPerms\":[[1,0]]}",
		"{\"indexPerm\u017f\":[[1,0]]}",
		`{"linkPerms\u0000":[[1,0]]}`,
		`{"link\"Perms":[[1,0]]}`,
		// Both spellings of one field, in either order: the later wins.
		`{"linkPerms":[[1,0]],"LinkPerms":[[0,1],[2]]}`,
		`{"LinkPerms":[[0,1],[2]],"linkPerms":[[1,0]]}`,
		`{"indexPerms":[[1,2,3]],"indexPerms":[[4]]}`,
		`{"linkPerms":[[1,2,3]],"linkPerms":[[4,null]]}`,
		// Null and empty matrices and rows.
		`{"linkPerms":null}`,
		`{"linkPerms":[]}`,
		`{"linkPerms":[[]]}`,
		`{"linkPerms":[null,[1],[]],"indexPerms":[[],null]}`,
		`{"linkPerms":[[1]],"linkPerms":null}`,
		// Numbers: only what strconv.ParseInt reads is an int.
		`{"linkPerms":[[-0]]}`,
		`{"linkPerms":[[01]]}`,
		`{"linkPerms":[[1.0]]}`,
		`{"linkPerms":[[1e2]]}`,
		`{"linkPerms":[[9223372036854775807,-9223372036854775808]]}`,
		`{"linkPerms":[[9223372036854775808]]}`,
		`{"linkPerms":[[-9223372036854775809]]}`,
		`{"linkPerms":[[-]]}`,
		// A string, an object or a null inside a row.
		`{"linkPerms":[["1"]]}`,
		`{"linkPerms":[[{}]]}`,
		`{"linkPerms":[[1,null]]}`,
		`{"linkPerms":"[[1]]"}`,
		// Structural errors, around and inside a lifted member.
		`{"linkPerms" [[1]]}`,
		`{"linkPerms":[[1]],}`,
		`{"linkPerms":[[1],]}`,
		`{"linkPerms":[[1,]]}`,
		`{"linkPerms":[[1]] "stages":3}`,
		`{"linkPerms":[[1]],"stages":3}{"stages":4}`,
		`{"linkPerms":[[1]],"stages":3} ]`,
		`{"linkPerms":[[1]],"stages":3`,
		// Other members: unknown, mistyped or invalid next to a lifted one.
		`{"linkPerms":[[1]],"bogus":{"a":[1,{"b":null}]}}`,
		`{"stages":"3","linkPerms":[[1]]}`,
		`{"linkPerms":[[1]],"network":"omega\x01"}`,
		`{"linkPerms":[[1]],"network":"\uZZZZ"}`,
		`{"linkPerms":[[1]],"stages":tru}`,
		`{"linkPerms":[[1]],"faults":{"faults":[{"kind":"switch-dead","stage":0,"cell":1}]},"src":1}`,
		// Not an object.
		`[[1,0]]`,
		`null`,
		``,
		` `,
	} {
		f.Add([]byte(body))
	}
	f.Add(relabeledCheckBody(f, 10))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, shape := range []func() any{
			func() any { return new(CheckRequest) },
			func() any { return new(RouteRequest) },
			func() any { return new(SimulateRequest) },
		} {
			got, want := shape(), shape()
			gotErr, wantErr := DecodeJSON(body, got), referenceDecodeJSON(body, want)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%T %q: err %v, json.Decoder err %v", got, body, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%T %q: err %q, json.Decoder err %q", got, body, gotErr, wantErr)
			case gotErr == nil && !reflect.DeepEqual(got, want):
				t.Fatalf("%T %q: decoded %+v, json.Decoder %+v", got, body, got, want)
			}
		}
	})
}

// TestDecodeJSONLifts pins that the walker, not the fallback, decodes a
// well-formed permutation body, and that it leaves each row at exact
// capacity so appending to one never writes into the next.
func TestDecodeJSONLifts(t *testing.T) {
	body := relabeledCheckBody(t, 6)
	var l permLifter
	if !l.lift(body) || !l.hasLink || l.hasIndex {
		t.Fatalf("serve-cold body not lifted (lift ok, link %v, index %v)", l.hasLink, l.hasIndex)
	}
	if want := `{"network":"cold","stages":6}`; string(l.rest) != want {
		t.Fatalf("rest %s, want %s", l.rest, want)
	}
	var got CheckRequest
	if err := DecodeJSON(body, &got); err != nil {
		t.Fatal(err)
	}
	for s, row := range got.LinkPerms {
		if cap(row) != len(row) || len(row) != 64 {
			t.Fatalf("stage %d row: len %d cap %d, want 64 at exact capacity", s, len(row), cap(row))
		}
	}
	// A body with no permutation member lifts nothing, so DecodeJSON
	// hands it to json.Decoder as sent.
	if !l.lift([]byte(`{"network":"omega","stages":3}`)) || l.hasLink || l.hasIndex {
		t.Fatal("catalog body: lift failed or found a permutation")
	}
}
