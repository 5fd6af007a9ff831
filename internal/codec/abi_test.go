package codec

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/abi.golden from the current encoder")

const abiGolden = "testdata/abi.golden"

// TestABI pins the version-1 wire format byte for byte: the frame of
// every fixture, one line per fixture in name order as "name shape hex",
// must equal the committed golden, and each golden frame must decode
// back to its fixture. The fixtures cover all ten shape ids, so a
// change to any field's encoding, in either direction, fails here
// unless the golden is rewritten with -update (and Version moves).
func TestABI(t *testing.T) {
	fx := fixtures()
	names := make([]string, 0, len(fx))
	for name := range fx {
		names = append(names, name)
	}
	slices.Sort(names)
	var got bytes.Buffer
	shapes := map[byte]bool{}
	for _, name := range names {
		wire, err := Encode(fx[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes[wire[3]] = true
		fmt.Fprintf(&got, "%s %d %x\n", name, wire[3], wire)
	}
	for id := byte(ShapeCheckRequest); id <= ShapeJobResult; id++ {
		if !shapes[id] {
			t.Errorf("no fixture encodes shape %d", id)
		}
	}
	if *update {
		if err := os.WriteFile(abiGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(abiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire frames differ from %s:\n got:\n%s\nwant:\n%s", abiGolden, got.Bytes(), want)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		f := strings.Fields(line)
		wire, err := hex.DecodeString(f[2])
		if err != nil {
			t.Fatalf("%s: %v", f[0], err)
		}
		v := fresh(fx[f[0]])
		if err := Decode(wire, v); err != nil {
			t.Fatalf("%s: golden frame does not decode: %v", f[0], err)
		}
		if !reflect.DeepEqual(v, fx[f[0]]) {
			t.Errorf("%s: golden frame decodes to %+v, want %+v", f[0], v, fx[f[0]])
		}
	}
}
