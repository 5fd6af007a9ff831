package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"minequiv/internal/engine"
)

// FuzzCheckpointReplay feeds arbitrary bytes to recovery as the
// shards.log of a job dir with a valid spec.json. readLog must keep a
// frame-aligned valid prefix that reads back the same on its own,
// openStore must truncate the log to that prefix, and one appended
// frame must then replay as the old records plus the new one.
func FuzzCheckpointReplay(f *testing.F) {
	mustFrame := func(rec logRecord) []byte {
		fr, err := encodeFrame(rec)
		if err != nil {
			f.Fatal(err)
		}
		return fr
	}
	good := mustFrame(logRecord{Type: "shard", Shard: 3,
		Partial: &engine.WavePartial{Lo: 48, Hi: 64, Offered: 128, Delivered: 97, NonEmpty: 16}})
	badCRC := mustFrame(logRecord{Type: "quarantine", Shard: 4, Reason: "panic"})
	badCRC[6] ^= 0xFF
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(bytes.Clone(good), good[:frameHeader+5]...))
	f.Add(append(bytes.Clone(good), badCRC...))

	spec := testSpec()
	spec.normalize(16)
	specJSON, err := encodeSpec(spec)
	if err != nil {
		f.Fatal(err)
	}
	next := logRecord{Type: "shard", Shard: 5, Partial: &engine.WavePartial{Lo: 80, Hi: 96, Offered: 64, Delivered: 40}}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(specPath(dir), specJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, off, err := readLog(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(data))
		}

		// The valid prefix replays identically on its own.
		prefix := filepath.Join(dir, "prefix.log")
		if err := os.WriteFile(prefix, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		precs, poff, err := readLog(prefix)
		if err != nil || poff != off || !reflect.DeepEqual(precs, recs) {
			t.Fatalf("prefix re-read: %d records at %d (err %v), want %d at %d", len(precs), poff, err, len(recs), off)
		}

		// Every frame in the prefix carries the magic and a matching CRC,
		// and the frames tile the prefix exactly.
		frames := 0
		for p := int64(0); p < off; frames++ {
			h := data[p:off]
			if len(h) < frameHeader || h[0] != logMagic[0] || h[1] != logMagic[1] {
				t.Fatalf("frame %d at %d: bad header", frames, p)
			}
			n := int64(binary.LittleEndian.Uint32(h[2:6]))
			if int64(len(h))-frameHeader < n {
				t.Fatalf("frame %d at %d: payload runs past the prefix", frames, p)
			}
			if crc32.ChecksumIEEE(h[frameHeader:frameHeader+n]) != binary.LittleEndian.Uint32(h[6:10]) {
				t.Fatalf("frame %d at %d: CRC mismatch", frames, p)
			}
			p += frameHeader + n
		}
		if frames != len(recs) {
			t.Fatalf("%d frames in the prefix, %d records", frames, len(recs))
		}

		// Recovery truncates the log to the prefix and appends after it.
		st, gotSpec, orecs, err := openStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		if !reflect.DeepEqual(gotSpec, spec) || !reflect.DeepEqual(orecs, recs) {
			t.Fatalf("openStore replayed %d records and spec %+v, want %d and %+v", len(orecs), gotSpec, len(recs), spec)
		}
		if fi, err := os.Stat(logPath(dir)); err != nil || fi.Size() != off {
			t.Fatalf("log after openStore: %v bytes (err %v), want %d", fi.Size(), err, off)
		}
		if err := st.append(next); err != nil {
			t.Fatal(err)
		}
		arecs, _, err := readLog(logPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want := append(recs[:len(recs):len(recs)], next); !reflect.DeepEqual(arecs, want) {
			t.Fatalf("after one append: %d records, want %d", len(arecs), len(want))
		}
	})
}

// TestStaleFaultStreamFailsResume writes job directories the way a
// build before the fault-stream version did — spec.json with no
// faultStream field, and a shards.log holding one logged partial — and
// reopens them. The faulty sweep comes back failed with ErrStaleStream
// (which wraps ErrCorrupt) instead of merging its stream-1 partial with
// partials drawn now; the intact sweep draws no fault, so it resumes
// from its log and completes.
func TestStaleFaultStreamFailsResume(t *testing.T) {
	dir := t.TempDir()
	oldJob := func(id string, rates []float64) {
		spec := testSpec()
		spec.FaultRates = rates
		spec.normalize(16)
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		jd := filepath.Join(dir, id)
		if err := os.MkdirAll(jd, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specPath(jd), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		frame, err := encodeFrame(logRecord{Type: "shard", Shard: 0,
			Partial: &engine.WavePartial{Lo: 0, Hi: 16, Offered: 128, Delivered: 97, NonEmpty: 16}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath(jd), frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	oldJob("faulty", []float64{0, 0.1})
	oldJob("intact", []float64{0})

	m, err := Open(fastCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	st, err := m.Get("faulty")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "fault stream") {
		t.Fatalf("faulty stream-1 job: state %s, error %q", st.State, st.Error)
	}
	if _, err := m.Result("faulty"); !errors.Is(err, ErrStaleStream) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("faulty stream-1 job: Result error %v, want ErrStaleStream wrapping ErrCorrupt", err)
	}

	if st := await(t, m, "intact"); st.State != StateDone || st.ShardsDone != st.ShardsTotal {
		t.Fatalf("intact stream-1 job: state %s, %d of %d shards (%s)", st.State, st.ShardsDone, st.ShardsTotal, st.Error)
	}
}
