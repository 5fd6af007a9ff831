package jobs

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"minequiv/internal/engine"
	"minequiv/internal/sim"
)

// The on-disk layout of one job is a directory <jobs-dir>/<id>/ with
// three files:
//
//	spec.json   — the normalized Spec and its fault-stream version,
//	              written once atomically at submit
//	shards.log  — append-only CRC-framed shard outcomes, fsync'd per append
//	result.json — the finalized result bytes, written once atomically
//
// Each shards.log frame is
//
//	magic "MJ" | uint32 payload length | uint32 CRC32-IEEE(payload) | payload
//
// (integers little-endian, payload a JSON logRecord). A crash can tear
// only the final frame: recovery scans the valid prefix, truncates the
// torn or corrupt tail, and resumes appending — losing at most the
// shards whose frames never fully landed, which simply re-run. The log
// is a set, not a sequence: duplicate frames for a shard are benign
// because a shard result is a pure function of (spec, shard index).
var logMagic = [2]byte{'M', 'J'}

const frameHeader = 2 + 4 + 4

// logRecord is one checkpoint log entry.
type logRecord struct {
	Type    string              `json:"type"` // "shard" | "quarantine" | "cancel"
	Shard   int                 `json:"shard,omitempty"`
	Partial *engine.WavePartial `json:"partial,omitempty"`
	Reason  string              `json:"reason,omitempty"`
}

// errCorrupt marks unrecoverable checkpoint damage (an unreadable or
// unparseable spec.json). Torn shards.log tails are NOT corruption —
// they are the expected crash residue and recover by truncation.
var errCorrupt = errors.New("jobs: checkpoint corrupt")

// errStaleStream marks a checkpoint whose faulty cells were drawn under
// another fault stream than this build's sim.FaultStreamVersion. Its
// logged partials are a different sample of the same sweep, so
// resuming would merge partials from two streams into one result. It
// wraps errCorrupt: the checkpoint cannot be trusted either way.
var errStaleStream = fmt.Errorf("%w: written under another fault stream", errCorrupt)

// storedSpec is the content of spec.json: the normalized Spec and the
// fault-stream version its shards draw faults under. A spec.json
// without the field predates it and was written under stream 1.
type storedSpec struct {
	Spec
	FaultStream int `json:"faultStream"`
}

// encodeSpec renders spec.json for a spec drawn under this build's
// fault stream.
func encodeSpec(spec Spec) ([]byte, error) {
	data, err := json.MarshalIndent(storedSpec{spec, sim.FaultStreamVersion}, "", "  ")
	return append(data, '\n'), err
}

// decodeSpec parses spec.json, refusing (errStaleStream) a spec with a
// positive fault rate written under another fault stream. A spec with
// no fault rate draws no fault, so any stream version resumes it.
func decodeSpec(data []byte) (Spec, error) {
	var st storedSpec
	if err := json.Unmarshal(data, &st); err != nil {
		return Spec{}, err
	}
	if st.FaultStream == 0 {
		st.FaultStream = 1
	}
	if st.FaultStream != sim.FaultStreamVersion && slices.ContainsFunc(st.FaultRates, func(r float64) bool { return r > 0 }) {
		return Spec{}, fmt.Errorf("%w: stream %d, this build draws stream %d", errStaleStream, st.FaultStream, sim.FaultStreamVersion)
	}
	return st.Spec, nil
}

// store is the durable side of one job. A nil *store (in-memory mode,
// Config.Dir == "") accepts every call as a no-op, so the scheduler
// never branches on persistence.
type store struct {
	dir    string
	mu     sync.Mutex
	f      *os.File // shards.log, opened O_APPEND
	closed bool
	wrote  func(n int) // checkpoint-bytes stat sink
}

// specPath/logPath/resultPath name the three files of a job dir.
func specPath(dir string) string   { return filepath.Join(dir, "spec.json") }
func logPath(dir string) string    { return filepath.Join(dir, "shards.log") }
func resultPath(dir string) string { return filepath.Join(dir, "result.json") }

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsync, rename, and directory fsync — the standard
// crash-safe publish: after a crash the file is either absent or
// complete, never torn.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// newStore creates the job directory, persists the normalized spec,
// and opens a fresh shards.log.
func newStore(dir string, spec Spec, wrote func(int)) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	data, err := encodeSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(specPath(dir), data); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(logPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &store{dir: dir, f: f, wrote: wrote}, nil
}

// openStore reopens an existing job directory for resumption: it reads
// the spec, replays the valid prefix of shards.log (truncating any
// torn or CRC-damaged tail in place), and reopens the log for append.
// A missing or unparseable spec.json returns errCorrupt — without the
// spec the logged partials are unattributable and the job cannot be
// trusted — and a faulty spec drawn under another fault stream returns
// errStaleStream.
func openStore(dir string, wrote func(int)) (*store, Spec, []logRecord, error) {
	data, err := os.ReadFile(specPath(dir))
	if err != nil {
		return nil, Spec{}, nil, fmt.Errorf("%w: %s: %v", errCorrupt, specPath(dir), err)
	}
	spec, err := decodeSpec(data)
	if errors.Is(err, errStaleStream) {
		return nil, spec, nil, fmt.Errorf("%s: %w", specPath(dir), err)
	}
	if err != nil {
		return nil, spec, nil, fmt.Errorf("%w: %s: %v", errCorrupt, specPath(dir), err)
	}
	recs, valid, err := readLog(logPath(dir))
	if err != nil {
		return nil, spec, nil, err
	}
	// Truncate the torn tail before reopening for append, so the next
	// frame starts at a clean boundary.
	if err := os.Truncate(logPath(dir), valid); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, spec, nil, err
	}
	f, err := os.OpenFile(logPath(dir), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, spec, nil, err
	}
	return &store{dir: dir, f: f, wrote: wrote}, spec, recs, nil
}

// readLog scans frames from the front and returns the decoded records
// plus the byte offset of the last fully-valid frame. A short header,
// short payload, bad magic, CRC mismatch, or undecodable payload all
// terminate the scan — everything before the damage is kept, the
// damage itself is the crash residue recovery truncates.
func readLog(path string) ([]logRecord, int64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var recs []logRecord
	var off int64
	for int64(len(data))-off >= frameHeader {
		h := data[off:]
		if h[0] != logMagic[0] || h[1] != logMagic[1] {
			break
		}
		n := int64(binary.LittleEndian.Uint32(h[2:6]))
		sum := binary.LittleEndian.Uint32(h[6:10])
		if int64(len(data))-off-frameHeader < n {
			break // torn payload
		}
		payload := h[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec logRecord
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, off, nil
}

// encodeFrame builds the shards.log frame of one record.
func encodeFrame(rec logRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeader+len(payload))
	frame[0], frame[1] = logMagic[0], logMagic[1]
	binary.LittleEndian.PutUint32(frame[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// append frames, writes, and fsyncs one record. The scheduler ignores
// its error: scheduling state never depends on the append having
// happened, and a lost frame only means the shard re-runs after a
// crash.
func (st *store) append(rec logRecord) error {
	if st == nil {
		return nil
	}
	frame, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return io.ErrClosedPipe
	}
	if _, err := st.f.Write(frame); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return err
	}
	if st.wrote != nil {
		st.wrote(len(frame))
	}
	return nil
}

// writeResult publishes the finalized result bytes atomically.
func (st *store) writeResult(data []byte) error {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return io.ErrClosedPipe
	}
	if err := writeFileAtomic(resultPath(st.dir), data); err != nil {
		return err
	}
	if st.wrote != nil {
		st.wrote(len(data))
	}
	return nil
}

// close stops all further writes. It is used both by graceful shutdown
// (after in-flight shards have reported) and by the crash-simulating
// Kill path (where whatever had not reached the log is simply lost, as
// in a real crash).
func (st *store) close() {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	st.f.Close()
}

// remove deletes the job directory (TTL garbage collection).
func (st *store) remove() {
	if st == nil {
		return
	}
	st.close()
	os.RemoveAll(st.dir)
}
