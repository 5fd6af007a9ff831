// Package codec owns the serving plane's wire shapes and both their
// renderings. The binary one is a versioned, length-prefixed,
// little-endian codec for the hot request/response shapes — simulate
// requests (fault plans and kernel selection included), simulate
// statistics, batch envelopes, job specs and result manifests. It was
// added when a fault-heavy simulate body made encoding/json the
// dominant per-request cost of a warm sweep; minserve negotiates it
// per request via Content-Type/Accept: application/x-min-bin.
//
// The JSON rendering stays the default, and its request decoder
// (DecodeJSON, json.go) is no longer the dominant cost either: the
// permutation members of a wiring sent as linkPerms or indexPerms —
// ~36 KB at 10 stages, which encoding/json decoded in ~2 ms — are
// parsed directly, ~9x faster, with the result and error text
// encoding/json would give; the rest of the body still goes through
// encoding/json. Response encoding is still encoding/json.
//
// Frame layout (all multi-byte integers little-endian):
//
//	offset  size  field
//	0       2     magic "MB" (0x4D 0x42)
//	2       1     format version (currently 1)
//	3       1     shape id (Shape* constants)
//	4       4     payload length, uint32
//	8       n     payload
//
// Inside a payload: unsigned integers are uvarint, signed integers
// are zigzag varint, float64 is its 8-byte IEEE-754 bit pattern,
// bool is one strict 0/1 byte, a string or byte field is a uvarint
// length followed by the raw bytes, and every nillable slice or
// pointer field is led by a presence byte (0 = nil, 1 = present) so
// nil and empty round-trip exactly.
//
// Performance contract: encoding appends to a pooled Encoder buffer
// and decoding reuses the destination struct's slices plus a bounded
// string intern table, so the steady state of a request/response loop
// is alloc-free — the per-element loops carry //minlint:hotpath and
// the hotalloc analyzer plus the CI 0-allocs/op benchmark gate keep
// them that way. Decoded strings are copies; decoded byte fields
// (batch sub-payloads) alias the input buffer and must be consumed
// before the caller recycles it.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Wire constants. Version only moves when the payload layout of an
// existing shape changes; new shapes extend the id space instead.
const (
	magic0  = 0x4D // 'M'
	magic1  = 0x42 // 'B'
	Version = 1

	headerLen = 8
)

// Shape ids, one per wire shape. Stable: ids are only ever added.
const (
	ShapeCheckRequest     = 1
	ShapeCheckResponse    = 2
	ShapeRouteRequest     = 3
	ShapeRouteResponse    = 4
	ShapeSimulateRequest  = 5
	ShapeSimulateResponse = 6
	ShapeBatchRequest     = 7
	ShapeBatchResponse    = 8
	ShapeJobSpec          = 9
	ShapeJobResult        = 10
)

// Decode failure sentinels. Frame-level corruption (bad magic,
// version, shape, torn length) and payload-level truncation both
// reject the whole frame; there is no partial decode.
var (
	ErrFrame     = errors.New("codec: malformed frame header")
	ErrTruncated = errors.New("codec: truncated frame")
	ErrTrailing  = errors.New("codec: trailing bytes after frame")
	ErrValue     = errors.New("codec: invalid field value")
)

// internCap bounds the Decoder's string intern table so adversarial
// inputs cannot grow a pooled decoder without bound; past the cap
// strings simply allocate like JSON's would.
const internCap = 512

// --- Encoder --------------------------------------------------------

// Encoder appends frames to an owned buffer. The zero value is ready;
// Reset between frames to reuse the buffer. Not safe for concurrent
// use.
type Encoder struct {
	buf []byte
}

// Reset truncates the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// begin appends a frame header with a zero length and returns the
// payload start for end to patch.
//
//minlint:hotpath
func (e *Encoder) begin(shape byte) int {
	e.buf = append(e.buf, magic0, magic1, Version, shape, 0, 0, 0, 0)
	return len(e.buf)
}

// end patches the length field of the frame opened at start.
//
//minlint:hotpath
func (e *Encoder) end(start int) {
	binary.LittleEndian.PutUint32(e.buf[start-4:start], uint32(len(e.buf)-start))
}

//minlint:hotpath
func (e *Encoder) u64(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

//minlint:hotpath
func (e *Encoder) int(v int) { e.u64(zigzag(int64(v))) }

//minlint:hotpath
func (e *Encoder) i64(v int64) { e.u64(zigzag(v)) }

//minlint:hotpath
func (e *Encoder) f64(v float64) {
	bits := math.Float64bits(v)
	e.buf = append(e.buf,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

//minlint:hotpath
func (e *Encoder) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

//minlint:hotpath
func (e *Encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

//minlint:hotpath
func (e *Encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// presence leads a nillable field: 0 = nil, 1 = present.
//
//minlint:hotpath
func (e *Encoder) presence(present bool) { e.bool(present) }

//minlint:hotpath
func (e *Encoder) ints(s []int) {
	e.presence(s != nil)
	if s == nil {
		return
	}
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.int(v)
	}
}

//minlint:hotpath
func (e *Encoder) floats(s []float64) {
	e.presence(s != nil)
	if s == nil {
		return
	}
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.f64(v)
	}
}

//minlint:hotpath
func (e *Encoder) strs(s []string) {
	e.presence(s != nil)
	if s == nil {
		return
	}
	e.u64(uint64(len(s)))
	for _, v := range s {
		e.str(v)
	}
}

//minlint:hotpath
func (e *Encoder) perms(s [][]int) {
	e.presence(s != nil)
	if s == nil {
		return
	}
	e.u64(uint64(len(s)))
	for _, row := range s {
		e.ints(row)
	}
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// --- Decoder --------------------------------------------------------

// Decoder consumes exactly one frame per Reset. The first failure
// latches into err; subsequent primitive reads return zero values, so
// shape decoders run straight-line and check the error once at the
// end. Not safe for concurrent use.
type Decoder struct {
	buf []byte
	off int
	err error
	// strs interns decoded strings so a steady request stream stops
	// allocating for repeated names; bounded by internCap.
	strs map[string]string
}

// Reset points the decoder at a new frame.
func (d *Decoder) Reset(data []byte) {
	d.buf = data
	d.off = 0
	d.err = nil
}

// frame validates the header and requires the payload length to cover
// the remaining bytes exactly — a short buffer is a torn frame, extra
// bytes are trailing garbage; both reject.
func (d *Decoder) frame(shape byte) error {
	if len(d.buf) < headerLen {
		return ErrTruncated
	}
	if d.buf[0] != magic0 || d.buf[1] != magic1 {
		return ErrFrame
	}
	if d.buf[2] != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrFrame, d.buf[2], Version)
	}
	if d.buf[3] != shape {
		return fmt.Errorf("%w: shape %d, want %d", ErrFrame, d.buf[3], shape)
	}
	n := binary.LittleEndian.Uint32(d.buf[4:8])
	switch rest := uint32(len(d.buf) - headerLen); {
	case n > rest:
		return ErrTruncated
	case n < rest:
		return ErrTrailing
	}
	d.off = headerLen
	return nil
}

// finish reports the latched error, or whether payload bytes remain
// unconsumed (a shape/payload length mismatch).
func (d *Decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return ErrTrailing
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

//minlint:hotpath
func (d *Decoder) u64() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if d.off >= len(d.buf) {
			d.fail(ErrTruncated)
			return 0
		}
		b := d.buf[d.off]
		d.off++
		if shift == 63 && b > 1 {
			d.fail(ErrValue)
			return 0
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
	d.fail(ErrValue)
	return 0
}

//minlint:hotpath
func (d *Decoder) int() int { return int(unzigzag(d.u64())) }

//minlint:hotpath
func (d *Decoder) i64() int64 { return unzigzag(d.u64()) }

//minlint:hotpath
func (d *Decoder) f64() float64 {
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits)
}

//minlint:hotpath
func (d *Decoder) bool() bool {
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(ErrValue)
		return false
	}
	return b == 1
}

//minlint:hotpath
func (d *Decoder) presence() bool { return d.bool() }

// count reads a slice length and bounds it by the remaining payload
// (every element costs at least one byte), so corrupt input cannot
// demand a huge allocation.
//
//minlint:hotpath
func (d *Decoder) count() int {
	n := d.u64()
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrTruncated)
		return 0
	}
	return int(n)
}

//minlint:hotpath
func (d *Decoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return d.intern(b)
}

// rawBytes returns a length-prefixed byte field aliasing the input
// buffer (nil when empty, matching json.RawMessage round-trips where
// an absent field decodes nil).
//
//minlint:hotpath
func (d *Decoder) rawBytes() []byte {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// intern returns a string for b, reusing a prior copy when the table
// holds one. The map lookup converts without copying; only a miss
// allocates, and the table is capped so hostile streams degrade to
// plain copies instead of growing the pooled decoder forever.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.strs == nil {
		d.strs = make(map[string]string, 16)
	}
	if len(d.strs) < internCap {
		d.strs[s] = s
	}
	return s
}

// growInts reslices s to n elements, reusing capacity; presence was
// already consumed true, so n == 0 must yield empty, not nil.
func growInts(s []int, n int) []int {
	if cap(s) < n || s == nil {
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n || s == nil {
		return make([]float64, n)
	}
	return s[:n]
}

func growStrs(s []string, n int) []string {
	if cap(s) < n || s == nil {
		return make([]string, n)
	}
	return s[:n]
}

// ints decodes a presence-led int slice into s's storage.
func (d *Decoder) intsInto(s []int) []int {
	if !d.presence() || d.err != nil {
		return nil
	}
	s = growInts(s, d.count())
	d.intLoop(s)
	return s
}

//minlint:hotpath
func (d *Decoder) intLoop(s []int) {
	for i := range s {
		s[i] = d.int()
	}
}

func (d *Decoder) floatsInto(s []float64) []float64 {
	if !d.presence() || d.err != nil {
		return nil
	}
	s = growFloats(s, d.count())
	d.floatLoop(s)
	return s
}

//minlint:hotpath
func (d *Decoder) floatLoop(s []float64) {
	for i := range s {
		s[i] = d.f64()
	}
}

func (d *Decoder) strsInto(s []string) []string {
	if !d.presence() || d.err != nil {
		return nil
	}
	s = growStrs(s, d.count())
	for i := range s {
		s[i] = d.str()
	}
	return s
}

func (d *Decoder) permsInto(s [][]int) [][]int {
	if !d.presence() || d.err != nil {
		return nil
	}
	n := d.count()
	if cap(s) < n || s == nil {
		s = make([][]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = d.intsInto(s[i])
	}
	return s
}

// --- pooled entry points --------------------------------------------

var encPool = sync.Pool{New: func() any { return new(Encoder) }}
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// Encode renders one wire shape (a pointer or value of the shapes in
// this package, or *jobs.Spec / *jobs.Result) as a standalone frame,
// using a pooled encoder under the hood. The returned slice is owned
// by the caller.
func Encode(v any) ([]byte, error) {
	e := encPool.Get().(*Encoder)
	e.Reset()
	if err := e.encodeAny(v); err != nil {
		encPool.Put(e)
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	encPool.Put(e)
	return out, nil
}

// Decode parses one standalone frame into v (a pointer to a wire
// shape), using a pooled decoder whose intern table persists across
// calls. Torn, truncated, or trailing-garbage frames are rejected.
// Byte fields of the decoded value alias data.
func Decode(data []byte, v any) error {
	d := decPool.Get().(*Decoder)
	d.Reset(data)
	err := d.decodeAny(v)
	decPool.Put(d)
	return err
}

func (e *Encoder) encodeAny(v any) error {
	switch v := v.(type) {
	case *CheckRequest:
		e.CheckRequest(v)
	case CheckRequest:
		e.CheckRequest(&v)
	case *CheckResponse:
		e.CheckResponse(v)
	case CheckResponse:
		e.CheckResponse(&v)
	case *RouteRequest:
		e.RouteRequest(v)
	case RouteRequest:
		e.RouteRequest(&v)
	case *RouteResponse:
		e.RouteResponse(v)
	case RouteResponse:
		e.RouteResponse(&v)
	case *SimulateRequest:
		e.SimulateRequest(v)
	case SimulateRequest:
		e.SimulateRequest(&v)
	case *SimulateResponse:
		e.SimulateResponse(v)
	case SimulateResponse:
		e.SimulateResponse(&v)
	case *BatchRequest:
		e.BatchRequest(v)
	case BatchRequest:
		e.BatchRequest(&v)
	case *BatchResponse:
		e.BatchResponse(v)
	case BatchResponse:
		e.BatchResponse(&v)
	case *JobSpec:
		e.JobSpec(v)
	case JobSpec:
		e.JobSpec(&v)
	case *JobResult:
		e.JobResult(v)
	case JobResult:
		e.JobResult(&v)
	default:
		return fmt.Errorf("codec: cannot encode %T", v)
	}
	return nil
}

func (d *Decoder) decodeAny(v any) error {
	switch v := v.(type) {
	case *CheckRequest:
		return d.CheckRequest(v)
	case *CheckResponse:
		return d.CheckResponse(v)
	case *RouteRequest:
		return d.RouteRequest(v)
	case *RouteResponse:
		return d.RouteResponse(v)
	case *SimulateRequest:
		return d.SimulateRequest(v)
	case *SimulateResponse:
		return d.SimulateResponse(v)
	case *BatchRequest:
		return d.BatchRequest(v)
	case *BatchResponse:
		return d.BatchResponse(v)
	case *JobSpec:
		return d.JobSpec(v)
	case *JobResult:
		return d.JobResult(v)
	default:
		return fmt.Errorf("codec: cannot decode into %T", v)
	}
}
