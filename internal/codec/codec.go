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
// A shape's layout is its walk: one function per shape (shapes.go)
// names each field once, in wire order, over a coder that carries the
// direction, so encoding and decoding cannot disagree on a layout.
// Only the element loops of the hot slices are written once per
// direction, inside their primitives.
//
// Performance contract: encoding appends to a pooled Encoder buffer
// and decoding reuses the destination struct's slices plus a bounded
// string intern table, so a loop that decodes into one reused
// destination is alloc-free — the per-element loops carry
// //minlint:hotpath and the hotalloc analyzer plus the CodecDecode pin
// of the root TestSteadyAllocs keep them that way. A server handler
// decodes into a fresh request, so there each slice (each permutation
// row) is one allocation. Integers of one or two varint bytes, which
// covers every link label up to 12 stages, are decoded inline on a
// local offset.
// Decoded strings are copies; decoded byte fields (batch sub-payloads)
// alias the input buffer and must be consumed before the caller
// recycles it.
package codec

import (
	"bytes"
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

// internCap bounds the decoder's string intern table so adversarial
// inputs cannot grow a pooled decoder without bound; past the cap
// strings simply allocate like JSON's would.
const internCap = 512

// --- coder ----------------------------------------------------------

// coder runs a shape's walk in one direction. Encoding appends to buf;
// decoding reads buf from off, and its first failure latches into err
// so a walk runs straight-line and the frame checks the error once at
// the end. Every primitive takes a pointer to the field: encoding reads
// it, decoding stores into it, reusing the storage already there.
type coder struct {
	dec bool
	buf []byte
	off int
	err error
	// interned holds decoded strings so a steady request stream stops
	// allocating for repeated names; bounded by internCap.
	interned map[string]string
}

// Encoder appends frames to an owned buffer. The zero value is ready;
// Reset between frames to reuse the buffer. Not safe for concurrent
// use.
type Encoder struct{ c coder }

// Reset truncates the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.c.buf = e.c.buf[:0] }

// Encode appends v (a pointer to a wire shape) as one frame.
func (e *Encoder) Encode(v any) error { return e.c.shape(v) }

// Decoder parses one frame per call, reusing the destination's storage
// and keeping its intern table across calls. Not safe for concurrent
// use.
type Decoder struct{ c coder }

// Decode parses the frame data into v (a pointer to a wire shape).
// Torn, truncated, or trailing-garbage frames are rejected. Byte
// fields of the decoded value alias data.
func (d *Decoder) Decode(data []byte, v any) error {
	d.c.dec, d.c.buf, d.c.off, d.c.err = true, data, 0, nil
	return d.c.shape(v)
}

// frame runs walk over v inside a frame of the given shape id. Encoding
// patches the payload length once the walk is done; decoding first
// requires the header's length to cover the remaining bytes exactly —
// a short buffer is a torn frame, extra bytes are trailing garbage —
// and after the walk that the payload was consumed exactly.
//
//minlint:hotpath
func frame[T any](c *coder, shape byte, v *T, walk func(*coder, *T)) error {
	if !c.dec {
		c.buf = append(c.buf, magic0, magic1, Version, shape, 0, 0, 0, 0)
		start := len(c.buf)
		walk(c, v)
		binary.LittleEndian.PutUint32(c.buf[start-4:start], uint32(len(c.buf)-start))
		return nil
	}
	if err := c.header(shape); err != nil {
		return err
	}
	walk(c, v)
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.buf) {
		return ErrTrailing
	}
	return nil
}

func (c *coder) header(shape byte) error {
	if len(c.buf) < headerLen {
		return ErrTruncated
	}
	if c.buf[0] != magic0 || c.buf[1] != magic1 {
		return ErrFrame
	}
	if c.buf[2] != Version {
		return fmt.Errorf("%w: version %d, want %d", ErrFrame, c.buf[2], Version)
	}
	if c.buf[3] != shape {
		return fmt.Errorf("%w: shape %d, want %d", ErrFrame, c.buf[3], shape)
	}
	n := binary.LittleEndian.Uint32(c.buf[4:8])
	switch rest := uint32(len(c.buf) - headerLen); {
	case n > rest:
		return ErrTruncated
	case n < rest:
		return ErrTrailing
	}
	c.off = headerLen
	return nil
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// --- scalar primitives ----------------------------------------------

//minlint:hotpath
func (c *coder) u64(p *uint64) {
	if c.dec {
		*p = c.getU64()
		return
	}
	c.putU64(*p)
}

//minlint:hotpath
func (c *coder) int(p *int) {
	if c.dec {
		*p = c.getInt()
		return
	}
	c.putInt(*p)
}

//minlint:hotpath
func (c *coder) i64(p *int64) {
	if c.dec {
		*p = unzigzag(c.getU64())
		return
	}
	c.putU64(zigzag(*p))
}

//minlint:hotpath
func (c *coder) f64(p *float64) {
	if c.dec {
		*p = c.getF64()
		return
	}
	c.putF64(*p)
}

// bool is one strict 0/1 byte; it also leads every nillable field as
// its presence byte (0 = nil, 1 = present).
//
//minlint:hotpath
func (c *coder) bool(p *bool) {
	if !c.dec {
		b := byte(0)
		if *p {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.off >= len(c.buf) {
		c.fail(ErrTruncated)
		*p = false
		return
	}
	b := c.buf[c.off]
	c.off++
	if b > 1 {
		c.fail(ErrValue)
	}
	*p = b == 1
}

//minlint:hotpath
func (c *coder) str(p *string) {
	if c.dec {
		*p = c.intern(c.raw())
		return
	}
	c.putU64(uint64(len(*p)))
	c.buf = append(c.buf, *p...)
}

// bytes is a length-prefixed byte field. A decoded one aliases the
// input buffer, and is nil when empty, matching json.RawMessage
// round-trips where an absent field decodes nil.
//
//minlint:hotpath
func (c *coder) bytes(p *[]byte) {
	if c.dec {
		*p = c.raw()
		return
	}
	c.putU64(uint64(len(*p)))
	c.buf = append(c.buf, *p...)
}

// count is a slice length. Decoding bounds it by the remaining payload
// (every element costs at least one byte), so corrupt input cannot
// demand a huge allocation.
//
//minlint:hotpath
func (c *coder) count(n *int) {
	if !c.dec {
		c.putU64(uint64(*n))
		return
	}
	v := c.getU64()
	if v > uint64(len(c.buf)-c.off) {
		c.fail(ErrTruncated)
		v = 0
	}
	*n = int(v)
}

//minlint:hotpath
func (c *coder) putU64(v uint64) {
	for v >= 0x80 {
		c.buf = append(c.buf, byte(v)|0x80)
		v >>= 7
	}
	c.buf = append(c.buf, byte(v))
}

//minlint:hotpath
func (c *coder) putInt(v int) { c.putU64(zigzag(int64(v))) }

// appendInt appends v as a zigzag varint. The hottest encode loops
// (ints, faults) append to a local copy of c.buf and store it back
// once, which keeps the slice header in registers between values
// instead of storing it through c after each one.
//
//minlint:hotpath
func appendInt(buf []byte, v int) []byte { return binary.AppendUvarint(buf, zigzag(int64(v))) }

//minlint:hotpath
func (c *coder) putF64(v float64) {
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(v))
}

//minlint:hotpath
func (c *coder) getU64() uint64 {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if c.off >= len(c.buf) {
			c.fail(ErrTruncated)
			return 0
		}
		b := c.buf[c.off]
		c.off++
		if shift == 63 && b > 1 {
			c.fail(ErrValue)
			return 0
		}
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
	c.fail(ErrValue)
	return 0
}

//minlint:hotpath
func (c *coder) getInt() int { return int(unzigzag(c.getU64())) }

//minlint:hotpath
func (c *coder) getF64() float64 {
	if c.off+8 > len(c.buf) {
		c.fail(ErrTruncated)
		return 0
	}
	bits := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return math.Float64frombits(bits)
}

// raw reads a length-prefixed byte field, aliasing the input buffer;
// nil when empty or on error.
//
//minlint:hotpath
func (c *coder) raw() []byte {
	var n int
	c.count(&n)
	if c.err != nil || n == 0 {
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// intern returns a string for b, reusing a prior copy when the table
// holds one. The map lookup converts without copying; only a miss
// allocates, and the table is capped so hostile streams degrade to
// plain copies instead of growing the pooled decoder forever.
func (c *coder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if c.interned == nil {
		c.interned = make(map[string]string, 16)
	}
	if len(c.interned) < internCap {
		c.interned[s] = s
	}
	return s
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// --- nillable fields ------------------------------------------------

// ptr walks a nillable pointer: its presence byte, then the pointee.
// Decoding reuses the pointee already there or allocates one.
func ptr[T any](c *coder, p **T, walk func(*coder, *T)) {
	present := *p != nil
	if c.bool(&present); !present || c.err != nil {
		if c.dec {
			*p = nil
		}
		return
	}
	if *p == nil {
		*p = new(T)
	}
	walk(c, *p)
}

// slice walks a nillable slice: its presence byte, its count, then the
// elements through loop. Decoding reslices the storage already there;
// presence was read true, so a count of 0 yields empty, not nil.
func slice[T any](c *coder, s *[]T, loop func(*coder, []T)) {
	present, n := *s != nil, len(*s)
	if c.bool(&present); !present || c.err != nil {
		if c.dec {
			*s = nil
		}
		return
	}
	if c.count(&n); c.dec {
		*s = grow(*s, n)
	}
	loop(c, *s)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n || s == nil {
		return make([]T, n)
	}
	return s[:n]
}

// --- slice primitives -----------------------------------------------
//
// The element loops of ints and floats here, and of a fault plan's
// faults, a report's windows and a path's hops in shapes.go, are
// written once per direction: a walk through the pointer primitives
// costs a call and a direction branch per field, which made a
// 128-fault simulate request about 2x slower to encode and 1.6x slower
// to decode. strs and perms walk their elements through str and ints.

//minlint:hotpath
func (c *coder) ints(s *[]int) { slice(c, s, (*coder).intLoop) }

// intLoop codes len(s) zigzag varints. Decoding works on a local
// offset: a value of one or two bytes (|v| < 8192, every link label up
// to 12 stages) is read inline; a longer or truncated one goes through
// the checked getU64, so every error and every offset stays what
// getInt would give.
//
//minlint:hotpath
func (c *coder) intLoop(s []int) {
	if !c.dec {
		buf := c.buf
		for _, v := range s {
			buf = appendInt(buf, v)
		}
		c.buf = buf
		return
	}
	buf, off := c.buf, c.off
	for i := range s {
		if off < len(buf) && buf[off] < 0x80 {
			s[i] = int(unzigzag(uint64(buf[off])))
			off++
			continue
		}
		if off+1 < len(buf) && buf[off+1] < 0x80 {
			s[i] = int(unzigzag(uint64(buf[off]&0x7F) | uint64(buf[off+1])<<7))
			off += 2
			continue
		}
		c.off = off
		s[i] = c.getInt()
		off = c.off
	}
	c.off = off
}

//minlint:hotpath
func (c *coder) floats(s *[]float64) { slice(c, s, (*coder).floatLoop) }

//minlint:hotpath
func (c *coder) floatLoop(s []float64) {
	if !c.dec {
		for _, v := range s {
			c.putF64(v)
		}
		return
	}
	for i := range s {
		s[i] = c.getF64()
	}
}

//minlint:hotpath
func (c *coder) strs(s *[]string) { slice(c, s, (*coder).strLoop) }

//minlint:hotpath
func (c *coder) strLoop(s []string) {
	for i := range s {
		c.str(&s[i])
	}
}

// perms is a nillable slice of nillable int rows.
//
//minlint:hotpath
func (c *coder) perms(s *[][]int) { slice(c, s, (*coder).permLoop) }

//minlint:hotpath
func (c *coder) permLoop(s [][]int) {
	for i := range s {
		c.ints(&s[i])
	}
}

// --- pooled entry points --------------------------------------------

var encPool = sync.Pool{New: func() any { return new(Encoder) }}
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// Encode renders one wire shape (a pointer to a shape of this package,
// or *jobs.Spec / *jobs.Result) as a standalone frame, using a pooled
// encoder under the hood. The returned slice is owned by the caller.
func Encode(v any) ([]byte, error) {
	e := encPool.Get().(*Encoder)
	e.Reset()
	err := e.Encode(v)
	var out []byte
	if err == nil {
		out = bytes.Clone(e.c.buf)
	}
	encPool.Put(e)
	return out, err
}

// Decode parses one standalone frame into v (a pointer to a wire
// shape), using a pooled decoder whose intern table persists across
// calls. Torn, truncated, or trailing-garbage frames are rejected.
// Byte fields of the decoded value alias data.
func Decode(data []byte, v any) error {
	d := decPool.Get().(*Decoder)
	err := d.Decode(data, v)
	decPool.Put(d)
	return err
}
