package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sync"
)

// The JSON request decoder. encoding/json binds every value by
// reflection, and on a wiring sent as explicit permutations that is
// nearly all of the work: a 10-stage linkPerms body is ~36 KB of small
// integers. DecodeJSON therefore reads the permutation members of a
// check, route or simulate request itself and leaves every other member
// to the strict json.Decoder, which is also the whole decoder for the
// other shapes.
//
// The lifting rule: a top-level member is lifted when encoding/json
// would bind it to NetworkSpec.LinkPerms or IndexPerms — its unescaped
// key equals the field name under bytes.EqualFold — and of several
// such members the last one wins, as it does in encoding/json. A
// member is lifted only from a body that is valid JSON up to the end of
// its top-level object and whose permutation values are null or arrays
// whose rows are null or arrays of integers that strconv.ParseInt
// accepts and int holds. Any other body goes to json.Decoder whole and
// unchanged, so a malformed body fails with the same message it always
// did: lifting changes the cost of a decode, never its outcome.

// errTrailingData rejects a body with a second value after the first.
var errTrailingData = errors.New("trailing data")

// DecodeJSON decodes a JSON request body into v strictly: unknown
// fields are rejected, and so is anything but whitespace after the
// value (json.Decoder.More's rule, which also lets a stray closing
// bracket through). For a *CheckRequest, *RouteRequest or
// *SimulateRequest, the permutation members are lifted as described
// above; the result is the one json.Decoder alone would give.
func DecodeJSON(data []byte, v any) error {
	spec := liftTarget(v)
	if spec == nil {
		return decodeStrict(data, v)
	}
	l := lifterPool.Get().(*permLifter)
	defer l.release()
	if !l.lift(data) || !l.hasLink && !l.hasIndex {
		return decodeStrict(data, v)
	}
	if err := decodeStrict(l.rest, v); err != nil {
		return err
	}
	if l.hasLink {
		spec.LinkPerms = l.link
	}
	if l.hasIndex {
		spec.IndexPerms = l.index
	}
	return nil
}

// decodeStrict is the json.Decoder every body ends in.
func decodeStrict(data []byte, v any) error {
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

// liftTarget returns the NetworkSpec that v's permutation members bind
// to, or nil for a shape that has none.
func liftTarget(v any) *NetworkSpec {
	switch r := v.(type) {
	case *CheckRequest:
		return &r.NetworkSpec
	case *RouteRequest:
		return &r.NetworkSpec
	case *SimulateRequest:
		return &r.NetworkSpec
	}
	return nil
}

// maxSkipDepth bounds the nesting the walker follows inside a member it
// does not lift; a deeper body goes to json.Decoder unchanged.
const maxSkipDepth = 1000

// permLifter is one walk over a request body. Its buffers are pooled,
// so the walk itself allocates only the lifted matrices.
type permLifter struct {
	ints []int // entries of the matrix being read
	rows []int // per row: its end in ints, or -1 for a null row
	rest []byte

	link, index       [][]int
	hasLink, hasIndex bool
}

var lifterPool = sync.Pool{New: func() any { return new(permLifter) }}

// release drops the lifted matrices and returns l to the pool.
func (l *permLifter) release() {
	l.link, l.index = nil, nil
	lifterPool.Put(l)
}

// lift walks data's top-level object, parsing the permutation members
// into l.link and l.index and copying every other member verbatim into
// l.rest, followed by whatever trails the object. It reports false
// when data is not an object that is valid JSON to its closing brace,
// or a permutation value is not one lift reads.
func (l *permLifter) lift(data []byte) bool {
	l.rest = append(l.rest[:0], '{')
	l.hasLink, l.hasIndex = false, false
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			start := i
			var ok bool
			if i, ok = skipString(data, i); !ok {
				return false
			}
			key := data[start:i]
			if i = skipSpace(data, i); i == len(data) || data[i] != ':' {
				return false
			}
			i = skipSpace(data, i+1)
			switch {
			case keyBinds(key, "linkPerms"):
				l.link, i, ok = l.matrix(data, i)
				l.hasLink = true
			case keyBinds(key, "indexPerms"):
				l.index, i, ok = l.matrix(data, i)
				l.hasIndex = true
			default:
				if i, ok = skipValue(data, i, 0); ok {
					if len(l.rest) > 1 {
						l.rest = append(l.rest, ',')
					}
					l.rest = append(l.rest, data[start:i]...)
				}
			}
			if !ok {
				return false
			}
			if i = skipSpace(data, i); i == len(data) {
				return false
			}
			if data[i] == '}' {
				i++
				break
			}
			if data[i] != ',' {
				return false
			}
			i = skipSpace(data, i+1)
		}
	}
	l.rest = append(l.rest, '}')
	l.rest = append(l.rest, data[i:]...)
	return true
}

// keyBinds reports whether the quoted key binds to the field named
// name in encoding/json: its unescaped text equals name under
// bytes.EqualFold, which is encoding/json's own case-insensitive rule.
func keyBinds(quoted []byte, name string) bool {
	raw := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(raw, '\\') >= 0 {
		var s string
		if json.Unmarshal(quoted, &s) != nil {
			return false
		}
		raw = []byte(s)
	}
	return bytes.EqualFold(raw, []byte(name))
}

// matrix parses the permutation value at data[i:] into a fresh [][]int
// whose rows share one backing array, each at exact capacity; a null
// value is a nil matrix and a null row a nil row, as in encoding/json.
func (l *permLifter) matrix(data []byte, i int) ([][]int, int, bool) {
	if hasLiteral(data, i, "null") {
		return nil, i + len("null"), true
	}
	i, ok := l.scanRows(data, i)
	if !ok {
		return nil, i, false
	}
	flat := make([]int, len(l.ints))
	copy(flat, l.ints)
	m := make([][]int, len(l.rows))
	start := 0
	for r, end := range l.rows {
		if end >= 0 {
			m[r] = flat[start:end:end]
			start = end
		}
	}
	return m, i, true
}

// scanRows reads an array of rows at data[i:] into l.ints and l.rows.
//
//minlint:hotpath
func (l *permLifter) scanRows(data []byte, i int) (int, bool) {
	l.ints, l.rows = l.ints[:0], l.rows[:0]
	if i == len(data) || data[i] != '[' {
		return i, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	for {
		switch {
		case hasLiteral(data, i, "null"):
			l.rows = append(l.rows, -1)
			i += len("null")
		case i < len(data) && data[i] == '[':
			if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
				i++
			} else {
				for {
					var n int
					var ok bool
					if n, i, ok = parseInt(data, i); !ok {
						return i, false
					}
					l.ints = append(l.ints, n)
					if i = skipSpace(data, i); i == len(data) {
						return i, false
					}
					if data[i] == ']' {
						i++
						break
					}
					if data[i] != ',' {
						return i, false
					}
					i = skipSpace(data, i+1)
				}
			}
			l.rows = append(l.rows, len(l.ints))
		default:
			return i, false
		}
		if i = skipSpace(data, i); i == len(data) {
			return i, false
		}
		if data[i] == ']' {
			return i + 1, true
		}
		if data[i] != ',' {
			return i, false
		}
		i = skipSpace(data, i+1)
	}
}

// parseInt reads the JSON number at data[i:] as strconv.ParseInt(s,
// 10, 64) would into an int: an optional minus and digits with no
// leading zero. A fraction, an exponent, a leading zero or a value
// outside int's range reports false (encoding/json fails such a number
// with its own error, or its scanner rejects it).
//
//minlint:hotpath
func parseInt(data []byte, i int) (int, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data); i++ {
		d := data[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	// Up to 19 digits cannot wrap a uint64, so u is exact there.
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && data[start] == '0' || u > limit {
		return 0, i, false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, i, false
	}
	n := int(u) // 1<<63 wraps to math.MinInt, which negates to itself
	if neg {
		n = -n
	}
	return n, i, true
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i, by JSON's definition of whitespace.
//
//minlint:hotpath
func skipSpace(data []byte, i int) int {
	for ; i < len(data); i++ {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return i
}

// hasLiteral reports whether data[i:] starts with lit.
func hasLiteral(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// skipValue returns the end of the valid JSON value at data[i:], or
// false if there is none. It accepts exactly what encoding/json's
// scanner accepts, bounded at maxSkipDepth of nesting.
func skipValue(data []byte, i, depth int) (int, bool) {
	if i == len(data) {
		return i, false
	}
	switch c := data[i]; {
	case c == '"':
		return skipString(data, i)
	case c == '{' || c == '[':
		if depth == maxSkipDepth {
			return i, false
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if i = skipSpace(data, i+1); i < len(data) && data[i] == closer {
			return i + 1, true
		}
		for {
			var ok bool
			if c == '{' {
				if i, ok = skipString(data, i); !ok {
					return i, false
				}
				if i = skipSpace(data, i); i == len(data) || data[i] != ':' {
					return i, false
				}
				i = skipSpace(data, i+1)
			}
			if i, ok = skipValue(data, i, depth+1); !ok {
				return i, false
			}
			if i = skipSpace(data, i); i == len(data) {
				return i, false
			}
			if data[i] == closer {
				return i + 1, true
			}
			if data[i] != ',' {
				return i, false
			}
			i = skipSpace(data, i+1)
		}
	case c == 't':
		return i + len("true"), hasLiteral(data, i, "true")
	case c == 'f':
		return i + len("false"), hasLiteral(data, i, "false")
	case c == 'n':
		return i + len("null"), hasLiteral(data, i, "null")
	default:
		return skipNumber(data, i)
	}
}

// skipString returns the end of the JSON string at data[i:]: a quote,
// then bytes that are not control characters, with valid escapes, up
// to the closing quote. Invalid UTF-8 passes, as in encoding/json.
func skipString(data []byte, i int) (int, bool) {
	if i == len(data) || data[i] != '"' {
		return i, false
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		case c == '\\':
			if i++; i == len(data) {
				return i, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i <= 4 {
					return i, false
				}
				for _, h := range data[i+1 : i+5] {
					if !isHex(h) {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipNumber returns the end of the JSON number at data[i:]:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func skipNumber(data []byte, i int) (int, bool) {
	digits := func(i int) (int, bool) {
		start := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i, i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		var ok bool
		if i, ok = digits(i); !ok {
			return i, false
		}
	}
	if i < len(data) && data[i] == '.' {
		var ok bool
		if i, ok = digits(i + 1); !ok {
			return i, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		var ok bool
		if i, ok = digits(i); !ok {
			return i, false
		}
	}
	return i, true
}
