package server

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/plan wire format is decoded and encoded by hand: the request
// has exactly two keys and the response is one flat object, so reflection
// would cost more than the cache lookup it wraps. Every other endpoint
// keeps encoding/json.

// Body size limits, per route. An oversize body answers 413
// ErrBodyTooLarge.
const (
	// maxPlanBody bounds a /v1/plan request: a template name and at most
	// a few dozen selectivities.
	maxPlanBody = 64 << 10
	// maxAdminBody bounds the /v1/admin/stats and /v1/cluster/epoch
	// payloads, which carry column samples.
	maxAdminBody = 16 << 20
	// maxPooledBuf is the largest buffer returned to wireBufs, so one
	// large plan text cannot pin memory in the pool.
	maxPooledBuf = 64 << 10
)

// wireBufs holds the per-request buffers /v1/plan reads its body into and
// writes its response from.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func putWireBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		wireBufs.Put(b)
	}
}

// appendBody reads r to EOF, appending to dst.
func appendBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// svStack is how many selectivities decodePlanRequest parses without a
// growing slice; every suite template has at most 10.
const svStack = 16

// decodePlanRequest parses a PlanRequest body: exactly one JSON object
// with the keys "template" (a string) and "sVector" (an array of numbers,
// or null), each at most once, in any order, with RFC 8259 string and
// number grammar. Unknown keys, keys in another case, duplicate keys,
// invalid UTF-8, unpaired surrogate escapes, numbers outside float64 and
// trailing data are errors. A missing key leaves its zero value, as
// encoding/json does.
//
// tpl may alias body; sv never does.
func decodePlanRequest(body []byte) (tpl []byte, sv []float64, err error) {
	d := wireDecoder{b: body}
	var seenTpl, seenSV bool
	if !d.consume('{') {
		return nil, nil, d.fail("expected '{'")
	}
	if !d.consume('}') {
		for {
			key, err := d.str()
			if err != nil {
				return nil, nil, err
			}
			if !d.consume(':') {
				return nil, nil, d.fail("expected ':'")
			}
			switch {
			case string(key) == "template" && !seenTpl:
				seenTpl = true
				if tpl, err = d.str(); err != nil {
					return nil, nil, err
				}
			case string(key) == "sVector" && !seenSV:
				seenSV = true
				if sv, err = d.floats(); err != nil {
					return nil, nil, err
				}
			case string(key) == "template" || string(key) == "sVector":
				return nil, nil, fmt.Errorf("plan request: duplicate key %q", key)
			default:
				return nil, nil, fmt.Errorf("plan request: unknown key %q (want \"template\" and \"sVector\")", key)
			}
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return nil, nil, d.fail("expected ',' or '}'")
			}
		}
	}
	d.space()
	if d.i != len(d.b) {
		return nil, nil, d.fail("trailing data after the request object")
	}
	return tpl, sv, nil
}

// wireDecoder is a cursor over a request body.
type wireDecoder struct {
	b []byte
	i int
}

func (d *wireDecoder) fail(msg string) error {
	return fmt.Errorf("plan request: %s at offset %d", msg, d.i)
}

func (d *wireDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *wireDecoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str parses a string. Without escapes the result aliases the body.
func (d *wireDecoder) str() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.fail("expected a string")
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, n := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && n == 1 {
				return nil, d.fail("invalid UTF-8 in string")
			}
			d.i += n
		}
	}
	return nil, d.fail("unterminated string")
}

// unescape finishes a string that holds an escape at d.i, copying it out
// of the body.
func (d *wireDecoder) unescape(start int) ([]byte, error) {
	out := append(make([]byte, 0, d.i-start+16), d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return out, nil
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			d.i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && n == 1 {
				return nil, d.fail("invalid UTF-8 in string")
			}
			out = append(out, d.b[d.i:d.i+n]...)
			d.i += n
		default:
			if d.i+1 >= len(d.b) {
				return nil, d.fail("unterminated string")
			}
			esc := d.b[d.i+1]
			d.i += 2
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := d.hex4()
				if r < 0 {
					return nil, d.fail(`malformed \u escape`)
				}
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						d.i += 2
						r2 = d.hex4()
					}
					if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
						return nil, d.fail("unpaired surrogate escape")
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.fail("invalid escape")
			}
		}
	}
	return nil, d.fail("unterminated string")
}

// hex4 parses the four hex digits of a \u escape, or returns -1.
func (d *wireDecoder) hex4() rune {
	if d.i+4 > len(d.b) {
		return -1
	}
	var r rune
	for _, c := range d.b[d.i : d.i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	d.i += 4
	return r
}

// floats parses null or an array of numbers. The result is a fresh slice
// sized to the array; null gives nil.
func (d *wireDecoder) floats() ([]float64, error) {
	d.space()
	if d.i+4 <= len(d.b) && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.fail("sVector must be an array of numbers")
	}
	var stack [svStack]float64
	vals := stack[:0]
	if !d.consume(']') {
		for {
			f, err := d.number()
			if err != nil {
				return nil, err
			}
			vals = append(vals, f)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return nil, d.fail("expected ',' or ']'")
			}
		}
	}
	return append(make([]float64, 0, len(vals)), vals...), nil
}

// number parses one RFC 8259 number as encoding/json does for a float64.
func (d *wireDecoder) number() (float64, error) {
	d.space()
	b, start, i := d.b, d.i, d.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return 0, d.fail("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			d.i = i
			return 0, d.fail("expected a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			d.i = i
			return 0, d.fail("expected a digit in the exponent")
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, fmt.Errorf("plan request: number %s does not fit a float64", b[start:i])
	}
	d.i = i
	return f, nil
}

// appendPlanResponse appends r exactly as json.NewEncoder(w).Encode(r)
// writes it, trailing newline included. r.EstimatedCost must be finite:
// encoding/json refuses NaN and ±Inf, and the handler reports such a cost
// as unavailable instead.
func appendPlanResponse(b []byte, r *PlanResponse) []byte {
	b = append(b, `{"via":`...)
	b = appendJSONString(b, r.Via)
	b = append(b, `,"optimized":`...)
	b = strconv.AppendBool(b, r.Optimized)
	if r.Shared {
		b = append(b, `,"shared":true`...)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		b = append(b, `,"degradedReason":`...)
		b = appendJSONString(b, r.DegradedReason)
	}
	if r.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, r.Epoch, 10)
	}
	if r.NodeEpoch != 0 {
		b = append(b, `,"nodeEpoch":`...)
		b = strconv.AppendUint(b, r.NodeEpoch, 10)
	}
	b = append(b, `,"estimatedCost":`...)
	b = appendJSONFloat(b, r.EstimatedCost)
	if r.CostUnavailable {
		b = append(b, `,"costUnavailable":true`...)
	}
	b = append(b, `,"plan":`...)
	b = appendJSONString(b, r.Plan)
	b = append(b, `,"fingerprint":`...)
	b = appendJSONString(b, r.Fingerprint)
	b = append(b, `,"latencyMicros":`...)
	b = strconv.AppendInt(b, r.LatencyMicros, 10)
	return append(b, "}\n"...)
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation in 'f' form, or in 'e' form outside
// [1e-6, 1e21) with a one-digit negative exponent written without its
// leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the bytes encoding/json copies unescaped with HTML
// escaping on: printable ASCII except '"', '\\', '<', '>' and '&'. Bytes
// from 0x80 up start a multi-byte sequence and take the slow path.
var jsonSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json: HTML-sensitive characters and U+2028/U+2029 escaped as
// \u00XX and \u202X, invalid UTF-8 replaced by the escape \ufffd. Runs of
// bytes that need no escape are copied in one append.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		for i < len(s) && jsonSafe[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
