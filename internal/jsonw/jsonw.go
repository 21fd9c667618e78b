// Package jsonw writes JSON in one pass, without reflection, producing
// exactly the bytes encoding/json would: the string escaper and number
// formatting the WAL's batch encoder and the server's response writer
// share, and a Writer that lays typed values out in either of the two
// forms the server speaks — json.Marshal's compact form (SSE payloads)
// and json.Encoder's with SetIndent("", "  ") plus its trailing newline
// (HTTP bodies) — into a pooled buffer flushed to the destination as it
// fills. The differential tests and fuzz targets here and in
// internal/server hold the two encoders to the same bytes.
//
// The package imports nothing from the rest of the repo.
package jsonw

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json
// encodes it with the default HTML escaping: control characters,
// quote/backslash, '<', '>', '&', invalid UTF-8 (→ \ufffd) and the
// JS-hostile U+2028/U+2029 are escaped; everything else is copied.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes and <, >, & get \u00xx.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks ASCII bytes that need no escaping under encoding/json's
// default (HTML-escaping) encoder.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// AppendFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit exponent unpadded (1e-7, not 1e-07).
// NaN and ±Inf, which encoding/json refuses to encode at all, are
// written as null — valid JSON, and what a decoder into a float pointer
// reads back as "no value". Nothing the server computes is non-finite
// (ranks and overlaps are sums and ratios of finite counts).
func AppendFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// bufSize is the pooled buffer's capacity; a Writer with a destination
// hands its buffer over once flushAt bytes are pending, so a response
// of any size is encoded through the one buffer. The margin keeps the
// value written after a flush check (a keyword, a number) inside it.
const (
	bufSize = 64 << 10
	flushAt = bufSize - 4<<10
)

var pool = sync.Pool{New: func() any { return &Writer{buf: make([]byte, 0, bufSize)} }}

// Writer lays JSON values out in one pass. Containers are opened and
// closed explicitly and every member is announced with Key (objects) or
// Elem (arrays), which place the separators, line breaks and
// indentation; the value methods append the value itself. Misuse —
// a value without Key/Elem, unbalanced containers — yields malformed
// output, not a panic: the callers are hand-written encoders for fixed
// shapes, each held to encoding/json's bytes by a differential test.
//
// A Writer comes from Indented or Compact and must be finished with
// Close, after which it must not be used.
type Writer struct {
	dst    io.Writer // nil: everything accumulates for Bytes
	buf    []byte
	err    error // first dst.Write failure; later output is discarded
	indent bool
	depth  int
	// empty says the innermost open container has no member yet: its
	// first member takes no comma and, closed now, it is "{}" / "[]".
	empty bool
}

// Indented returns a Writer producing what json.Encoder writes after
// SetIndent("", "  "): two-space indentation and a newline after the
// value. dst receives the output as the buffer fills and at Close.
func Indented(dst io.Writer) *Writer { return acquire(dst, true) }

// Compact returns a Writer producing what json.Marshal returns. It has
// no destination: read the encoding with Bytes before Close.
func Compact() *Writer { return acquire(nil, false) }

func acquire(dst io.Writer, indent bool) *Writer {
	w := pool.Get().(*Writer)
	w.dst, w.indent = dst, indent
	return w
}

// Bytes returns a Compact Writer's output so far. The slice is valid
// until Close.
func (w *Writer) Bytes() []byte { return w.buf }

// Close ends the output (the trailing newline of the indented form),
// flushes it and recycles the Writer. It returns the first error the
// destination reported.
func (w *Writer) Close() error {
	if w.indent {
		w.buf = append(w.buf, '\n')
	}
	if w.dst != nil {
		w.flush()
	}
	err := w.err
	// A buffer one oversized value grew is left to the collector.
	if cap(w.buf) <= 2*bufSize {
		*w = Writer{buf: w.buf[:0]}
		pool.Put(w)
	}
	return err
}

func (w *Writer) flush() {
	if w.err == nil {
		_, w.err = w.dst.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// newlineIndent is a line break followed by eight levels of indentation;
// deeper nesting appends the remainder level by level.
const newlineIndent = "\n                "

func (w *Writer) newline() {
	if n := 1 + 2*w.depth; n <= len(newlineIndent) {
		w.buf = append(w.buf, newlineIndent[:n]...)
		return
	}
	w.buf = append(w.buf, newlineIndent...)
	for i := (len(newlineIndent) - 1) / 2; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// sep starts a member of the innermost container.
func (w *Writer) sep() {
	if w.dst != nil && len(w.buf) >= flushAt {
		w.flush()
	}
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	if w.indent {
		w.newline()
	}
}

func (w *Writer) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

func (w *Writer) close(c byte) {
	w.depth--
	if !w.empty && w.indent {
		w.newline()
	}
	w.empty = false
	w.buf = append(w.buf, c)
}

// BeginObject opens an object; EndObject closes it.
func (w *Writer) BeginObject() { w.open('{') }
func (w *Writer) EndObject()   { w.close('}') }

// BeginArray opens an array; EndArray closes it.
func (w *Writer) BeginArray() { w.open('[') }
func (w *Writer) EndArray()   { w.close(']') }

// Key starts an object member. name is written between quotes as is: it
// must be a literal that needs no escaping. The value follows on the
// returned Writer.
func (w *Writer) Key(name string) *Writer {
	w.sep()
	w.buf = append(w.buf, '"')
	w.buf = append(w.buf, name...)
	if w.indent {
		w.buf = append(w.buf, '"', ':', ' ')
	} else {
		w.buf = append(w.buf, '"', ':')
	}
	return w
}

// Lit is an object member key laid out in advance for objects at one
// nesting depth: the comma, line break, indentation and quoted name an
// Indented Writer's Key writes there for every member but the first.
type Lit struct {
	name, text string
	depth      int
}

// KeyLit lays name out as a member key of objects at depth, counting
// the outermost value's members as depth 1. Like Key's, name must need
// no escaping.
func KeyLit(depth int, name string) Lit {
	return Lit{name: name, depth: depth, text: ",\n" + strings.Repeat("  ", depth) + `"` + name + `": `}
}

// Member is Key(l's name), appended as one literal when the Writer is
// Indented and its innermost object sits at l's depth and already holds
// a member; anywhere else it is Key itself, so the bytes never differ.
func (w *Writer) Member(l *Lit) *Writer {
	if !w.indent || w.empty || w.depth != l.depth {
		return w.Key(l.name)
	}
	if w.dst != nil && len(w.buf) >= flushAt {
		w.flush()
	}
	w.buf = append(w.buf, l.text...)
	return w
}

// Elem starts an array element; the value follows on the returned
// Writer.
func (w *Writer) Elem() *Writer {
	w.sep()
	return w
}

// String writes a string value.
func (w *Writer) String(s string) { w.buf = AppendString(w.buf, s) }

// Uint writes an unsigned integer value.
func (w *Writer) Uint(u uint64) { w.buf = strconv.AppendUint(w.buf, u, 10) }

// Int writes a signed integer value.
func (w *Writer) Int(i int) { w.buf = strconv.AppendInt(w.buf, int64(i), 10) }

// Float writes a float64 value (see AppendFloat).
func (w *Writer) Float(f float64) { w.buf = AppendFloat(w.buf, f) }

// Bool writes true or false.
func (w *Writer) Bool(b bool) { w.buf = strconv.AppendBool(w.buf, b) }

// Null writes null.
func (w *Writer) Null() { w.buf = append(w.buf, "null"...) }

// Strings writes a []string as encoding/json does: null when nil, else
// an array.
func (w *Writer) Strings(ss []string) {
	if ss == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, s := range ss {
		w.Elem().String(s)
	}
	w.EndArray()
}

// Floats writes a []float64: null when nil, else an array.
func (w *Writer) Floats(fs []float64) {
	if fs == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, f := range fs {
		w.Elem().Float(f)
	}
	w.EndArray()
}

// Uints writes a []uint64: null when nil, else an array.
func (w *Writer) Uints(us []uint64) {
	if us == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for _, u := range us {
		w.Elem().Uint(u)
	}
	w.EndArray()
}
