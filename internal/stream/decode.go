package stream

import (
	"math"
	"strings"
	"unicode/utf8"
)

// This file is the ingest endpoint's reflection-free decoder. It accepts
// only the canonical wire shape of a message batch and reports everything
// else as "not canonical", so the caller can hand the same bytes to
// encoding/json: every reject decision and error text stays
// encoding/json's, and the only property this code owes (and the fuzz
// target checks) is that what it accepts, it decodes identically.
//
// Canonical means: the four keys spelled exactly "id", "user", "time",
// "text", each at most once, in any order, any of them absent; id and
// user plain unsigned decimal integers, time a plain signed one, text a
// string of valid UTF-8 whose \u escapes encode no lone surrogate; any
// JSON whitespace between tokens. Not canonical: other, repeated,
// escaped or case-variant keys, null, fractions and exponents, out-of-
// range integers, invalid UTF-8, and anything that is not valid JSON.

// minMessageBytes is the shortest encoding of a message with all four
// fields present; it bounds the pre-sized result so a body of braces
// cannot make the decoder allocate more than a small multiple of itself.
const minMessageBytes = len(`{"id":0,"user":0,"time":0,"text":""}`)

// ScanMessages decodes a JSON array of messages. The returned Texts are
// substrings of body (escape-free texts) or of one side string per call
// (escaped ones), so a batch costs a constant number of allocations. ok
// is false when body is not canonical; msgs is then meaningless.
func ScanMessages(body string) (msgs []Message, ok bool) {
	sc := scanner{s: body}
	sc.skipSpace()
	if !sc.eat('[') {
		return nil, false
	}
	sc.msgs = make([]Message, 0, min(strings.Count(body, "{"), len(body)/minMessageBytes+1))
	sc.skipSpace()
	if !sc.eat(']') {
		for {
			if !sc.object() {
				return nil, false
			}
			sc.skipSpace()
			if sc.eat(']') {
				break
			}
			if !sc.eat(',') {
				return nil, false
			}
			sc.skipSpace()
		}
	}
	sc.skipSpace()
	if sc.i != len(sc.s) {
		return nil, false
	}
	return sc.finish(), true
}

// ScanMessageLines decodes NDJSON — one message object per line — with
// JSONLReader's line rules: lines end at '\n', one trailing '\r' is
// dropped, empty lines are skipped. msgs is nil when there are none.
func ScanMessageLines(body string) (msgs []Message, ok bool) {
	var sc scanner
	for rest := body; len(rest) > 0; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(line) >= maxLineBytes {
			return nil, false
		}
		line = strings.TrimSuffix(line, "\r")
		if len(line) == 0 {
			continue
		}
		if sc.msgs == nil {
			sc.msgs = make([]Message, 0, min(strings.Count(rest, "\n")+2, len(body)/minMessageBytes+1))
		}
		sc.s, sc.i = line, 0
		sc.skipSpace()
		if !sc.object() {
			return nil, false
		}
		sc.skipSpace()
		if sc.i != len(sc.s) {
			return nil, false
		}
	}
	return sc.finish(), true
}

// scanner walks one string left to right. Escaped texts are unescaped
// into side and patched into their messages by finish, once side has
// stopped growing and can become a single string.
type scanner struct {
	s     string
	i     int
	msgs  []Message
	side  []byte
	fixes []textFix
}

// textFix says that msgs[msg].Text is side[off:end].
type textFix struct{ msg, off, end int }

func (sc *scanner) finish() []Message {
	if len(sc.fixes) > 0 {
		side := string(sc.side)
		for _, f := range sc.fixes {
			sc.msgs[f.msg].Text = side[f.off:f.end]
		}
	}
	return sc.msgs
}

func (sc *scanner) skipSpace() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (sc *scanner) eat(c byte) bool {
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// Field bits of the keys an object has already carried.
const (
	seenID = 1 << iota
	seenUser
	seenTime
	seenText
)

// object scans one message object and appends it to sc.msgs.
func (sc *scanner) object() bool {
	if !sc.eat('{') {
		return false
	}
	sc.msgs = append(sc.msgs, Message{})
	m := &sc.msgs[len(sc.msgs)-1]
	sc.skipSpace()
	if sc.eat('}') {
		return true
	}
	seen := 0
	for {
		var field int
		rest := sc.s[sc.i:]
		switch {
		case strings.HasPrefix(rest, `"id"`):
			field, sc.i = seenID, sc.i+len(`"id"`)
		case strings.HasPrefix(rest, `"user"`):
			field, sc.i = seenUser, sc.i+len(`"user"`)
		case strings.HasPrefix(rest, `"time"`):
			field, sc.i = seenTime, sc.i+len(`"time"`)
		case strings.HasPrefix(rest, `"text"`):
			field, sc.i = seenText, sc.i+len(`"text"`)
		default:
			return false
		}
		if seen&field != 0 {
			return false
		}
		seen |= field
		sc.skipSpace()
		if !sc.eat(':') {
			return false
		}
		sc.skipSpace()
		ok := false
		switch field {
		case seenID:
			m.ID, ok = sc.uint()
		case seenUser:
			m.User, ok = sc.uint()
		case seenTime:
			m.Time, ok = sc.int()
		case seenText:
			ok = sc.text(m)
		}
		if !ok {
			return false
		}
		// A number is only known to have ended here: a '.', an exponent
		// or a digit after a leading zero is neither ',' nor '}'.
		sc.skipSpace()
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
		sc.skipSpace()
	}
}

// uint scans a JSON integer without sign, fraction or exponent.
func (sc *scanner) uint() (uint64, bool) {
	if sc.eat('0') {
		return 0, true
	}
	start := sc.i
	var v uint64
	for sc.i < len(sc.s) {
		d := uint64(sc.s[sc.i] - '0')
		if d > 9 {
			break
		}
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
		sc.i++
	}
	return v, sc.i > start
}

// int scans a JSON integer with an optional minus sign.
func (sc *scanner) int() (int64, bool) {
	neg := sc.eat('-')
	mag, ok := sc.uint()
	switch {
	case !ok:
		return 0, false
	case neg && mag <= 1<<63:
		return -int64(mag), true
	case !neg && mag <= math.MaxInt64:
		return int64(mag), true
	}
	return 0, false
}

// text scans a JSON string into m.Text.
func (sc *scanner) text(m *Message) bool {
	if !sc.eat('"') {
		return false
	}
	s, start := sc.s, sc.i
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			m.Text = s[start:i]
			sc.i = i + 1
			return true
		case c == '\\':
			off := len(sc.side)
			sc.side = append(sc.side, s[start:i]...)
			sc.i = i
			if !sc.escapedTail() {
				return false
			}
			sc.fixes = append(sc.fixes, textFix{msg: len(sc.msgs) - 1, off: off, end: len(sc.side)})
			return true
		case c < ' ':
			return false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	return false
}

// escapedTail unescapes the rest of a string, from its first backslash
// up to and including the closing quote, onto sc.side.
func (sc *scanner) escapedTail() bool {
	s := sc.s
	for sc.i < len(s) {
		c := s[sc.i]
		switch {
		case c == '"':
			sc.i++
			return true
		case c == '\\':
			if sc.i+1 >= len(s) {
				return false
			}
			sc.i += 2
			switch s[sc.i-1] {
			case '"', '\\', '/':
				sc.side = append(sc.side, s[sc.i-1])
			case 'b':
				sc.side = append(sc.side, '\b')
			case 'f':
				sc.side = append(sc.side, '\f')
			case 'n':
				sc.side = append(sc.side, '\n')
			case 'r':
				sc.side = append(sc.side, '\r')
			case 't':
				sc.side = append(sc.side, '\t')
			case 'u':
				r, ok := sc.hex4()
				if !ok {
					return false
				}
				if utf8.ValidRune(r) {
					sc.side = utf8.AppendRune(sc.side, r)
					break
				}
				// A surrogate half: canonical only as a high half followed
				// by an escaped low half.
				if r >= 0xDC00 || !strings.HasPrefix(s[sc.i:], `\u`) {
					return false
				}
				sc.i += 2
				lo, ok := sc.hex4()
				if !ok || lo < 0xDC00 || lo > 0xDFFF {
					return false
				}
				sc.side = utf8.AppendRune(sc.side, 0x10000+(r-0xD800)<<10+(lo-0xDC00))
			default:
				return false
			}
		case c < ' ':
			return false
		case c < utf8.RuneSelf:
			sc.side = append(sc.side, c)
			sc.i++
		default:
			r, size := utf8.DecodeRuneInString(s[sc.i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			sc.side = append(sc.side, s[sc.i:sc.i+size]...)
			sc.i += size
		}
	}
	return false
}

// hex4 scans the four hex digits of a \u escape.
func (sc *scanner) hex4() (rune, bool) {
	if sc.i+4 > len(sc.s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(sc.s[sc.i : sc.i+4]) { // no copy: the compiler ranges over the string's bytes
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	sc.i += 4
	return r, true
}
