// Package textproc provides the light text-processing substrate the
// detector needs: tokenization of microblog messages into keywords, stop
// word removal (Section 3.1), a noun-likeness heuristic standing in for
// the Stanford POS tagger the paper uses as a precision filter
// (Section 7.2.2), and keyword interning to compact node IDs.
package textproc

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

// RawToken is a normalised keyword extracted from a message, along with
// the shape information the noun heuristic uses and what the symbol
// table knows of the word. Its text aliases the Tokenizer's internal
// scratch buffer: valid only until the Tokenizer's next call. The ingest
// hot path consumes RawTokens immediately (interning is the only
// retained copy), so tokenizing a message allocates nothing in steady
// state.
type RawToken struct {
	Text        []byte // lower-cased keyword; owned by the Tokenizer
	Capitalized bool   // first rune was upper case in the source
	Hashtag     bool   // token was written as #tag
	Numeric     bool   // token is a number such as "5.9"
	// Sym is the Tokenizer's table entry for Text at the time of the
	// call: Sym.ID is the keyword's ID when it has been interned already.
	Sym Symbol
}

// Tokenizer tokenizes messages into caller-visible RawTokens while
// reusing all of its internal storage across calls. Not safe for
// concurrent use.
type Tokenizer struct {
	// Symbols is the table every token is resolved against — one probe
	// answers the stop test, the per-message duplicate test (by ID) and
	// fills RawToken.Sym. Nil selects a private table holding only the
	// stop list, so the zero Tokenizer is usable.
	Symbols *Interner

	buf  []byte // lower-cased token bytes for the current message
	refs []rawRef
	toks []RawToken
}

type rawRef struct {
	off, end    int32
	sym         Symbol
	capitalized bool
	hashtag     bool
	numeric     bool
}

// Tokenize splits a raw message into keyword tokens:
//
//   - URLs and @mentions are dropped (they identify resources and users,
//     not event vocabulary);
//   - a leading '#' is stripped but remembered, since hashtags behave like
//     keywords in the CKG;
//   - everything is lower-cased; punctuation is trimmed; decimal numbers
//     like "5.9" survive as single tokens (the paper's earthquake example
//     depends on this);
//   - stop words and single-character fragments are removed;
//   - duplicate keywords within one message are collapsed (first
//     occurrence's shape flags win, as before).
//
// The returned slice and the token texts are owned by the Tokenizer and
// valid until its next call.
func (tk *Tokenizer) Tokenize(msg string) []RawToken {
	if tk.Symbols == nil {
		tk.Symbols = NewInterner()
	}
	tk.buf = tk.buf[:0]
	tk.refs = tk.refs[:0]
	// Fields: split around runs of white space (strings.Fields
	// semantics), without materialising the field slice. ASCII bytes —
	// the vast majority of microblog text — skip the rune decoder.
	for i := 0; i < len(msg); {
		if b := msg[i]; b < utf8.RuneSelf {
			if asciiSpace[b] {
				i++
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(msg[i:])
			if unicode.IsSpace(r) {
				i += size
				continue
			}
		}
		j := i
		for j < len(msg) {
			if b := msg[j]; b < utf8.RuneSelf {
				if asciiSpace[b] {
					break
				}
				j++
				continue
			}
			r, size := utf8.DecodeRuneInString(msg[j:])
			if unicode.IsSpace(r) {
				break
			}
			j += size
		}
		tk.field(msg[i:j])
		i = j
	}
	if cap(tk.toks) < len(tk.refs) {
		tk.toks = make([]RawToken, 0, len(tk.refs))
	}
	tk.toks = tk.toks[:len(tk.refs)]
	for i, rf := range tk.refs {
		tk.toks[i] = RawToken{
			Text:        tk.buf[rf.off:rf.end],
			Capitalized: rf.capitalized,
			Hashtag:     rf.hashtag,
			Numeric:     rf.numeric,
			Sym:         rf.sym,
		}
	}
	return tk.toks
}

// asciiSpace mirrors strings.Fields' ASCII white-space set.
var asciiSpace = [128]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// field processes one whitespace-delimited field of the message.
func (tk *Tokenizer) field(f string) {
	if isURL(f) || strings.HasPrefix(f, "@") {
		return
	}
	hashtag := false
	if strings.HasPrefix(f, "#") {
		hashtag = true
		f = f[1:]
	}
	ascii := true
	for i := 0; i < len(f); i++ {
		if f[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	var (
		capd    bool
		start   = int32(len(tk.buf))
		numeric bool
	)
	if ascii {
		// ASCII specialisation of the general path below: identical
		// semantics (unicode.IsLetter/IsDigit/IsUpper/ToLower restricted
		// to ASCII), none of the per-rune decoding.
		i, j := 0, len(f)
		for i < j && !isAlnumASCII(f[i]) {
			i++
		}
		for j > i && !isAlnumASCII(f[j-1]) {
			j--
		}
		f = f[i:j]
		if f == "" {
			return
		}
		capd = f[0] >= 'A' && f[0] <= 'Z'
		// Lowering is the identity on digits and '.', so numeric can be
		// decided before the lower+clean pass.
		numeric = isNumericASCII(f)
		if numeric {
			tk.buf = append(tk.buf, f...)
		} else {
			for i := 0; i < len(f); i++ {
				switch b := f[i]; {
				case b >= 'A' && b <= 'Z':
					tk.buf = append(tk.buf, b+'a'-'A')
				case b >= 'a' && b <= 'z' || b >= '0' && b <= '9':
					tk.buf = append(tk.buf, b)
				}
			}
		}
		if len(tk.buf)-int(start) < 2 {
			tk.buf = tk.buf[:start]
			return
		}
	} else {
		f = strings.TrimFunc(f, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r)
		})
		if f == "" {
			return
		}
		first, _ := firstRune(f)
		capd = unicode.IsUpper(first)
		// Lower-case into the scratch buffer (per-rune unicode.ToLower —
		// exactly what strings.ToLower does, without its allocation).
		for _, r := range f {
			tk.buf = utf8.AppendRune(tk.buf, unicode.ToLower(r))
		}
		lower := tk.buf[start:]
		numeric = isNumericBytes(lower)
		if !numeric {
			// Strip interior punctuation in place, keeping letters/digits
			// (splitting tokens like "earthquake,struck" conservatively).
			w := 0
			for r := 0; r < len(lower); {
				rn, size := utf8.DecodeRune(lower[r:])
				if unicode.IsLetter(rn) || unicode.IsDigit(rn) {
					w += copy(lower[w:], lower[r:r+size])
				}
				r += size
			}
			lower = lower[:w]
			tk.buf = tk.buf[:int(start)+w]
		}
		if utf8.RuneCount(lower) < 2 {
			tk.buf = tk.buf[:start]
			return
		}
	}
	lower := tk.buf[start:]
	sym := tk.Symbols.Resolve(lower)
	if sym.Stop() {
		tk.buf = tk.buf[:start]
		return
	}
	// Distinct words have distinct IDs; only words nobody has interned
	// yet (ID 0 on both sides) need their bytes compared.
	for i := range tk.refs {
		rf := &tk.refs[i]
		if rf.sym.ID == sym.ID && (sym.ID != 0 || bytes.Equal(tk.buf[rf.off:rf.end], lower)) {
			tk.buf = tk.buf[:start]
			return
		}
	}
	tk.refs = append(tk.refs, rawRef{
		off:         start,
		end:         int32(len(tk.buf)),
		sym:         sym,
		capitalized: capd,
		hashtag:     hashtag,
		numeric:     numeric,
	})
}

func isAlnumASCII(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// isNumericASCII matches isNumericBytes on ASCII input (lowering is the
// identity on its accepted alphabet).
func isNumericASCII(s string) bool {
	dot := false
	digits := 0
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case b >= '0' && b <= '9':
			digits++
		case b == '.' && !dot && digits > 0:
			dot = true
		default:
			return false
		}
	}
	return digits > 0
}

func firstRune(s string) (rune, int) {
	for i, r := range s {
		return r, i
	}
	return 0, 0
}

func isURL(s string) bool {
	return strings.HasPrefix(s, "http://") ||
		strings.HasPrefix(s, "https://") ||
		strings.HasPrefix(s, "www.")
}

// isNumericBytes reports whether s is a plain or decimal number
// ("5", "5.9").
func isNumericBytes(s []byte) bool {
	dot := false
	digits := 0
	for _, b := range s {
		switch {
		case b >= '0' && b <= '9':
			digits++
		case b == '.' && !dot && digits > 0:
			dot = true
		default:
			return false
		}
	}
	return digits > 0
}
