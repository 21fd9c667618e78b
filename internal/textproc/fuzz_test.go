package textproc

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/dygraph"
)

// FuzzTokenize asserts tokenizer invariants over arbitrary input: no
// panics, lower-cased output, no stop words, no empty or 1-rune tokens,
// no duplicates within a message — and that the symbol table agrees
// with the things it replaced: the stop list, the noun heuristic
// evaluated on the text, and a plain map from word to ID.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"",
		"Massive earthquake struck eastern Turkey",
		"#quake 5.9 @user https://x.co !!",
		"ünïcödé wörds ßtraße 日本語 テスト",
		"a b c d e f g h",
		strings.Repeat("loooong ", 100),
		"\x00\x01\x02 binary junk \xff",
		"RT @x: breaking NEWS!!!! (developing)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		toks := Tokenize(msg)
		seen := map[string]struct{}{}
		for _, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("empty token from %q", msg)
			}
			if len([]rune(tok.Text)) < 2 {
				t.Fatalf("1-rune token %q from %q", tok.Text, msg)
			}
			if IsStopWordBytes([]byte(tok.Text)) {
				t.Fatalf("stop word %q survived from %q", tok.Text, msg)
			}
			// Lower-casing must be a fixed point. (Some upper-case runes
			// such as U+03D2 have no lower-case mapping, so asserting
			// !IsUpper would be wrong.)
			if tok.Text != strings.ToLower(tok.Text) {
				t.Fatalf("token %q not lower-case fixed point from %q", tok.Text, msg)
			}
			if _, dup := seen[tok.Text]; dup {
				t.Fatalf("duplicate token %q from %q", tok.Text, msg)
			}
			seen[tok.Text] = struct{}{}
			// LikelyNoun must be total (no panics) on any token.
			_ = LikelyNoun(tok)
		}

		// Intern every other token, then tokenize again against the
		// table: same tokens, each carrying the table's entry, whose ID is
		// the model's and whose noun bit is the heuristic's.
		in := NewInterner()
		model := map[string]dygraph.NodeID{}
		for i, tok := range toks {
			if i%2 == 0 {
				model[tok.Text] = dygraph.NodeID(len(model) + 1)
				if id := in.InternBytes([]byte(tok.Text)); id != model[tok.Text] {
					t.Fatalf("InternBytes(%q) = %d, model %d", tok.Text, id, model[tok.Text])
				}
			}
		}
		tk := Tokenizer{Symbols: in}
		raw := tk.Tokenize(msg)
		if len(raw) != len(toks) {
			t.Fatalf("%d tokens against the table, %d without, from %q", len(raw), len(toks), msg)
		}
		for i, r := range raw {
			if got := (Token{Text: string(r.Text), Capitalized: r.Capitalized, Hashtag: r.Hashtag, Numeric: r.Numeric}); got != toks[i] {
				t.Fatalf("token %d against the table = %+v, want %+v, from %q", i, got, toks[i], msg)
			}
			if r.Sym.Stop() || r.Sym.IsAlias() || r.Sym.ID != model[toks[i].Text] {
				t.Fatalf("token %q: symbol %+v, model id %d", r.Text, r.Sym, model[toks[i].Text])
			}
			if id, ok := in.Lookup(toks[i].Text); id != r.Sym.ID || ok != (id != 0) {
				t.Fatalf("Lookup(%q) = %d/%v, symbol id %d", r.Text, id, ok, r.Sym.ID)
			}
			if LikelyNounRaw(r) != LikelyNoun(toks[i]) {
				t.Fatalf("token %q: noun bit of the symbol diverges from the heuristic", r.Text)
			}
		}
		if in.Size() != len(model) {
			t.Fatalf("interner holds %d words, model %d", in.Size(), len(model))
		}
	})
}

// FuzzInterner runs a schedule decoded from the input against the
// symbol table and a map[string]Symbol model of it: every Intern,
// InternBytes, Alias, Resolve, Lookup, Canonical and Word result must be
// the model's. Words are 0–12 bytes over a small alphabet, so they
// repeat and straddle the short table's 7-byte limit; a bulk step
// interns up to 2,041 generated words at once, so one input can force
// several table growths. The schedule ends with a WordList →
// FromWordList round trip, which must give every word its ID and
// symbol back (aliases are not part of a word list).
func FuzzInterner(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 4, 0, 1, 7, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 0, 8, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 3, 0, 6, 1})
	f.Add([]byte{2, 5, 'q', 'u', 'a', 'k', 'e', 3, 't', 'h', 'e', 5, 5, 'q', 'u', 'a', 'k', 'e', 0, 3, 't', 'h', 'e'})
	f.Add([]byte{0, 0, 7, 255, 7, 255, 4, 0, 0, 7, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 6, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewInterner()
		model := map[string]Symbol{}
		for _, w := range stopList {
			model[w] = modelSymbol(w, symStop)
		}
		canon := map[string]string{}
		words := []string{""}
		intern := func(w string) dygraph.NodeID {
			s := model[w]
			if s == (Symbol{}) {
				s = modelSymbol(w, 0)
			}
			if s.ID == 0 {
				s.ID = dygraph.NodeID(len(words))
				words = append(words, w)
			}
			model[w] = s
			return s.ID
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() string {
			w := make([]byte, next()%13)
			for i := range w {
				w[i] = "abcdefgh\x00\xff"[next()%10]
			}
			return string(w)
		}
		generated := 0
		for len(data) > 0 {
			switch op := next() % 8; op {
			case 0, 1:
				w := word()
				want := intern(w)
				var got dygraph.NodeID
				if op == 0 {
					got = in.Intern(w)
				} else {
					got = in.InternBytes([]byte(w))
				}
				if got != want {
					t.Fatalf("Intern(%q) = %d, model %d", w, got, want)
				}
			case 2:
				w, c := word(), word()
				in.Alias(w, c)
				s := model[w]
				if s == (Symbol{}) {
					s = modelSymbol(w, 0)
				}
				s.flags |= symAlias
				model[w], canon[w] = s, c
			case 3:
				if w := word(); in.Resolve([]byte(w)) != model[w] {
					t.Fatalf("Resolve(%q) = %+v, model %+v", w, in.Resolve([]byte(w)), model[w])
				}
			case 4:
				w := word()
				if id, ok := in.Lookup(w); id != model[w].ID || ok != (id != 0) {
					t.Fatalf("Lookup(%q) = %d/%v, model %d", w, id, ok, model[w].ID)
				}
			case 5:
				w := word()
				if c, s := in.Canonical([]byte(w)); c != canon[w] || s != model[canon[w]] {
					t.Fatalf("Canonical(%q) = %q %+v, model %q %+v", w, c, s, canon[w], model[canon[w]])
				}
			case 6:
				id := dygraph.NodeID(next())
				want := ""
				if int(id) < len(words) {
					want = words[id]
				}
				if got := in.Word(id); got != want {
					t.Fatalf("Word(%d) = %q, model %q", id, got, want)
				}
			case 7:
				// Distinct generated words: '_' padding, which the
				// base-36 digits never contain, to 1–12 bytes.
				for n := int(next())*8 + 1; n > 0; n-- {
					generated++
					digits := strconv.FormatUint(uint64(generated), 36)
					w := strings.Repeat("_", max(0, generated%12+1-len(digits))) + digits
					if got, want := in.InternBytes([]byte(w)), intern(w); got != want {
						t.Fatalf("InternBytes(%q) = %d, model %d", w, got, want)
					}
				}
			}
		}
		if in.Size() != len(words)-1 {
			t.Fatalf("Size = %d, model %d", in.Size(), len(words)-1)
		}
		for w, s := range model {
			if got := in.Resolve([]byte(w)); got != s {
				t.Fatalf("at the end, Resolve(%q) = %+v, model %+v", w, got, s)
			}
		}
		back := FromWordList(in.WordList())
		if back.Size() != in.Size() {
			t.Fatalf("round trip holds %d words, want %d", back.Size(), in.Size())
		}
		for id, w := range words[1:] {
			if got := back.Word(dygraph.NodeID(id + 1)); got != w {
				t.Fatalf("round trip: Word(%d) = %q, want %q", id+1, got, w)
			}
		}
		for w, s := range model {
			s.flags &^= symAlias
			if s.ID == 0 && s.flags&symStop == 0 {
				s = Symbol{} // only ever an alias: not in a word list
			}
			if got := back.Resolve([]byte(w)); got != s {
				t.Fatalf("round trip: Resolve(%q) = %+v, want %+v", w, got, s)
			}
			if id, ok := back.Lookup(w); id != s.ID || ok != (id != 0) {
				t.Fatalf("round trip: Lookup(%q) = %d/%v, want %d", w, id, ok, s.ID)
			}
		}
	})
}

// modelSymbol is the symbol the table first gives a word: known, with
// the noun shape of its text, plus flags.
func modelSymbol(w string, flags uint8) Symbol {
	s := Symbol{flags: symKnown | flags}
	if nounShape([]byte(w)) {
		s.flags |= symNoun
	}
	return s
}
