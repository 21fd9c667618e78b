package textproc

import (
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
