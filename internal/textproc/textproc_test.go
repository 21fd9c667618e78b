package textproc

import (
	"strings"
	"testing"

	"repro/internal/dygraph"
)

// Token is a RawToken copied out of the Tokenizer's scratch, so a test
// can hold several messages' tokens at once.
type Token struct {
	Text        string
	Capitalized bool
	Hashtag     bool
	Numeric     bool
}

func (t Token) raw() RawToken {
	return RawToken{Text: []byte(t.Text), Capitalized: t.Capitalized, Hashtag: t.Hashtag, Numeric: t.Numeric}
}

// Tokenize runs msg through a fresh zero-value Tokenizer.
func Tokenize(msg string) []Token {
	var tk Tokenizer
	raw := tk.Tokenize(msg)
	out := make([]Token, len(raw))
	for i, t := range raw {
		out[i] = Token{Text: string(t.Text), Capitalized: t.Capitalized, Hashtag: t.Hashtag, Numeric: t.Numeric}
	}
	return out
}

func texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// LikelyNoun is LikelyNounRaw on a token without a symbol: the heuristic
// itself, lexicon and suffix rules evaluated on the spot.
func LikelyNoun(t Token) bool { return LikelyNounRaw(t.raw()) }

// HasNoun is the cluster-level precision filter of Section 7.2.2: any
// token a likely noun.
func HasNoun(tokens []Token) bool {
	for _, t := range tokens {
		if LikelyNoun(t) {
			return true
		}
	}
	return false
}

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("Earthquake struck eastern Turkey")
	got := texts(toks)
	want := []string{"earthquake", "struck", "eastern", "turkey"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", got, want)
	}
	if !toks[0].Capitalized || toks[1].Capitalized {
		t.Fatalf("capitalization flags wrong: %+v", toks)
	}
}

func TestTokenizeDropsStopWords(t *testing.T) {
	got := texts(Tokenize("the quick and the dead"))
	want := []string{"quick", "dead"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeDropsURLsAndMentions(t *testing.T) {
	got := texts(Tokenize("@friend check https://example.com/x www.foo.bar breaking story"))
	want := []string{"check", "breaking", "story"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeHashtag(t *testing.T) {
	toks := Tokenize("#earthquake hits city")
	if toks[0].Text != "earthquake" || !toks[0].Hashtag {
		t.Fatalf("hashtag handling wrong: %+v", toks[0])
	}
}

func TestTokenizeDecimalNumber(t *testing.T) {
	toks := Tokenize("magnitude 5.9 quake")
	found := false
	for _, tok := range toks {
		if tok.Text == "5.9" {
			found = true
			if !tok.Numeric {
				t.Fatalf("5.9 not flagged numeric")
			}
		}
	}
	if !found {
		t.Fatalf("decimal token lost: %v", texts(toks))
	}
}

func TestTokenizePunctuationTrim(t *testing.T) {
	got := texts(Tokenize("breaking: earthquake!!! (turkey)"))
	want := []string{"breaking", "earthquake", "turkey"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeInteriorApostrophe(t *testing.T) {
	got := texts(Tokenize("Rick's house"))
	if got[0] != "ricks" || got[1] != "house" {
		t.Fatalf("got %v", got)
	}
}

func TestTokenizeDedupes(t *testing.T) {
	got := texts(Tokenize("fire fire fire downtown"))
	if len(got) != 2 {
		t.Fatalf("duplicates kept: %v", got)
	}
}

func TestTokenizeEmptyAndJunk(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Fatalf("empty message produced tokens: %v", got)
	}
	if got := Tokenize("!!! ??? ..."); len(got) != 0 {
		t.Fatalf("punctuation-only produced tokens: %v", got)
	}
	if got := Tokenize("a I"); len(got) != 0 {
		t.Fatalf("single chars / stop words survived: %v", got)
	}
}

func TestKeywords(t *testing.T) {
	got := texts(Tokenize("Tornado pounds MidWest"))
	if len(got) != 3 || got[0] != "tornado" {
		t.Fatalf("got %v", got)
	}
}

func TestIsStopWord(t *testing.T) {
	in := NewInterner()
	for _, w := range []string{"the", "and", "rt", "youre"} {
		if !IsStopWordBytes([]byte(w)) || !resolve(in, w).Stop() {
			t.Errorf("%q should be a stop word", w)
		}
	}
	for _, w := range []string{"earthquake", "turkey"} {
		if IsStopWordBytes([]byte(w)) || resolve(in, w).Stop() {
			t.Errorf("%q should not be a stop word", w)
		}
	}
	if len(stopList) < 150 || len(stopWords) != len(stopList) {
		t.Fatalf("stop word list suspiciously small or repetitive: %d listed, %d distinct", len(stopList), len(stopWords))
	}
	// The table holds the stop list from the start, but a stop word is
	// not vocabulary until something interns it (a synonym's canonical
	// form may be one).
	if _, ok := in.Lookup("the"); ok || in.Size() != 0 {
		t.Fatalf("pre-entered stop words count as interned: size %d", in.Size())
	}
	id := in.Intern("the")
	if got, ok := in.Lookup("the"); !ok || got != id || id != 1 || in.Size() != 1 || in.Word(id) != "the" {
		t.Fatalf("interned stop word: id %d, lookup %d/%v, size %d", id, got, ok, in.Size())
	}
	if !resolve(in, "the").Stop() {
		t.Fatalf("interning a stop word cleared its stop bit")
	}
}

func TestLikelyNoun(t *testing.T) {
	cases := []struct {
		tok  Token
		want bool
	}{
		{Token{Text: "turkey", Capitalized: true}, true},
		{Token{Text: "earthquake"}, true},          // quake suffix
		{Token{Text: "election"}, true},            // tion suffix
		{Token{Text: "5.9", Numeric: true}, false}, // numbers are not nouns
		{Token{Text: "quickly"}, false},            // ly suffix
		{Token{Text: "running"}, false},            // ing suffix
		{Token{Text: "struck"}, false},             // verb lexicon
		{Token{Text: "massive"}, false},            // adjective lexicon
		{Token{Text: "jobs", Hashtag: true}, true}, // hashtags behave like topics
		{Token{Text: "senator"}, true},             // default noun
	}
	in := NewInterner()
	for _, tc := range cases {
		if got := LikelyNoun(tc.tok); got != tc.want {
			t.Errorf("LikelyNoun(%q) = %v, want %v", tc.tok.Text, got, tc.want)
		}
		// The same answer read off the word's table entry.
		in.Intern(tc.tok.Text)
		raw := tc.tok.raw()
		raw.Sym = resolve(in, tc.tok.Text)
		if got := LikelyNounRaw(raw); got != tc.want {
			t.Errorf("LikelyNounRaw(%q) by symbol = %v, want %v", tc.tok.Text, got, tc.want)
		}
	}
}

func TestHasNoun(t *testing.T) {
	if !HasNoun(Tokenize("earthquake struck")) {
		t.Fatalf("earthquake cluster must pass the noun filter")
	}
	if HasNoun([]Token{{Text: "quickly"}, {Text: "running"}}) {
		t.Fatalf("all-non-noun set passed the filter")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Fatalf("distinct words share an ID")
	}
	if a2 := in.Intern("alpha"); a2 != a {
		t.Fatalf("re-intern changed ID")
	}
	if in.Word(a) != "alpha" || in.Word(9999) != "" {
		t.Fatalf("Word lookup wrong")
	}
	if id, ok := in.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup wrong")
	}
	if _, ok := in.Lookup("gamma"); ok {
		t.Fatalf("Lookup invented a word")
	}
	if in.Size() != 2 {
		t.Fatalf("Size = %d", in.Size())
	}
	ws := in.Words([]dygraph.NodeID{b, a})
	if len(ws) != 2 || ws[0] != "beta" || ws[1] != "alpha" {
		t.Fatalf("Words = %v", ws)
	}
	if got := FromWordList(in.WordList()); got.Size() != 2 || got.Word(a) != "alpha" || got.Word(b) != "beta" {
		t.Fatalf("WordList round trip: %v", got.WordList())
	}
}

// TestInternerAliases: a synonym key is entered without an ID, resolves
// to its canonical word by one more probe, and can still be interned in
// its own right (it may be another synonym's canonical form).
func TestInternerAliases(t *testing.T) {
	in := NewInterner()
	in.Alias("quake", "earthquake")
	in.Alias("tremor", "quake")
	in.Alias("beta", "the") // canonical form is a stop word
	if in.Size() != 0 {
		t.Fatalf("aliases count as interned: %d", in.Size())
	}
	s := resolve(in, "quake")
	if !s.IsAlias() || s.ID != 0 || s.Stop() {
		t.Fatalf("quake: %+v", s)
	}
	canon, cs := in.Canonical([]byte("quake"))
	if canon != "earthquake" || cs != (Symbol{}) {
		t.Fatalf("quake resolves to %q %+v, want an unknown earthquake", canon, cs)
	}
	id := in.Intern("earthquake")
	if _, cs = in.Canonical([]byte("quake")); cs.ID != id || cs.IsAlias() {
		t.Fatalf("canonical symbol after interning: %+v, want id %d", cs, id)
	}
	// No chaining: tremor reads as quake, which then is a word of its own
	// and stays an alias for tokens spelled "quake".
	canon, _ = in.Canonical([]byte("tremor"))
	qid := in.Intern(canon)
	if s = resolve(in, "quake"); s.ID != qid || !s.IsAlias() || in.Word(qid) != "quake" {
		t.Fatalf("quake after being interned: %+v", s)
	}
	if canon, cs = in.Canonical([]byte("beta")); canon != "the" || !cs.Stop() || cs.ID != 0 {
		t.Fatalf("beta resolves to %q %+v", canon, cs)
	}
}

// TestTokenizerMatchesTokenize pins the symbol-resolving tokenizer to
// the zero-value one: bound to a table that already holds part of the
// vocabulary (so duplicates are found by ID for some words and by bytes
// for the rest) it must cut the same tokens, and each token's symbol
// must be the table's entry for its text.
func TestTokenizerMatchesTokenize(t *testing.T) {
	msgs := []string{
		"Massive 5.9 earthquake struck eastern Turkey #quake http://x.co @user",
		"ünïcödé Wörds ßtraße 日本語 テスト!!",
		"rick's earthquake,struck (parenthetical) #tags #tags dup dup Dup EARTHQUAKE",
		"the THE The quake Quake tremor", "", "   ", "a b c",
	}
	in := NewInterner()
	in.Alias("quake", "earthquake")
	for _, w := range []string{"earthquake", "wörds", "tags", "turkey"} {
		in.Intern(w)
	}
	tk := Tokenizer{Symbols: in}
	for _, msg := range msgs {
		want := Tokenize(msg)
		raw := tk.Tokenize(msg)
		if len(raw) != len(want) {
			t.Fatalf("%q: %d raw tokens, want %d", msg, len(raw), len(want))
		}
		for i, r := range raw {
			got := Token{Text: string(r.Text), Capitalized: r.Capitalized, Hashtag: r.Hashtag, Numeric: r.Numeric}
			if got != want[i] {
				t.Fatalf("%q token %d = %+v, want %+v", msg, i, got, want[i])
			}
			if r.Sym != resolve(in, got.Text) {
				t.Fatalf("%q token %d: symbol %+v, table says %+v", msg, i, r.Sym, resolve(in, got.Text))
			}
			if id, ok := in.Lookup(got.Text); r.Sym.ID != id || ok != (id != 0) {
				t.Fatalf("%q token %d: symbol id %d, Lookup %d/%v", msg, i, r.Sym.ID, id, ok)
			}
			if LikelyNounRaw(r) != LikelyNoun(want[i]) {
				t.Fatalf("%q token %d: LikelyNounRaw by symbol diverges from the heuristic", msg, i)
			}
		}
	}
}

// TestTokenizeSteadyStateAllocs pins the ingest pipeline's zero-alloc
// claim: once the vocabulary is interned, tokenizing a message and
// interning every token allocates nothing.
func TestTokenizeSteadyStateAllocs(t *testing.T) {
	msgs := []string{
		"Massive 5.9 earthquake struck eastern Turkey #quake",
		"flood river rising rapidly tonight",
		"storm warning coast evacuation ordered",
	}
	var tk Tokenizer
	in := NewInterner()
	for _, msg := range msgs { // warm: intern the vocabulary, size buffers
		for _, tok := range tk.Tokenize(msg) {
			in.InternBytes(tok.Text)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, msg := range msgs {
			for _, tok := range tk.Tokenize(msg) {
				if !LikelyNounRaw(tok) && IsStopWordBytes(tok.Text) {
					t.Fatal("unreachable; defeats dead-code elimination")
				}
				in.InternBytes(tok.Text)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state tokenize+intern allocates %.1f times per message set, want 0", allocs)
	}
}
