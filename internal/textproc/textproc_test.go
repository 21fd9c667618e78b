package textproc

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dygraph"
	"repro/internal/tracegen"
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

	// The cases a flat short-word table could get wrong: the empty word,
	// whose packed bytes and length are all zero (is it an empty slot?),
	// a 7-byte word against its 8-byte extension (the two sides of the
	// short table's limit), two words with the same home slot, and
	// growth — each before and after a WordList round trip.
	in = NewInterner()
	if id, ok := in.Lookup(""); ok || id != 0 {
		t.Fatalf("Lookup(\"\") on a fresh table = %d/%v", id, ok)
	}
	if id := in.Intern(""); id != 1 {
		t.Fatalf("Intern(\"\") = %d, want 1", id)
	}
	seven, eight := in.Intern("abcdefg"), in.Intern("abcdefgh")
	if seven == eight || in.Word(seven) != "abcdefg" || in.Word(eight) != "abcdefgh" {
		t.Fatalf("7- and 8-byte words: ids %d %d, words %q %q", seven, eight, in.Word(seven), in.Word(eight))
	}
	if _, ok := in.Lookup("abcdefghi"); ok {
		t.Fatalf("a 9-byte extension was found")
	}

	// Two words whose first probe lands on the same slot.
	var pair []string
	homes := map[int]string{}
	for c1 := 'a'; c1 <= 'z' && pair == nil; c1++ {
		for c2 := 'a'; c2 <= 'z'; c2++ {
			w := "q" + string(c1) + string(c2)
			h := in.short.home(packShort(w))
			if prev, ok := homes[h]; ok {
				pair = []string{prev, w}
				break
			}
			homes[h] = w
		}
	}
	if pair == nil {
		t.Fatalf("no two words share a home slot")
	}
	p0, p1 := in.Intern(pair[0]), in.Intern(pair[1])
	if p0 == p1 || in.Intern(pair[0]) != p0 || in.Intern(pair[1]) != p1 {
		t.Fatalf("%q and %q (same home slot): ids %d %d", pair[0], pair[1], p0, p1)
	}

	want := map[string]dygraph.NodeID{"": 1, "abcdefg": seven, "abcdefgh": eight, pair[0]: p0, pair[1]: p1}
	check := func(in *Interner, when string) {
		t.Helper()
		for w, id := range want {
			if got, ok := in.Lookup(w); !ok || got != id {
				t.Fatalf("%s: Lookup(%q) = %d/%v, want %d", when, w, got, ok, id)
			}
			if in.Word(id) != w {
				t.Fatalf("%s: Word(%d) = %q, want %q", when, id, in.Word(id), w)
			}
		}
	}
	check(in, "before growth")

	slots, growths := len(in.short.slots), 0
	for i := 0; growths < 3; i++ {
		w := strconv.Itoa(i)
		want[w] = in.Intern(w)
		if n := len(in.short.slots); n != slots {
			slots, growths = n, growths+1
		}
	}
	check(in, "after three growths")
	check(FromWordList(in.WordList()), "after a WordList round trip")
}

// TestSymTableSeededHash: words searched out to share one home slot
// under a fixed multiplicative hash (the top bits of key·0x9e3779b97f4a7c15)
// would, in a table hashed that way, pile into a single probe cluster
// that every insert and every lookup landing in it walks to the end.
// Under the table's seeded hash they spread like any other words, so
// no probe is long.
func TestSymTableSeededHash(t *testing.T) {
	const n, homeBits = 2048, 12
	fixedHome := func(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - homeBits) }

	// Seven-byte [a-z0-9] words in counting order, keeping those whose
	// fixed home is the first word's: about one word in 2^homeBits.
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	digits := make([]int, maxShort)
	word := make([]byte, maxShort)
	var words []string
	var target uint64
	for len(words) < n {
		for i, d := range digits {
			word[i] = alphabet[d]
		}
		h := fixedHome(packShort(word))
		if words == nil {
			target = h
		}
		if h == target {
			words = append(words, string(word))
		}
		for i := range digits {
			if digits[i]++; digits[i] < len(alphabet) {
				break
			}
			digits[i] = 0
		}
	}

	in := NewInterner()
	for _, w := range words {
		in.Intern(w)
	}
	tab := &in.short
	if len(tab.slots) > 1<<homeBits {
		t.Fatalf("table has %d slots; the words share a fixed home only up to %d", len(tab.slots), 1<<homeBits)
	}
	for i, w := range words {
		if id, ok := in.Lookup(w); !ok || in.Word(id) != w || id != in.Intern(w) {
			t.Fatalf("word %d %q: Lookup = %d/%v", i, w, id, ok)
		}
	}

	// A key's displacement is how far past its home slot it sits: the
	// probes a lookup of it makes beyond the first. In one fixed-hash
	// cluster the mean would be about n/2 and the longest n−1.
	mask := len(tab.slots) - 1
	worst, total := 0, 0
	for i, sl := range tab.slots {
		if sl.key == 0 {
			continue
		}
		d := (i - tab.home(sl.key)) & mask
		total += d
		worst = max(worst, d)
	}
	if worst > 256 || total > 4*tab.n {
		t.Fatalf("%d keys in %d slots: longest displacement %d, mean %.1f", tab.n, len(tab.slots), worst, float64(total)/float64(tab.n))
	}
}

// TestInternerLongCollisions pins every long word's hash to one value,
// so the long table is a single probe cluster and only the arena check
// tells its words apart: words that share a prefix, words of one length
// that differ in their last byte, a long stop word and a long synonym
// key moving from the side map into the table when interned, and
// growths that move the cluster. IDs, Word, Lookup and WordList must
// stay a map model's.
func TestInternerLongCollisions(t *testing.T) {
	in := NewInterner()
	in.long.pin = 1<<63 | 1
	in.Alias("earthquakes", "earthquake")
	model := map[string]dygraph.NodeID{}
	words := []string{""}
	intern := func(w string) {
		t.Helper()
		id, ok := model[w]
		if !ok {
			id = dygraph.NodeID(len(words))
			model[w], words = id, append(words, w)
		}
		got := in.Intern(w)
		if len(words)%2 == 0 {
			got = in.InternBytes([]byte(w))
		}
		if got != id {
			t.Fatalf("Intern(%q) = %d, model %d", w, got, id)
		}
	}
	for i := 8; i <= 40; i++ {
		intern(strings.Repeat("x", i))
	}
	for c := 'a'; c <= 'z'; c++ {
		intern("collision" + string(c))
	}
	intern("themselves")
	intern("earthquakes")
	for i := 0; i < 1500; i++ {
		intern("collide-" + strconv.Itoa(i))
		if i%100 == 0 {
			intern(strings.Repeat("x", 8+i%33)) // an old word again
		}
	}
	if in.long.n != len(model) || len(in.side) != 4 {
		t.Fatalf("long table holds %d words, side map %d entries; want %d and the other 4 long stop words", in.long.n, len(in.side), len(model))
	}
	for _, sl := range in.long.slots {
		if sl.key != 0 && sl.key != in.long.pin {
			t.Fatalf("slot keyed %#x, not the pinned hash", sl.key)
		}
	}
	for w, id := range model {
		if got, ok := in.Lookup(w); !ok || got != id || in.Word(id) != w {
			t.Fatalf("Lookup(%q) = %d/%v, Word = %q; model %d", w, got, ok, in.Word(id), id)
		}
	}
	if s := resolve(in, "themselves"); !s.Stop() || s.ID != model["themselves"] {
		t.Fatalf("interned stop word: %+v", s)
	}
	if s := resolve(in, "earthquakes"); !s.IsAlias() || s.ID != model["earthquakes"] {
		t.Fatalf("interned synonym key: %+v", s)
	}
	if s := resolve(in, "yourselves"); !s.Stop() || s.ID != 0 {
		t.Fatalf("stop word nobody interned: %+v", s)
	}
	for _, w := range []string{"collide-1500", "collision", "collisionz!", strings.Repeat("x", 41), strings.Repeat("y", 20)} {
		if id, ok := in.Lookup(w); ok {
			t.Fatalf("Lookup(%q) found %d (%q)", w, id, in.Word(id))
		}
	}
	if got := in.WordList(); !slices.Equal(got, words[1:]) {
		t.Fatalf("WordList holds %d words, model %d, or in another order", len(got), len(words)-1)
	}
}

// TestInternerFootprint is the interner's memory guard: over the TW
// trace the spine benchmark runs (662,400 messages, 34.7k words) it
// holds at most 50 bytes per word, counted by capacity over the arena,
// the end offsets, both tables and the side maps (Footprint). A string
// header per word alone is 16 bytes and an allocation per word 8 more.
// The figure rises and falls with the tables' doublings (37.5 bytes at
// 200k messages, 52.1 at 100k just past one); this trace sits mid-way.
func TestInternerFootprint(t *testing.T) {
	t.Parallel()
	msgs, _ := tracegen.Generate(tracegen.TWConfig(3, 662400))
	in := NewInterner()
	var tk Tokenizer
	for _, m := range msgs {
		for _, tok := range tk.Tokenize(m.Text) {
			in.InternBytes(tok.Text)
		}
	}
	perWord := float64(in.Footprint()) / float64(in.Size())
	t.Logf("%d words, %d bytes: %.1f bytes per word", in.Size(), in.Footprint(), perWord)
	if perWord > 50 {
		t.Fatalf("the interner holds %.1f bytes per word, want at most 50", perWord)
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
