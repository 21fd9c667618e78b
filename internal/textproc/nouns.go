package textproc

// The paper filters discovered clusters with "at least one noun keyword"
// using the Stanford POS tagger (Section 7.2.2). A full tagger is outside
// stdlib scope, so LikelyNounRaw applies a conservative shape heuristic that
// plays the same role as that filter: it only has to separate
// content-bearing nouns from verbs/adjectives/adverbs well enough that
// real-event clusters (which contain proper nouns and concrete objects)
// pass and all-function-word clusters fail. DESIGN.md records this
// substitution.

// nounSuffixes are derivational suffixes that almost always mark English
// nouns.
var nounSuffixes = []string{
	"tion", "sion", "ment", "ness", "ance", "ence", "ship", "hood",
	"ism", "ist", "dom", "ure", "age", "cy", "quake", "storm", "fire",
}

// nonNounSuffixes mark words that are very likely not nouns (adverbs,
// participles, comparatives and plain adjectives).
var nonNounSuffixes = []string{
	"ly", "ing", "ed", "est", "ous", "ive", "able", "ible", "ful",
}

// Suffix tables indexed by the word's final byte, so the hot path
// checks only the handful of suffixes that could possibly match instead
// of scanning both lists for every token.
var (
	nounSufByLast    [256][]string
	nonNounSufByLast [256][]string
)

// verbish lists frequent microblog verbs/adjectives that the suffix rules
// miss. The set only needs to cover common words; rare words default to
// noun, which matches how proper nouns and fresh event terms behave.
var verbish = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"watch", "watches", "break", "breaks", "struck", "strike",
		"strikes", "hit", "hits", "kill", "kills", "found", "find",
		"finds", "made", "make", "makes", "run", "runs", "ran", "won",
		"win", "wins", "lost", "lose", "loses", "dead", "big", "small",
		"huge", "massive", "moderate", "awesome", "great", "good", "bad",
		"live", "issued", "issue", "issues", "seek", "seeks", "pound",
		"pounds", "hold", "holds", "held", "come", "comes", "came",
		"take", "takes", "took", "give", "gives", "gave", "think",
		"thinks", "thought",
	} {
		verbish[w] = struct{}{}
	}
	for _, suf := range nounSuffixes {
		last := suf[len(suf)-1]
		nounSufByLast[last] = append(nounSufByLast[last], suf)
	}
	for _, suf := range nonNounSuffixes {
		last := suf[len(suf)-1]
		nonNounSufByLast[last] = append(nonNounSufByLast[last], suf)
	}
}

// LikelyNounRaw reports whether the token is probably a noun. Decision
// order: numbers are not nouns; capitalized or hashtag tokens are (proper
// nouns and topic tags); then the word's text decides (nounShape) — read
// off the token's symbol when the table has an entry for it, so the
// lexicon and suffix rules run once per word, not once per occurrence.
func LikelyNounRaw(t RawToken) bool {
	if t.Numeric {
		return false
	}
	if t.Capitalized || t.Hashtag {
		return true
	}
	if t.Sym.flags&symKnown != 0 {
		return t.Sym.flags&symNoun != 0
	}
	return nounShape(t.Text)
}

// nounShape is the text-only half of the heuristic: known verb/adjective
// lexicon entries are not nouns; noun suffixes win over non-noun
// suffixes; everything else of length ≥ 3 defaults to noun.
func nounShape(text []byte) bool {
	if _, ok := verbish[string(text)]; ok { // non-allocating map probe
		return false
	}
	if len(text) == 0 {
		return false
	}
	last := text[len(text)-1]
	for _, suf := range nounSufByLast[last] {
		if hasSuffixBytes(text, suf) && len(text) > len(suf) {
			return true
		}
	}
	for _, suf := range nonNounSufByLast[last] {
		if hasSuffixBytes(text, suf) && len(text) > len(suf)+1 {
			return false
		}
	}
	return len(text) >= 3
}

func hasSuffixBytes(b []byte, suf string) bool {
	return len(b) >= len(suf) && string(b[len(b)-len(suf):]) == suf
}
