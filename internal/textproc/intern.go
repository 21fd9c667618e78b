package textproc

import "repro/internal/dygraph"

// Symbol is what the table knows about one lower-cased word, answered by
// a single probe: its keyword ID once interned, whether it is a stop
// word, the text-only half of the noun heuristic, and whether it is a
// synonym of another word. The zero Symbol is a word the table has never
// been told about.
type Symbol struct {
	// ID is the word's keyword ID, 0 while it has not been interned.
	ID    dygraph.NodeID
	flags uint8
}

const (
	symKnown uint8 = 1 << iota // the table has an entry: symNoun is valid
	symStop
	symNoun  // nounShape of the word's text
	symAlias // Interner.canon says which word to read instead
)

// Stop reports whether the word is on the stop list.
func (s Symbol) Stop() bool { return s.flags&symStop != 0 }

// IsAlias reports whether the word is a synonym; Interner.Canonical
// resolves it.
func (s Symbol) IsAlias() bool { return s.flags&symAlias != 0 }

// Interner is the ingest path's symbol table. It maps keyword strings to
// dense dygraph.NodeIDs and back — the graph layers work exclusively
// with NodeIDs, only event reporting needs the reverse mapping, and IDs
// are never reused, matching the append-only nature of a stream
// vocabulary — and it answers the word-level questions of Sections 3.1
// and 7.2.2 from the same entry, so a token is looked up once. The stop
// list and the synonym keys are entered up front without an ID: they
// are not part of the vocabulary until a message actually interns them.
type Interner struct {
	// A word of at most seven bytes is keyed by those bytes and its
	// length packed into one integer: the probe hashes and compares a
	// machine word and never follows a string pointer — most of a
	// microblog vocabulary is that short.
	short map[uint64]Symbol
	long  map[string]Symbol
	words []string
	canon map[string]string // synonym → canonical form; nil without synonyms
}

// NewInterner returns an interner holding only the stop list. The zero
// NodeID is reserved so that "no node" can be expressed; the first
// interned word gets ID 1.
func NewInterner() *Interner {
	in := &Interner{
		short: make(map[uint64]Symbol, 2*len(stopList)),
		long:  make(map[string]Symbol),
		words: []string{""},
	}
	for _, w := range stopList {
		s := newSymbol(w)
		s.flags |= symStop
		in.set(w, s)
	}
	return in
}

// maxShort is the longest word the short table holds.
const maxShort = 7

// packShort packs a word of at most maxShort bytes into its short-table
// key: the length in the top byte, so no two words share a key.
func packShort[T string | []byte](word T) uint64 {
	key := uint64(len(word)) << 56
	for i := 0; i < len(word); i++ {
		key |= uint64(word[i]) << (8 * i)
	}
	return key
}

// Resolve returns the table's entry for the lower-cased word: the zero
// Symbol when it has none.
func (in *Interner) Resolve(word []byte) Symbol { return resolve(in, word) }

func resolve[T string | []byte](in *Interner, word T) Symbol {
	if len(word) <= maxShort {
		return in.short[packShort(word)]
	}
	return in.long[string(word)] // no allocation: a conversion in a map index
}

func (in *Interner) set(word string, s Symbol) {
	if len(word) <= maxShort {
		in.short[packShort(word)] = s
	} else {
		in.long[word] = s
	}
}

func newSymbol(word string) Symbol {
	s := Symbol{flags: symKnown}
	if nounShape([]byte(word)) {
		s.flags |= symNoun
	}
	return s
}

// Alias records that word is a synonym of canon (both lower case): a
// token resolving to it is to be read as canon. Neither word is interned
// by this.
func (in *Interner) Alias(word, canon string) {
	s := resolve(in, word)
	if s.flags&symKnown == 0 {
		s = newSymbol(word)
	}
	s.flags |= symAlias
	in.set(word, s)
	if in.canon == nil {
		in.canon = make(map[string]string)
	}
	in.canon[word] = canon
}

// Canonical returns the word that alias (a word whose symbol says
// IsAlias) stands for, with that word's own symbol. Two more probes;
// synonyms are rare.
func (in *Interner) Canonical(alias []byte) (string, Symbol) {
	canon := in.canon[string(alias)]
	return canon, resolve(in, canon)
}

// Intern returns the ID for word, assigning a new one on first sight.
func (in *Interner) Intern(word string) dygraph.NodeID {
	s := resolve(in, word)
	if s.ID != 0 {
		return s.ID
	}
	return in.add(word, s)
}

// InternBytes is Intern for a byte-slice keyword: the lookup is
// allocation-free (the compiler elides the map-key conversion), and the
// string copy is made only on first sight — the single retained
// allocation of the steady-state ingest pipeline.
func (in *Interner) InternBytes(word []byte) dygraph.NodeID {
	s := resolve(in, word)
	if s.ID != 0 {
		return s.ID
	}
	return in.add(string(word), s)
}

// add gives word the next ID, keeping what its entry (s, if there is
// one) already says about it.
func (in *Interner) add(word string, s Symbol) dygraph.NodeID {
	if s.flags&symKnown == 0 {
		s = newSymbol(word)
	}
	s.ID = dygraph.NodeID(len(in.words))
	in.set(word, s)
	in.words = append(in.words, word)
	return s.ID
}

// Lookup returns the ID for word without assigning, and whether it has
// one (a stop word or synonym nobody interned does not).
func (in *Interner) Lookup(word string) (dygraph.NodeID, bool) {
	id := resolve(in, word).ID
	return id, id != 0
}

// Word returns the keyword for an ID ("" if unknown).
func (in *Interner) Word(id dygraph.NodeID) string {
	if int(id) >= len(in.words) {
		return ""
	}
	return in.words[id]
}

// Words maps a slice of IDs to their keywords.
func (in *Interner) Words(ids []dygraph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = in.Word(id)
	}
	return out
}

// Size returns the number of interned keywords.
func (in *Interner) Size() int { return len(in.words) - 1 }

// WordList returns all interned words in ID order (excluding the reserved
// zero entry), for checkpointing.
func (in *Interner) WordList() []string {
	out := make([]string, len(in.words)-1)
	copy(out, in.words[1:])
	return out
}

// FromWordList reconstructs an interner so that each word receives the
// same ID it had when WordList was taken.
func FromWordList(words []string) *Interner {
	in := NewInterner()
	for _, w := range words {
		in.Intern(w)
	}
	return in
}
