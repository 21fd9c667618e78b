package textproc

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/dygraph"
)

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
// Words of up to seven bytes, most of a microblog vocabulary, live in a
// flat open-addressing table (symTable); longer ones in a Go map.
type Interner struct {
	// A word of at most seven bytes is keyed by those bytes and its
	// length packed into one integer, in a flat table: the probe hashes
	// and compares a machine word and never follows a string pointer —
	// most of a microblog vocabulary is that short. A stream's vocabulary
	// outgrows the caches, so a lookup costs a miss; here it is one.
	short symTable
	long  map[string]Symbol
	words []string
	canon map[string]string // synonym → canonical form; nil without synonyms
}

// NewInterner returns an interner holding only the stop list. The zero
// NodeID is reserved so that "no node" can be expressed; the first
// interned word gets ID 1.
func NewInterner() *Interner { return newInterner(nil) }

// newInterner returns an interner holding the stop list, its tables
// sized up front for words as well, which the caller interns.
func newInterner(words []string) *Interner {
	long := 0
	for _, w := range words {
		if len(w) > maxShort {
			long++
		}
	}
	in := &Interner{
		short: newSymTable(2*len(stopList) + len(words) - long),
		long:  make(map[string]Symbol, long),
		words: make([]string, 1, 1+len(words)),
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
// key: the length in the top byte, so no two words share a key, and its
// top bit set, so that no key — the empty word's included — is 0, the
// table's empty-slot mark.
func packShort[T string | []byte](word T) uint64 {
	key := 1<<63 | uint64(len(word))<<56
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
		return in.short.get(packShort(word))
	}
	return in.long[string(word)] // no allocation: a conversion in a map index
}

func (in *Interner) set(word string, s Symbol) {
	if len(word) <= maxShort {
		in.short.put(packShort(word), s)
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
// same ID it had when WordList was taken. Its symbol table and
// long-word map are sized for the whole list up front, so the restore
// does not grow them word by word.
func FromWordList(words []string) *Interner {
	in := newInterner(words)
	for _, w := range words {
		in.Intern(w)
	}
	return in
}

// symTable is an open-addressing hash table from packed short-word keys
// to symbols: 16-byte (key, Symbol) slots in one power-of-two array, a
// seeded multiply-fold hash and linear probing. A probe starts at a slot
// the key and the table's seed determine and usually ends in that slot's
// cache line, so a lookup is one dependent miss. At most three slots in
// four are in use, which keeps the probes short at the footprint of a Go
// map with the same key and value. Keys are never removed.
//
// The keys are words from ingested messages, so the hash is seeded per
// table, as a Go map's is: with a fixed hash a client could search
// offline for words that share a home slot at every table size and grow
// one probe cluster that every later lookup in it walks. The seed places
// slots only; IDs follow first-sight order whatever it is.
type symTable struct {
	slots []symSlot // key 0 marks an empty slot
	shift uint8     // 64 − log2(len(slots)): the hash's top bits index the array
	n     int       // slots in use
	seed  [2]uint64
}

type symSlot struct {
	key uint64
	sym Symbol
}

// newSymTable returns a table that holds n keys before it first grows.
func newSymTable(n int) symTable {
	size := 8
	for size*3/4 < n {
		size <<= 1
	}
	return symTable{
		slots: make([]symSlot, size),
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
		seed:  [2]uint64{rand.Uint64(), rand.Uint64()}, //repro:wallclock-exempt hash seed; places slots only, never an ID or any output
	}
}

// home is key's first probe position: the top bits of the folded
// 128-bit product of the key masked by each half of the seed (wyhash's
// multiply-fold mix). Both factors depend on the key and on the seed,
// so two keys picked without knowing the seed share a home only by
// chance.
func (t *symTable) home(key uint64) int {
	hi, lo := bits.Mul64(key^t.seed[0], key^t.seed[1])
	return int((hi ^ lo) >> t.shift)
}

// get returns key's symbol, the zero Symbol when the table has none.
func (t *symTable) get(key uint64) Symbol {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].sym
		case 0:
			return Symbol{}
		}
	}
}

// put sets key's symbol, inserting the key if it is new.
func (t *symTable) put(key uint64, s Symbol) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; t.slots[i].key != 0; i = (i + 1) & mask {
		if t.slots[i].key == key {
			t.slots[i].sym = s
			return
		}
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
		t.put(key, s)
		return
	}
	t.slots[i] = symSlot{key, s}
	t.n++
}

// grow rehashes every key into a table twice the size.
func (t *symTable) grow() {
	old := t.slots
	*t = symTable{slots: make([]symSlot, 2*len(old)), shift: t.shift - 1, seed: t.seed}
	for _, sl := range old {
		if sl.key != 0 {
			t.put(sl.key, sl.sym)
		}
	}
}
