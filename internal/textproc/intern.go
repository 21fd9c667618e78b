package textproc

import (
	"hash/maphash"
	"iter"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"

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
//
// A stream's vocabulary only grows, so the interner holds no pointer
// per word: the words' bytes lie back to back in an arena of chunks,
// and both lookup tables are flat arrays of 16-byte slots.
type Interner struct {
	// A word of at most seven bytes is keyed by those bytes and its
	// length packed into one integer, in a flat table: the probe hashes
	// and compares a machine word and never follows a string pointer —
	// most of a microblog vocabulary is that short. A stream's vocabulary
	// outgrows the caches, so a lookup costs a miss; here it is one.
	short symTable
	// A longer word with an ID is keyed by a seeded hash of its bytes;
	// a slot whose hash matches is confirmed against the word's bytes in
	// the arena. side holds the few long words that have an entry but no
	// ID — the long stop words, synonym keys nobody interned — and is
	// read only when the table misses.
	long  longTable
	side  map[string]Symbol
	arena wordArena
	canon map[string]string // synonym → canonical form; nil without synonyms
}

// NewInterner returns an interner holding only the stop list. The zero
// NodeID is reserved so that "no node" can be expressed; the first
// interned word gets ID 1.
func NewInterner() *Interner { return newInterner(nil) }

// newInterner returns an interner holding the stop list, its tables and
// arena sized up front for words as well, which the caller interns.
func newInterner(words []string) *Interner {
	long, size := 0, 0
	for _, w := range words {
		if len(w) > maxShort {
			long++
		}
		size += len(w)
	}
	in := &Interner{
		short: newSymTable(2*len(stopList) + len(words) - long),
		long:  newLongTable(long),
		side:  make(map[string]Symbol),
		arena: wordArena{
			chunks: make([][]byte, 0, size/chunkSize+1),
			ends:   make([]uint32, 1, 1+len(words)),
		},
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

// view is b as a string without a copy, for lookups that do not keep
// it: nothing the interner retains aliases a caller's buffer.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Resolve returns the table's entry for the lower-cased word: the zero
// Symbol when it has none.
func (in *Interner) Resolve(word []byte) Symbol { return resolve(in, view(word)) }

func resolve(in *Interner, word string) Symbol {
	if len(word) <= maxShort {
		return in.short.get(packShort(word))
	}
	if sl := in.long.slots[in.findLong(word, in.long.hash(word))]; sl.key != 0 {
		return sl.sym
	}
	return in.side[word]
}

// findLong returns the long table's slot for word, whose hash is h, or
// the empty slot where a probe for it ends.
func (in *Interner) findLong(word string, h uint64) int {
	t := &in.long
	mask := len(t.slots) - 1
	for i := t.home(h); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.key == 0 || sl.key == h && in.arena.word(int(sl.sym.ID)) == word {
			return i
		}
	}
}

// set enters word's symbol. A long word goes to the long table only
// with an ID, and then it is there already: intern put it there.
func (in *Interner) set(word string, s Symbol) {
	switch {
	case len(word) <= maxShort:
		in.short.put(packShort(word), s)
	case s.ID != 0:
		in.long.slots[in.findLong(word, in.long.hash(word))].sym = s
	default:
		in.side[word] = s
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

// InternBytes is Intern for a byte-slice keyword.
func (in *Interner) InternBytes(word []byte) dygraph.NodeID { return in.Intern(view(word)) }

// Intern returns the ID for word, assigning a new one on first sight:
// the word's bytes are copied into the arena, so word may be a view of
// a buffer its caller reuses, and no allocation is made per word. The
// word is hashed once either way.
func (in *Interner) Intern(word string) dygraph.NodeID {
	if len(word) <= maxShort {
		t := &in.short
		key := packShort(word)
		i := t.find(key)
		sl := &t.slots[i]
		if sl.sym.ID != 0 {
			return sl.sym.ID
		}
		s := in.push(word, sl.sym)
		if sl.key == key {
			sl.sym = s
		} else {
			t.insert(i, key, s)
		}
		return s.ID
	}
	h := in.long.hash(word)
	i := in.findLong(word, h)
	if sl := in.long.slots[i]; sl.key != 0 {
		return sl.sym.ID
	}
	s, ok := in.side[word]
	if ok {
		delete(in.side, word)
	}
	s = in.push(word, s)
	in.long.insert(i, h, s)
	return s.ID
}

// push appends word to the arena under the next ID and returns its
// symbol with that ID: s, what the table already said about the word,
// or a new symbol if it said nothing.
func (in *Interner) push(word string, s Symbol) Symbol {
	if s.flags&symKnown == 0 {
		s = newSymbol(word)
	}
	s.ID = dygraph.NodeID(len(in.arena.ends))
	in.arena.push(word)
	return s
}

// Lookup returns the ID for word without assigning, and whether it has
// one (a stop word or synonym nobody interned does not).
func (in *Interner) Lookup(word string) (dygraph.NodeID, bool) {
	id := resolve(in, word).ID
	return id, id != 0
}

// Word returns the keyword for an ID ("" if unknown). The string shares
// the arena's bytes: it costs no allocation and stays valid for as long
// as anything holds it.
func (in *Interner) Word(id dygraph.NodeID) string {
	if id == 0 || int(id) >= len(in.arena.ends) {
		return ""
	}
	return in.arena.word(int(id))
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
func (in *Interner) Size() int { return len(in.arena.ends) - 1 }

// WordList returns all interned words in ID order (excluding the reserved
// zero entry).
func (in *Interner) WordList() []string {
	return slices.AppendSeq(make([]string, 0, in.Size()), in.All())
}

// All yields every interned word in ID order from ID 1, as Word returns
// it, walking the arena once: for checkpointing.
func (in *Interner) All() iter.Seq[string] {
	return func(yield func(string) bool) { in.arena.all(yield) }
}

// FromWordList reconstructs an interner so that each word receives the
// same ID it had when WordList was taken. Its tables, offsets and chunk
// directory are sized for the whole list up front, so the restore grows
// none of them, and each word is hashed once.
func FromWordList(words []string) *Interner {
	in := newInterner(words)
	for _, w := range words {
		in.Intern(w)
	}
	return in
}

// Footprint returns the bytes the interner holds, counted by capacity:
// the arena's chunks and their directory, the end offsets, both tables'
// slots, and a key and a value for each entry of the side maps.
func (in *Interner) Footprint() int {
	a := &in.arena
	n := cap(a.chunks)*int(unsafe.Sizeof([]byte(nil))) + cap(a.ends)*4
	for _, c := range a.chunks {
		n += cap(c)
	}
	n += (len(in.short.slots) + len(in.long.slots)) * int(unsafe.Sizeof(symSlot{}))
	n += len(in.side) * int(unsafe.Sizeof("")+unsafe.Sizeof(Symbol{}))
	n += len(in.canon) * int(2*unsafe.Sizeof(""))
	return n
}

// The arena's chunk size, and the size the first chunk's array starts
// at. That array doubles, its bytes copied, as words fill it, until it
// holds chunkSize bytes, so a fresh vocabulary holds a small array, not
// a whole chunk; a vocabulary that has filled one chunk is not small,
// and every later chunk is allocated whole. Bytes below a chunk's length
// are never written again, so a string over an outgrown array (a Word
// taken before the move) stays valid, and pins that array beside the
// copy: under chunkSize bytes in all, however large the vocabulary.
const (
	chunkShift = 16
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	minChunk   = 1 << 10
)

// wordArena holds the interned words' bytes in ID order. Offsets run
// through the chunks: chunks[k] covers [k·chunkSize, (k+1)·chunkSize).
// ends[id] is where word id ends, ends[0] = 0 for the reserved ID. A
// word that does not fit in the rest of the current chunk starts the
// next one. A word longer than a chunk gets a chunk of exactly its own
// size at the next chunk boundary; its end is rounded up to a boundary
// too, and the directory entries of the chunks it spans past the first
// stay nil. Its predecessor's end and its own are thus all it takes to
// find a word.
type wordArena struct {
	chunks [][]byte
	ends   []uint32
}

// word returns word id (≥ 1) as a string over the arena.
func (a *wordArena) word(id int) string { return a.span(a.ends[id-1], a.ends[id]) }

// all yields word(id) for every ID from 1 in order, in one pass over
// the end offsets.
func (a *wordArena) all(yield func(string) bool) {
	var p uint32
	for _, e := range a.ends[1:] {
		if !yield(a.span(p, e)) {
			return
		}
		p = e
	}
}

// span returns the word that ends at e and follows one that ends at p:
// it starts at p, or at the next chunk boundary when it opened a chunk.
func (a *wordArena) span(p, e uint32) string {
	if p&chunkMask+(e-p) > chunkSize {
		p = (p + chunkMask) &^ chunkMask
	}
	if e == p {
		return ""
	}
	c := a.chunks[p>>chunkShift]
	c = c[p&chunkMask : min(int(p&chunkMask+e-p), len(c))] // a long word is all of its chunk
	return unsafe.String(unsafe.SliceData(c), len(c))
}

// push appends word as the next ID's. The bytes it writes lie past
// every word's end so far, so no string over the arena ever sees them
// change.
func (a *wordArena) push(word string) {
	pos := uint64(a.ends[len(a.ends)-1])
	n := uint64(len(word))
	start := pos
	if start&chunkMask+n > chunkSize {
		start = (start + chunkMask) &^ chunkMask
	}
	end := start + n
	if n > chunkSize {
		end = (end + chunkMask) &^ chunkMask
	}
	if end > math.MaxUint32-chunkSize {
		panic("textproc: interner arena past 4 GiB")
	}
	switch k := int(start >> chunkShift); {
	case n == 0:
	case n > chunkSize:
		a.chunks = append(a.chunks, []byte(word))
		for len(a.chunks) < int(end>>chunkShift) {
			a.chunks = append(a.chunks, nil)
		}
	default:
		if k == len(a.chunks) {
			size := chunkSize
			if k == 0 {
				size = minChunk
			}
			a.chunks = append(a.chunks, make([]byte, 0, size))
		}
		c := a.chunks[k]
		if len(c)+int(n) > cap(c) {
			c = append(make([]byte, 0, min(chunkSize, max(2*cap(c), len(c)+int(n)))), c...)
		}
		a.chunks[k] = append(c, word...)
	}
	a.ends = append(a.ends, uint32(end))
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

// tableSize is the smallest power of two, at least 8, whose three
// quarters hold n keys.
func tableSize(n int) int {
	size := 8
	for size*3/4 < n {
		size <<= 1
	}
	return size
}

// newSymTable returns a table that holds n keys before it first grows.
func newSymTable(n int) symTable {
	size := tableSize(n)
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

// find returns key's slot, or the empty slot where a probe for it ends.
func (t *symTable) find(key uint64) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// put sets key's symbol, inserting the key if it is new.
func (t *symTable) put(key uint64, s Symbol) {
	if i := t.find(key); t.slots[i].key == key {
		t.slots[i].sym = s
	} else {
		t.insert(i, key, s)
	}
}

// insert puts a new key into slot i, the empty slot where a probe for
// it ended, growing the table first if it is full.
func (t *symTable) insert(i int, key uint64, s Symbol) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.shift--
		t.slots = regrow(t.slots, t.home)
		i = t.find(key)
	}
	t.slots[i] = symSlot{key, s}
	t.n++
}

// longTable is symTable's layout for words longer than maxShort: a slot
// is keyed by the word's 64-bit hash under the table's seed, never 0
// (the empty-slot mark), and its top bits are the home slot. A slot's
// hash matching a word's is confirmed against the word's bytes in the
// arena (Interner.findLong). The seed is random per table for the same
// reason as symTable's and, like it, places slots only.
type longTable struct {
	slots []symSlot // key: the word's hash; 0 marks an empty slot
	shift uint8
	n     int
	seed  maphash.Seed
	pin   uint64 // when set, every word's hash: lets a test send every lookup through the arena check
}

// newLongTable returns a table that holds n words before it first grows.
func newLongTable(n int) longTable {
	size := tableSize(n)
	return longTable{
		slots: make([]symSlot, size),
		shift: uint8(64 - bits.TrailingZeros(uint(size))),
		seed:  maphash.MakeSeed(), //repro:wallclock-exempt hash seed; places slots only, never an ID or any output
	}
}

func (t *longTable) hash(word string) uint64 {
	if t.pin != 0 {
		return t.pin
	}
	return maphash.String(t.seed, word) | 1
}

func (t *longTable) home(h uint64) int { return int(h >> t.shift) }

// insert puts a new word's hash and symbol into slot i, the empty slot
// where a probe for it ended, growing the table first if it is full.
func (t *longTable) insert(i int, h uint64, s Symbol) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.shift--
		t.slots = regrow(t.slots, t.home)
		i = t.home(h)
		for t.slots[i].key != 0 {
			i = (i + 1) & (len(t.slots) - 1)
		}
	}
	t.slots[i] = symSlot{h, s}
	t.n++
}

// regrow rehashes every key of old into a table twice the size, whose
// home slots home gives. Keys are only moved, never compared: each is
// in old once.
func regrow(old []symSlot, home func(uint64) int) []symSlot {
	slots := make([]symSlot, 2*len(old))
	mask := len(slots) - 1
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		i := home(sl.key)
		for slots[i].key != 0 {
			i = (i + 1) & mask
		}
		slots[i] = sl
	}
	return slots
}
