package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/codec"
)

// This file is the v2 columnar block codec. A v2 segment's body is a
// sequence of CRC-framed blocks, each holding up to Options.BlockEvents
// records column-at-a-time:
//
//	uvarint  record count n
//	uvarint  dictionary size d, d × uvarint string length, d × raw bytes
//	         (states and keywords interned together, first-appearance order)
//	seq      column: uvarint base, n−1 × uvarint delta (strictly positive)
//	id       column: uvarint base, n−1 × zigzag delta (mod-2⁶⁴ arithmetic)
//	born     column: zigzag base, n−1 × zigzag delta
//	last     column: n × uvarint (LastQuantum − BornQuantum, never negative)
//	rank     column: n × 8-byte little-endian float64 bits (exact round-trip)
//	peak     column: n × 8-byte little-endian float64 bits
//	size, support, first_reported columns: n × zigzag varint
//	merged_into, split_from columns: n × uvarint
//	flags    column: n × byte (evolved/reported/spurious + nil-ness of the
//	         keyword slices, so a decoded row keeps JSON null vs [])
//	state    column: n × uvarint dictionary index
//	keywords column: n × (uvarint m, m × uvarint dictionary index)
//	all_keywords column: same shape
//
// The decoder never trusts the bytes: every varint read is
// bounds-checked, dictionary indexes are range-checked, counts are
// clamped, and the payload must be consumed exactly — any violation is
// an error, never a panic (the fuzz target in fuzz_test.go enforces
// this). A block decodes into a fresh Block: its columns carved from a
// few slabs and its dictionary from one backing string, so a decoded
// block costs O(1) allocations regardless of record count. Nothing
// writes a Block after its decode, so a verified block is decoded once
// and then shared (cache.go).
const (
	// defaultBlockEvents caps records per block when Options.BlockEvents
	// is zero: big enough to amortize per-block framing and dictionary
	// overhead, small enough that zone maps skip at useful granularity.
	defaultBlockEvents = 256
	// maxBlockRecords bounds how far the decoder trusts a block's count
	// field before reading columns.
	maxBlockRecords = 1 << 20
	// maxBlockDict bounds the dictionary entry count the same way.
	maxBlockDict = 1 << 20
)

// Record flag bits (one byte per record in the flags column).
const (
	flagEvolved  = 1 << 0
	flagReported = 1 << 1
	flagSpurious = 1 << 2
	// flagKwNil / flagAllKwNil record that the slice was nil rather than
	// empty — Keywords has no omitempty, so nil marshals as JSON null and
	// [] as [], and byte-identical answers require preserving which.
	flagKwNil    = 1 << 3
	flagAllKwNil = 1 << 4

	flagsKnown = flagEvolved | flagReported | flagSpurious | flagKwNil | flagAllKwNil
)

// emptyStrings is the shared non-nil empty slice the decoder hands out
// for present-but-empty keyword sets (marshals as [], not null).
var emptyStrings = make([]string, 0)

// blockZone is one block's zone map, stored in the segment's index
// (segment2.go): the frame location plus the per-column bounds that let
// a scan prove the block cannot match a predicate without reading it.
type blockZone struct {
	Off   int64 // frame start offset in the segment file
	Len   int   // framed length: 8-byte frame header + payload
	Count int   // records in the block

	FirstSeq   uint64
	LastSeq    uint64
	MinQuantum int     // min BornQuantum
	MaxQuantum int     // max LastQuantum
	MaxRank    float64 // max PeakRank (the rank-floor column)

	// bf is a small keyword filter over the block's dictionary, sized
	// from the block's distinct-string count.
	bf bloom
}

func (z *blockZone) observe(rec *Record) {
	if z.Count == 0 {
		z.FirstSeq = rec.Seq
		z.MinQuantum, z.MaxQuantum = rec.BornQuantum, rec.LastQuantum
		z.MaxRank = rec.PeakRank
	}
	z.LastSeq = rec.Seq
	z.Count++
	if rec.BornQuantum < z.MinQuantum {
		z.MinQuantum = rec.BornQuantum
	}
	if rec.LastQuantum > z.MaxQuantum {
		z.MaxQuantum = rec.LastQuantum
	}
	if rec.PeakRank > z.MaxRank {
		z.MaxRank = rec.PeakRank
	}
}

// mayContainKeywords reports whether the block's filter admits every
// keyword (AND semantics, matching the query engine's). A zone with no
// filter admits everything.
func (z *blockZone) mayContainKeywords(kws []string) bool {
	for _, kw := range kws {
		if !z.bf.mayContain(kw) {
			return false
		}
	}
	return true
}

// blockEncoder holds the reusable state for encoding blocks. Not safe
// for concurrent use; encodeSegment owns one per segment image.
type blockEncoder struct {
	idx  map[string]uint64
	keys []string
	buf  []byte
}

func (e *blockEncoder) intern(s string) uint64 {
	if e.idx == nil {
		e.idx = make(map[string]uint64)
	}
	if i, ok := e.idx[s]; ok {
		return i
	}
	i := uint64(len(e.keys))
	e.idx[s] = i
	e.keys = append(e.keys, s)
	return i
}

// encode serializes recs (ascending Seq, non-empty) into one block
// payload, returning the payload (valid until the next encode) and its
// zone map (Off/Len left for the segment writer to fill — encode sets
// the bounds and the filter).
func (e *blockEncoder) encode(recs []Record) ([]byte, blockZone, error) {
	if len(recs) == 0 || len(recs) > maxBlockRecords {
		return nil, blockZone{}, fmt.Errorf("archive: encode block: bad record count %d", len(recs))
	}
	clear(e.idx)
	e.keys = e.keys[:0]
	var zone blockZone
	for i := range recs {
		r := &recs[i]
		if i > 0 && r.Seq <= recs[i-1].Seq {
			return nil, blockZone{}, fmt.Errorf("archive: encode block: records out of seq order (%d after %d)",
				r.Seq, recs[i-1].Seq)
		}
		if r.LastQuantum < r.BornQuantum {
			return nil, blockZone{}, fmt.Errorf("archive: encode block: record %d spans backwards", r.Seq)
		}
		e.intern(r.State)
		for _, k := range r.Keywords {
			e.intern(k)
		}
		for _, k := range r.AllKeywords {
			e.intern(k)
		}
		zone.observe(r)
	}

	b := e.buf[:0]
	b = binary.AppendUvarint(b, uint64(len(recs)))
	b = binary.AppendUvarint(b, uint64(len(e.keys)))
	for _, s := range e.keys {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	for _, s := range e.keys {
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, recs[0].Seq)
	for i := 1; i < len(recs); i++ {
		b = binary.AppendUvarint(b, recs[i].Seq-recs[i-1].Seq)
	}
	b = binary.AppendUvarint(b, recs[0].ID)
	for i := 1; i < len(recs); i++ {
		b = binary.AppendVarint(b, int64(recs[i].ID-recs[i-1].ID))
	}
	b = binary.AppendVarint(b, int64(recs[0].BornQuantum))
	for i := 1; i < len(recs); i++ {
		b = binary.AppendVarint(b, int64(recs[i].BornQuantum-recs[i-1].BornQuantum))
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(recs[i].LastQuantum-recs[i].BornQuantum))
	}
	for i := range recs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(recs[i].Rank))
	}
	for i := range recs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(recs[i].PeakRank))
	}
	for i := range recs {
		b = binary.AppendVarint(b, int64(recs[i].Size))
	}
	for i := range recs {
		b = binary.AppendVarint(b, int64(recs[i].Support))
	}
	for i := range recs {
		b = binary.AppendVarint(b, int64(recs[i].FirstReported))
	}
	for i := range recs {
		b = binary.AppendUvarint(b, recs[i].MergedInto)
	}
	for i := range recs {
		b = binary.AppendUvarint(b, recs[i].SplitFrom)
	}
	for i := range recs {
		r := &recs[i]
		var fl byte
		if r.Evolved {
			fl |= flagEvolved
		}
		if r.Reported {
			fl |= flagReported
		}
		if r.Spurious {
			fl |= flagSpurious
		}
		if r.Keywords == nil {
			fl |= flagKwNil
		}
		if r.AllKeywords == nil {
			fl |= flagAllKwNil
		}
		b = append(b, fl)
	}
	for i := range recs {
		b = binary.AppendUvarint(b, e.idx[recs[i].State])
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(len(recs[i].Keywords)))
		for _, k := range recs[i].Keywords {
			b = binary.AppendUvarint(b, e.idx[k])
		}
	}
	for i := range recs {
		b = binary.AppendUvarint(b, uint64(len(recs[i].AllKeywords)))
		for _, k := range recs[i].AllKeywords {
			b = binary.AppendUvarint(b, e.idx[k])
		}
	}
	e.buf = b

	// The zone's keyword filter, sized from this block's distinct-string
	// count (duplicate adds are harmless).
	zone.bf = newBloom(blockBloomBits(len(e.keys)))
	for i := range recs {
		for _, k := range recs[i].Keywords {
			zone.bf.add(k)
		}
		for _, k := range recs[i].AllKeywords {
			zone.bf.add(k)
		}
	}
	return b, zone, nil
}

// Block is one decoded block, column by column: row i is the Record
// with ID ID[i], Rank Rank[i], and so on, in eviction order. Its State
// and keywords are indexes into Dict, which holds each string once. A
// decoded Block is immutable: the block cache (cache.go) hands the same
// Block to every scan that reads it, so nothing may write its columns.
type Block struct {
	// Dict is the block's dictionary: states and keywords, carved from
	// one backing string per decode.
	Dict []string

	Seq, ID, MergedInto, SplitFrom                         []uint64
	BornQuantum, LastQuantum, Size, Support, FirstReported []int
	Rank, PeakRank                                         []float64
	State                                                  []uint32 // index into Dict

	flags         []byte
	kwIdx, allIdx []uint32 // flat keyword dictionary indexes
	kwOff, allOff []uint32 // n+1 offsets into kwIdx / allIdx
	dictBytes     int      // length of the string Dict is carved from

	// The rows' /query JSON, rendered together on first use (RowJSON).
	render sync.Once
	rows   []byte
	rowOff []uint32 // n+1 offsets into rows

	ent *cacheEntry // the cache entry holding the block; nil when uncached
}

// Len returns the block's row count.
func (b *Block) Len() int { return len(b.ID) }

// Evolved, Reported and Spurious read row i's flags.
func (b *Block) Evolved(i int) bool  { return b.flags[i]&flagEvolved != 0 }
func (b *Block) Reported(i int) bool { return b.flags[i]&flagReported != 0 }
func (b *Block) Spurious(i int) bool { return b.flags[i]&flagSpurious != 0 }

// KeywordsNil reports whether row i's Keywords is nil (JSON null)
// rather than a possibly empty list.
func (b *Block) KeywordsNil(i int) bool { return b.flags[i]&flagKwNil != 0 }

// Keywords returns the Dict indexes of row i's Keywords.
func (b *Block) Keywords(i int) []uint32 { return b.kwIdx[b.kwOff[i]:b.kwOff[i+1]] }

// AllKeywords returns the Dict indexes of row i's AllKeywords.
func (b *Block) AllKeywords(i int) []uint32 { return b.allIdx[b.allOff[i]:b.allOff[i+1]] }

// Record materialises row i. Its keyword slices are its own, one
// allocation for both: a shared Block is never written, and a cached
// one keeps no per-reference string arena for a path /query never
// takes.
func (b *Block) Record(i int) Record {
	rec := Record{
		Seq:           b.Seq[i],
		ID:            b.ID[i],
		State:         b.Dict[b.State[i]],
		Rank:          b.Rank[i],
		PeakRank:      b.PeakRank[i],
		BornQuantum:   b.BornQuantum[i],
		LastQuantum:   b.LastQuantum[i],
		Evolved:       b.Evolved(i),
		Size:          b.Size[i],
		Support:       b.Support[i],
		Reported:      b.Reported(i),
		FirstReported: b.FirstReported[i],
		MergedInto:    b.MergedInto[i],
		SplitFrom:     b.SplitFrom[i],
		Spurious:      b.Spurious(i),
	}
	kw, all := b.Keywords(i), b.AllKeywords(i)
	strs := make([]string, len(kw)+len(all))
	if !b.KeywordsNil(i) {
		rec.Keywords = b.strings(strs[:len(kw):len(kw)], kw)
	}
	if b.flags[i]&flagAllKwNil == 0 {
		rec.AllKeywords = b.strings(strs[len(kw):], all)
	}
	return rec
}

// strings fills dst with the Dict strings at idx and returns it, or the
// shared empty slice when idx is empty.
func (b *Block) strings(dst []string, idx []uint32) []string {
	if len(idx) == 0 {
		return emptyStrings
	}
	for j, d := range idx {
		dst[j] = b.Dict[d]
	}
	return dst
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var errBlockCorrupt = fmt.Errorf("archive: corrupt block")

const maxInt = int(^uint(0) >> 1)

// decodeBlock decodes one block payload column-at-a-time into b,
// replacing whatever b held with freshly allocated columns — a few
// slabs per block, however many records it holds. Corrupt input
// returns errBlockCorrupt, never panics; b's contents are then
// unspecified. The reader's errors stick, so a column's loop checks
// once, after the column.
func decodeBlock(payload []byte, b *Block) error {
	*b = Block{}
	r := codec.NewReader(payload)
	n := r.UvarintInt()
	if r.Err() != nil || n < 1 || n > maxBlockRecords {
		return errBlockCorrupt
	}

	// Dictionary: one backing string per block, entries carved by slicing.
	dn := r.UvarintInt()
	if r.Err() != nil || dn > maxBlockDict {
		return errBlockCorrupt
	}
	b.Dict = make([]string, dn)
	lens := r // re-reads the lengths below
	total := 0
	for i := 0; i < dn; i++ {
		ln := r.UvarintInt()
		// Each length is bounded by the payload, so with dn ≤ 2²⁰ the
		// running total cannot overflow int on 64-bit.
		if r.Err() != nil || ln > r.Remaining() {
			return errBlockCorrupt
		}
		total += ln
	}
	if total > r.Remaining() {
		return errBlockCorrupt
	}
	backing := string(r.Next(total))
	for i, pos := 0, 0; i < dn; i++ {
		ln := lens.UvarintInt() // checked by the first pass
		b.Dict[i] = backing[pos : pos+ln]
		pos += ln
	}
	b.dictBytes = total

	// Fixed columns, carved from one slab per element type.
	u64 := make([]uint64, 4*n)
	b.Seq, b.ID, b.MergedInto, b.SplitFrom = u64[:n:n], u64[n:2*n:2*n], u64[2*n:3*n:3*n], u64[3*n:]
	ints := make([]int, 5*n)
	b.BornQuantum, b.LastQuantum, b.Size = ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n]
	b.Support, b.FirstReported = ints[3*n:4*n:4*n], ints[4*n:]
	f64 := make([]float64, 2*n)
	b.Rank, b.PeakRank = f64[:n:n], f64[n:]
	b.flags = make([]byte, n)
	b.State = make([]uint32, n)

	b.Seq[0] = r.Uvarint()
	for i := 1; i < n; i++ {
		d := r.Uvarint()
		b.Seq[i] = b.Seq[i-1] + d
		if d == 0 || b.Seq[i] < b.Seq[i-1] { // zero delta = duplicate ordinal; or wrapped
			return errBlockCorrupt
		}
	}
	b.ID[0] = r.Uvarint()
	for i := 1; i < n; i++ {
		b.ID[i] = b.ID[i-1] + uint64(r.Varint())
	}
	b.BornQuantum[0] = int(r.Varint())
	for i := 1; i < n; i++ {
		b.BornQuantum[i] = b.BornQuantum[i-1] + int(r.Varint())
	}
	for i := 0; i < n; i++ {
		b.LastQuantum[i] = b.BornQuantum[i] + r.UvarintInt()
		if b.LastQuantum[i] < b.BornQuantum[i] { // overflow
			return errBlockCorrupt
		}
	}
	for _, col := range []*[]float64{&b.Rank, &b.PeakRank} {
		for i := 0; i < n; i++ {
			(*col)[i] = r.Float64()
		}
	}
	for _, col := range []*[]int{&b.Size, &b.Support, &b.FirstReported} {
		for i := 0; i < n; i++ {
			(*col)[i] = int(r.Varint())
		}
	}
	for _, col := range []*[]uint64{&b.MergedInto, &b.SplitFrom} {
		for i := 0; i < n; i++ {
			(*col)[i] = r.Uvarint()
		}
	}
	copy(b.flags, r.Next(n))
	if r.Err() != nil {
		return errBlockCorrupt
	}
	for i := 0; i < n; i++ {
		if b.flags[i]&^flagsKnown != 0 {
			return errBlockCorrupt
		}
	}
	for i := 0; i < n; i++ {
		v := r.Uvarint()
		if v >= uint64(dn) {
			return errBlockCorrupt
		}
		b.State[i] = uint32(v)
	}

	// Keyword index lists: flat refs + per-record offsets. What is left
	// of the payload is the two lists, each n counts and its refs, every
	// one at least a byte: that bounds the refs, so one slab holds both.
	refs := make([]uint32, 0, max(r.Remaining()-2*n, 0))
	offs := make([]uint32, 2*(n+1))
	var err error
	b.kwIdx, err = readIndexLists(&r, n, dn, refs, offs[:n+1:n+1], b.flags, flagKwNil)
	if err != nil {
		return err
	}
	b.allIdx, err = readIndexLists(&r, n, dn, refs[len(b.kwIdx):len(b.kwIdx)], offs[n+1:], b.flags, flagAllKwNil)
	if err != nil {
		return err
	}
	if r.End() != nil { // a failed read, or trailing garbage
		return errBlockCorrupt
	}
	// The bound can be twice the refs (two-byte refs into a large
	// dictionary); a cached block keeps only what it uses.
	nk, used := len(b.kwIdx), len(b.kwIdx)+len(b.allIdx)
	if refs = refs[:used]; cap(refs) > used+used/8 {
		refs = slices.Clone(refs)
	}
	b.kwIdx, b.allIdx = refs[:nk:nk], refs[nk:used:used]
	b.kwOff, b.allOff = offs[:n+1:n+1], offs[n+1:]
	return nil
}

// readIndexLists appends n length-prefixed dictionary-index lists to
// idx, which has the capacity for them, and writes n+1 offsets into
// off. A record whose nil flag is set must have an empty list.
func readIndexLists(r *codec.Reader, n, dn int, idx, off []uint32, flags []byte, nilFlag byte) ([]uint32, error) {
	off[0] = 0
	for i := 0; i < n; i++ {
		m := r.UvarintInt()
		if r.Err() != nil || m > r.Remaining() || m > cap(idx)-len(idx) { // each ref is ≥ 1 byte
			return idx, errBlockCorrupt
		}
		if m > 0 && flags[i]&nilFlag != 0 {
			return idx, errBlockCorrupt
		}
		for j := 0; j < m; j++ {
			v := r.Uvarint()
			if v >= uint64(dn) {
				return idx, errBlockCorrupt
			}
			idx = append(idx, uint32(v))
		}
		off[i+1] = uint32(len(idx))
	}
	return idx, nil
}
