package archive

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
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
//	         keyword slices, so JSON null vs [] survives a v1→v2 rewrite)
//	state    column: n × uvarint dictionary index
//	keywords column: n × (uvarint m, m × uvarint dictionary index)
//	all_keywords column: same shape
//
// The decoder never trusts the bytes: every varint read is
// bounds-checked, dictionary indexes are range-checked, counts are
// clamped, and the payload must be consumed exactly — any violation is
// an error, never a panic (the fuzz target in fuzz_test.go enforces
// this). A block decodes into a pooled Block: columns whose capacity
// the pool keeps, and a dictionary carved from one backing string per
// block, so a decoded block costs O(1) allocations regardless of record
// count. The columns are reused once the Block is released; the
// dictionary strings, and the Records materialised from a block, are
// not.
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
// for concurrent use; the compactor owns one per rewrite.
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
// scan hands out Blocks from a pool; the columns are valid until
// Release and must not be written.
type Block struct {
	// Dict is the block's dictionary: states and keywords, carved from
	// one backing string per decode, so its strings outlive Release.
	Dict []string

	Seq, ID, MergedInto, SplitFrom                         []uint64
	BornQuantum, LastQuantum, Size, Support, FirstReported []int
	Rank, PeakRank                                         []float64
	State                                                  []uint32 // index into Dict

	flags         []byte
	kwIdx, allIdx []uint32 // flat keyword dictionary indexes
	kwOff, allOff []uint32 // n+1 offsets into kwIdx / allIdx
	arena         []string // Record's keyword strings: fresh per decode, never reused
}

var blockPool = sync.Pool{New: func() any { return new(Block) }}

// maxPooledRows and maxPooledDict cap the blocks the pool takes back,
// by row capacity and by dictionary capacity: a rare oversized block
// must not pin its columns for the life of the process. A row adds at
// most its state and its keywords to the dictionary — about 13 strings
// for a record with 6 keywords and 6.5 history keywords — so the
// dictionary bound allows 16 per pooled row.
const (
	maxPooledRows = 4096
	maxPooledDict = 16 * maxPooledRows
)

// Release hands b back to the pool. Nothing may read b's columns
// afterwards; call it at most once per block a scan handed out.
func (b *Block) Release() {
	if b.poolable() {
		blockPool.Put(b)
	}
}

func (b *Block) poolable() bool {
	return cap(b.ID) <= maxPooledRows && cap(b.Dict) <= maxPooledDict
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

// Record materialises row i. Its keyword slices are carved from one
// arena per decode, built at the first call, so a Record stays valid
// after Release.
func (b *Block) Record(i int) Record {
	nkw := uint32(len(b.kwIdx))
	if b.arena == nil && nkw+uint32(len(b.allIdx)) > 0 {
		b.arena = make([]string, 0, int(nkw)+len(b.allIdx))
		for _, d := range b.kwIdx {
			b.arena = append(b.arena, b.Dict[d])
		}
		for _, d := range b.allIdx {
			b.arena = append(b.arena, b.Dict[d])
		}
	}
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
	if !b.KeywordsNil(i) {
		rec.Keywords = b.strings(b.kwOff[i], b.kwOff[i+1])
	}
	if b.flags[i]&flagAllKwNil == 0 {
		rec.AllKeywords = b.strings(nkw+b.allOff[i], nkw+b.allOff[i+1])
	}
	return rec
}

// strings is arena[lo:hi], or the shared empty slice when that is empty.
func (b *Block) strings(lo, hi uint32) []string {
	if lo == hi {
		return emptyStrings
	}
	return b.arena[lo:hi:hi]
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// byteReader is the decoder's bounds-checked cursor. All read methods
// return an error instead of panicking on truncated or oversized input.
type byteReader struct {
	b   []byte
	off int
}

var errBlockCorrupt = fmt.Errorf("archive: corrupt block")

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errBlockCorrupt
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errBlockCorrupt
	}
	r.off += n
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if len(r.b)-r.off < 8 {
		return 0, errBlockCorrupt
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// intUvarint reads a uvarint that must fit a non-negative int.
func (r *byteReader) intUvarint() (int, error) {
	v, err := r.uvarint()
	if err != nil || v > math.MaxInt64 || int64(v) > int64(maxInt) {
		return 0, errBlockCorrupt
	}
	return int(v), nil
}

const maxInt = int(^uint(0) >> 1)

// decodeBlock decodes one block payload column-at-a-time into b,
// replacing whatever b held. Corrupt input returns an error wrapping
// errBlockCorrupt, never panics; b's contents are then unspecified.
func decodeBlock(payload []byte, b *Block) error {
	r := &byteReader{b: payload}
	n, err := r.intUvarint()
	if err != nil || n < 1 || n > maxBlockRecords {
		return errBlockCorrupt
	}
	b.arena = nil // Records materialised from the previous decode keep theirs

	// Dictionary: one backing string per block, entries carved by slicing.
	dn, err := r.intUvarint()
	if err != nil || dn > maxBlockDict {
		return errBlockCorrupt
	}
	b.Dict = grow(b.Dict, dn)
	lens := byteReader{b: r.b, off: r.off} // re-reads the lengths below
	total := 0
	for i := 0; i < dn; i++ {
		ln, err := r.intUvarint()
		// Each length is bounded by the payload, so with dn ≤ 2²⁰ the
		// running total cannot overflow int on 64-bit.
		if err != nil || ln > len(r.b)-r.off {
			return errBlockCorrupt
		}
		total += ln
	}
	if total > len(r.b)-r.off {
		return errBlockCorrupt
	}
	backing := string(r.b[r.off : r.off+total])
	r.off += total
	for i, pos := 0, 0; i < dn; i++ {
		ln, _ := lens.intUvarint() // checked by the first pass
		b.Dict[i] = backing[pos : pos+ln]
		pos += ln
	}

	// Fixed columns.
	b.Seq = grow(b.Seq, n)
	b.ID = grow(b.ID, n)
	b.BornQuantum = grow(b.BornQuantum, n)
	b.LastQuantum = grow(b.LastQuantum, n)
	b.Rank = grow(b.Rank, n)
	b.PeakRank = grow(b.PeakRank, n)
	b.Size = grow(b.Size, n)
	b.Support = grow(b.Support, n)
	b.FirstReported = grow(b.FirstReported, n)
	b.MergedInto = grow(b.MergedInto, n)
	b.SplitFrom = grow(b.SplitFrom, n)
	b.flags = grow(b.flags, n)
	b.State = grow(b.State, n)

	if b.Seq[0], err = r.uvarint(); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		d, err := r.uvarint()
		if err != nil || d == 0 { // zero delta = duplicate ordinal
			return errBlockCorrupt
		}
		b.Seq[i] = b.Seq[i-1] + d
		if b.Seq[i] < b.Seq[i-1] { // wrapped
			return errBlockCorrupt
		}
	}
	if b.ID[0], err = r.uvarint(); err != nil {
		return err
	}
	for i := 1; i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return err
		}
		b.ID[i] = b.ID[i-1] + uint64(d)
	}
	b0, err := r.varint()
	if err != nil {
		return err
	}
	b.BornQuantum[0] = int(b0)
	for i := 1; i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return err
		}
		b.BornQuantum[i] = b.BornQuantum[i-1] + int(d)
	}
	for i := 0; i < n; i++ {
		span, err := r.intUvarint()
		if err != nil {
			return err
		}
		b.LastQuantum[i] = b.BornQuantum[i] + span
		if b.LastQuantum[i] < b.BornQuantum[i] { // overflow
			return errBlockCorrupt
		}
	}
	for _, col := range []*[]float64{&b.Rank, &b.PeakRank} {
		for i := 0; i < n; i++ {
			bits, err := r.u64()
			if err != nil {
				return err
			}
			(*col)[i] = math.Float64frombits(bits)
		}
	}
	for _, col := range []*[]int{&b.Size, &b.Support, &b.FirstReported} {
		for i := 0; i < n; i++ {
			v, err := r.varint()
			if err != nil {
				return err
			}
			(*col)[i] = int(v)
		}
	}
	for _, col := range []*[]uint64{&b.MergedInto, &b.SplitFrom} {
		for i := 0; i < n; i++ {
			v, err := r.uvarint()
			if err != nil {
				return err
			}
			(*col)[i] = v
		}
	}
	if len(r.b)-r.off < n {
		return errBlockCorrupt
	}
	copy(b.flags, r.b[r.off:r.off+n])
	r.off += n
	for i := 0; i < n; i++ {
		if b.flags[i]&^flagsKnown != 0 {
			return errBlockCorrupt
		}
	}
	for i := 0; i < n; i++ {
		v, err := r.uvarint()
		if err != nil || v >= uint64(dn) {
			return errBlockCorrupt
		}
		b.State[i] = uint32(v)
	}

	// Keyword index lists: flat refs + per-record offsets.
	b.kwIdx, b.kwOff, err = readIndexLists(r, n, dn, b.kwIdx, b.kwOff, b.flags, flagKwNil)
	if err != nil {
		return err
	}
	b.allIdx, b.allOff, err = readIndexLists(r, n, dn, b.allIdx, b.allOff, b.flags, flagAllKwNil)
	if err != nil {
		return err
	}
	if r.off != len(r.b) {
		return errBlockCorrupt // trailing garbage
	}
	return nil
}

// readIndexLists reads n length-prefixed dictionary-index lists into a
// flat refs slice plus n+1 offsets. A record whose nil flag is set must
// have an empty list.
func readIndexLists(r *byteReader, n, dn int, idx, off []uint32, flags []byte, nilFlag byte) ([]uint32, []uint32, error) {
	off = grow(off, n+1)
	idx = idx[:0]
	off[0] = 0
	for i := 0; i < n; i++ {
		m, err := r.intUvarint()
		if err != nil || m > len(r.b)-r.off { // each ref is ≥ 1 byte
			return idx, off, errBlockCorrupt
		}
		if m > 0 && flags[i]&nilFlag != 0 {
			return idx, off, errBlockCorrupt
		}
		for j := 0; j < m; j++ {
			v, err := r.uvarint()
			if err != nil || v >= uint64(dn) {
				return idx, off, errBlockCorrupt
			}
			idx = append(idx, uint32(v))
		}
		off[i+1] = uint32(len(idx))
	}
	return idx, off, nil
}
