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
// this). Strings are carved from one backing copy per block and
// keyword slices from one arena per block, so a decoded block costs
// O(1) allocations regardless of record count; callers may retain the
// slices (arenas are never reused).
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

// blockScratch is the reusable decode state. Pooled (scratchPool), so a
// steady-state scan allocates only the per-block string backing and
// keyword arena — the two things callers may retain.
type blockScratch struct {
	dict     []string
	seq      []uint64
	id       []uint64
	born     []int
	last     []int
	rank     []float64
	peak     []float64
	size     []int
	support  []int
	firstRep []int
	merged   []uint64
	split    []uint64
	flags    []byte
	state    []uint32
	kwIdx    []uint32 // flat keyword dictionary refs
	kwOff    []uint32 // n+1 offsets into kwIdx
	allIdx   []uint32
	allOff   []uint32
	frame    []byte // frame read buffer
	rec      Record
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

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

// decodeBlock decodes one block payload column-at-a-time and hands each
// record to fn in Seq order. The *Record and its slices stay valid
// after fn returns (they alias per-block arenas that are never reused),
// but the pointer itself is reused — fn must copy the struct if it
// keeps it. fn errors (including ErrStop) abort the decode and are
// returned as-is; corrupt input returns an error wrapping
// errBlockCorrupt, never panics.
func decodeBlock(payload []byte, sc *blockScratch, fn func(*Record) error) (int, error) {
	r := &byteReader{b: payload}
	n, err := r.intUvarint()
	if err != nil || n < 1 || n > maxBlockRecords {
		return 0, errBlockCorrupt
	}

	// Dictionary: one backing string per block, entries carved by slicing.
	dn, err := r.intUvarint()
	if err != nil || dn > maxBlockDict {
		return 0, errBlockCorrupt
	}
	sc.dict = grow(sc.dict, dn)
	sc.seq = grow(sc.seq, dn) // seq column doubles as the length stash
	total := 0
	for i := 0; i < dn; i++ {
		ln, err := r.intUvarint()
		// Each length is bounded by the payload, so with dn ≤ 2²⁰ the
		// running total cannot overflow int on 64-bit.
		if err != nil || ln > len(r.b)-r.off {
			return 0, errBlockCorrupt
		}
		sc.seq[i] = uint64(ln)
		total += ln
	}
	if total > len(r.b)-r.off {
		return 0, errBlockCorrupt
	}
	backing := string(r.b[r.off : r.off+total])
	r.off += total
	for i, pos := 0, 0; i < dn; i++ {
		ln := int(sc.seq[i])
		sc.dict[i] = backing[pos : pos+ln]
		pos += ln
	}

	// Fixed columns.
	sc.seq = grow(sc.seq, n)
	sc.id = grow(sc.id, n)
	sc.born = grow(sc.born, n)
	sc.last = grow(sc.last, n)
	sc.rank = grow(sc.rank, n)
	sc.peak = grow(sc.peak, n)
	sc.size = grow(sc.size, n)
	sc.support = grow(sc.support, n)
	sc.firstRep = grow(sc.firstRep, n)
	sc.merged = grow(sc.merged, n)
	sc.split = grow(sc.split, n)
	sc.flags = grow(sc.flags, n)
	sc.state = grow(sc.state, n)

	if sc.seq[0], err = r.uvarint(); err != nil {
		return 0, err
	}
	for i := 1; i < n; i++ {
		d, err := r.uvarint()
		if err != nil || d == 0 { // zero delta = duplicate ordinal
			return 0, errBlockCorrupt
		}
		sc.seq[i] = sc.seq[i-1] + d
		if sc.seq[i] < sc.seq[i-1] { // wrapped
			return 0, errBlockCorrupt
		}
	}
	if sc.id[0], err = r.uvarint(); err != nil {
		return 0, err
	}
	for i := 1; i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return 0, err
		}
		sc.id[i] = sc.id[i-1] + uint64(d)
	}
	b0, err := r.varint()
	if err != nil {
		return 0, err
	}
	sc.born[0] = int(b0)
	for i := 1; i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return 0, err
		}
		sc.born[i] = sc.born[i-1] + int(d)
	}
	for i := 0; i < n; i++ {
		span, err := r.intUvarint()
		if err != nil {
			return 0, err
		}
		sc.last[i] = sc.born[i] + span
		if sc.last[i] < sc.born[i] { // overflow
			return 0, errBlockCorrupt
		}
	}
	for i := 0; i < n; i++ {
		bits, err := r.u64()
		if err != nil {
			return 0, err
		}
		sc.rank[i] = math.Float64frombits(bits)
	}
	for i := 0; i < n; i++ {
		bits, err := r.u64()
		if err != nil {
			return 0, err
		}
		sc.peak[i] = math.Float64frombits(bits)
	}
	for _, col := range []*[]int{&sc.size, &sc.support, &sc.firstRep} {
		for i := 0; i < n; i++ {
			v, err := r.varint()
			if err != nil {
				return 0, err
			}
			(*col)[i] = int(v)
		}
	}
	for _, col := range []*[]uint64{&sc.merged, &sc.split} {
		for i := 0; i < n; i++ {
			v, err := r.uvarint()
			if err != nil {
				return 0, err
			}
			(*col)[i] = v
		}
	}
	if len(r.b)-r.off < n {
		return 0, errBlockCorrupt
	}
	copy(sc.flags, r.b[r.off:r.off+n])
	r.off += n
	for i := 0; i < n; i++ {
		if sc.flags[i]&^flagsKnown != 0 {
			return 0, errBlockCorrupt
		}
	}
	for i := 0; i < n; i++ {
		v, err := r.uvarint()
		if err != nil || v >= uint64(dn) {
			return 0, errBlockCorrupt
		}
		sc.state[i] = uint32(v)
	}

	// Keyword index lists: flat refs + per-record offsets.
	sc.kwIdx, sc.kwOff, err = readIndexLists(r, n, dn, sc.kwIdx, sc.kwOff, sc.flags, flagKwNil)
	if err != nil {
		return 0, err
	}
	sc.allIdx, sc.allOff, err = readIndexLists(r, n, dn, sc.allIdx, sc.allOff, sc.flags, flagAllKwNil)
	if err != nil {
		return 0, err
	}
	if r.off != len(r.b) {
		return 0, errBlockCorrupt // trailing garbage
	}

	// One string arena for every keyword slice in the block. Handed-out
	// slices alias it, so it is allocated fresh per block, never reused.
	nkw, nall := len(sc.kwIdx), len(sc.allIdx)
	var arena []string
	if nkw+nall > 0 {
		arena = make([]string, nkw+nall)
		for i, di := range sc.kwIdx {
			arena[i] = sc.dict[di]
		}
		for i, di := range sc.allIdx {
			arena[nkw+i] = sc.dict[di]
		}
	}

	rec := &sc.rec
	for i := 0; i < n; i++ {
		*rec = Record{
			Seq:           sc.seq[i],
			ID:            sc.id[i],
			State:         sc.dict[sc.state[i]],
			Rank:          sc.rank[i],
			PeakRank:      sc.peak[i],
			BornQuantum:   sc.born[i],
			LastQuantum:   sc.last[i],
			Evolved:       sc.flags[i]&flagEvolved != 0,
			Size:          sc.size[i],
			Support:       sc.support[i],
			Reported:      sc.flags[i]&flagReported != 0,
			FirstReported: sc.firstRep[i],
			MergedInto:    sc.merged[i],
			SplitFrom:     sc.split[i],
			Spurious:      sc.flags[i]&flagSpurious != 0,
		}
		if sc.flags[i]&flagKwNil == 0 {
			lo, hi := sc.kwOff[i], sc.kwOff[i+1]
			if lo == hi {
				rec.Keywords = emptyStrings
			} else {
				rec.Keywords = arena[lo:hi:hi]
			}
		}
		if sc.flags[i]&flagAllKwNil == 0 {
			lo, hi := uint32(nkw)+sc.allOff[i], uint32(nkw)+sc.allOff[i+1]
			if lo == hi {
				rec.AllKeywords = emptyStrings
			} else {
				rec.AllKeywords = arena[lo:hi:hi]
			}
		}
		if err := fn(rec); err != nil {
			return i, err
		}
	}
	return n, nil
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
