package archive

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/vfs"
)

// variedRecords exercises every encoding path: nil vs empty keyword
// slices, negative and non-monotonic quanta, large ID jumps, exact
// float bit patterns, merge/split links, every flag.
func variedRecords() []Record {
	return []Record{
		{Seq: 1, ID: 99999999999, State: "ended", Keywords: []string{"alpha", "beta"},
			AllKeywords: []string{"alpha", "beta", "gamma"}, Rank: 1.2345678901234567,
			PeakRank: 2.5, BornQuantum: 10, LastQuantum: 20, Evolved: true, Size: 3,
			Support: 17, Reported: true, FirstReported: 12},
		{Seq: 2, ID: 5, State: "retired", Keywords: nil, AllKeywords: nil,
			Rank: math.Inf(1), PeakRank: -0.0, BornQuantum: -4, LastQuantum: 0,
			Spurious: true, MergedInto: 42},
		{Seq: 4, ID: math.MaxUint64, State: "ended", Keywords: []string{},
			AllKeywords: []string{}, Rank: 1e-308, PeakRank: math.MaxFloat64,
			BornQuantum: 7, LastQuantum: 7, SplitFrom: 1, Size: -1},
		{Seq: 5, ID: 6, State: "ended", Keywords: []string{"alpha"},
			Rank: 0.1 + 0.2, PeakRank: 0.30000000000000004, BornQuantum: 0,
			LastQuantum: 1000000, Support: 1 << 30, FirstReported: 999},
	}
}

// sameRecord compares every field, Seq included (Record keeps it off
// the wire, so a JSON comparison would not see it), floats by bit
// pattern and keyword slices by nil-ness as well as content.
func sameRecord(a, b Record) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.Rank) == math.Float64bits(b.Rank) &&
		math.Float64bits(a.PeakRank) == math.Float64bits(b.PeakRank)
}

func TestBlockRoundTrip(t *testing.T) {
	recs := variedRecords()
	var enc blockEncoder
	payload, zone, err := enc.encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	if zone.Count != len(recs) || zone.FirstSeq != 1 || zone.LastSeq != 5 {
		t.Fatalf("zone = %+v", zone)
	}
	if zone.MinQuantum != -4 || zone.MaxQuantum != 1000000 {
		t.Fatalf("zone quanta = [%d,%d]", zone.MinQuantum, zone.MaxQuantum)
	}
	if zone.MaxRank != math.MaxFloat64 {
		t.Fatalf("zone rank = %v", zone.MaxRank)
	}

	b := new(Block)
	if err := decodeBlock(payload, b); err != nil || b.Len() != len(recs) {
		t.Fatalf("decode: n=%d err=%v", b.Len(), err)
	}
	for i := range recs {
		got := b.Record(i)
		if !sameRecord(recs[i], got) {
			t.Fatalf("record %d round-trip:\n want %+v\n have %+v", i, recs[i], got)
		}
		if (got.Keywords == nil) != (recs[i].Keywords == nil) || (got.AllKeywords == nil) != (recs[i].AllKeywords == nil) ||
			b.KeywordsNil(i) != (recs[i].Keywords == nil) {
			t.Fatalf("record %d nil-ness not preserved", i)
		}
	}
	// The zone filter admits every keyword that appears.
	for _, kw := range []string{"alpha", "beta", "gamma"} {
		if !zone.bf.mayContain(kw) {
			t.Fatalf("zone bloom false negative for %q", kw)
		}
	}
}

// TestBlockDecodeScratchReuse decodes two different blocks into one
// Block, as the pool reuses it, and verifies a Record materialised from
// the first survives — the contract Open's reload and ScanPred's
// callers depend on.
func TestBlockDecodeScratchReuse(t *testing.T) {
	var enc blockEncoder
	p1, _, err := enc.encode([]Record{rec(1, 0, 1, "first-kw", "shared")})
	if err != nil {
		t.Fatal(err)
	}
	p1 = append([]byte(nil), p1...) // encoder reuses its buffer
	p2, _, err := enc.encode([]Record{rec(2, 0, 1, "second-kw")})
	if err != nil {
		t.Fatal(err)
	}
	b := new(Block)
	if err := decodeBlock(p1, b); err != nil {
		t.Fatal(err)
	}
	first := b.Record(0)
	if err := decodeBlock(p2, b); err != nil {
		t.Fatal(err)
	}
	if b.Record(0).Keywords[0] != "second-kw" {
		t.Fatalf("second decode reads %+v", b.Record(0))
	}
	if first.Keywords[0] != "first-kw" || first.Keywords[1] != "shared" || first.State != "ended" {
		t.Fatalf("first block's strings corrupted by reuse: %+v", first)
	}
}

// TestBlockPoolBounds: the pool takes back a block by its row and
// dictionary capacity, so a default-sized block with a large vocabulary
// is reused and only an oversized one is dropped.
func TestBlockPoolBounds(t *testing.T) {
	decoded := func(rows, kwsPerRow int) *Block {
		recs := make([]Record, rows)
		for i := range recs {
			kws := make([]string, kwsPerRow)
			for j := range kws {
				kws[j] = fmt.Sprintf("kw-%d-%d", i, j)
			}
			recs[i] = rec(uint64(i+1), 0, 1, kws...)
		}
		var enc blockEncoder
		payload, _, err := enc.encode(recs)
		if err != nil {
			t.Fatal(err)
		}
		b := new(Block)
		if err := decodeBlock(payload, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	if b := decoded(defaultBlockEvents, 20); len(b.Dict) <= maxPooledRows || !b.poolable() {
		t.Fatalf("a %d-row block with %d dictionary entries is not pooled", b.Len(), len(b.Dict))
	}
	if b := decoded(maxPooledRows+1, 1); b.poolable() {
		t.Fatalf("a %d-row block is pooled", b.Len())
	}
}

// TestBlockDecodeRejectsTruncation: every proper prefix of a valid
// payload must fail cleanly.
func TestBlockDecodeRejectsTruncation(t *testing.T) {
	var enc blockEncoder
	payload, _, err := enc.encode(variedRecords())
	if err != nil {
		t.Fatal(err)
	}
	b := new(Block)
	for cut := 0; cut < len(payload); cut++ {
		if err := decodeBlock(payload[:cut], b); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(payload))
		}
	}
	// And appended garbage is trailing-byte corruption, not ignored.
	if err := decodeBlock(append(append([]byte(nil), payload...), 0), b); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// TestWriteAndScanColFile: a written segment's index reads back exactly
// as the writer built it, and the blocks it locates decode to the
// records.
func TestWriteAndScanColFile(t *testing.T) {
	dir := t.TempDir()
	var recs []Record
	for i := uint64(1); i <= 700; i++ {
		recs = append(recs, rec(i, int(i), int(i)+3, fmt.Sprintf("kw-%d", i%50)))
	}
	m, image, err := encodeSegment(recs, 256)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 700 || m.FirstSeq != 1 || m.LastSeq != 700 || len(m.Blocks) != 3 {
		t.Fatalf("meta = %+v", m)
	}
	stageFile(t, dir, segName(1, colExt), image)
	read, err := loadSegment(vfs.OS, filepath.Join(dir, segName(1, colExt)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(read, m) {
		t.Fatalf("index read back differs from the written one:\n want %+v\n have %+v", m, read)
	}
	back, err := decodeSegment(image)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) || !sameRecord(back[0], recs[0]) || !sameRecord(back[699], recs[699]) {
		t.Fatalf("decodeSegment decoded %d records, want %d", len(back), len(recs))
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got, _ := scanMatching(t, l, 0, -1, "")
	if len(got) != len(recs) {
		t.Fatalf("scan = %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !sameRecord(recs[i], got[i]) {
			t.Fatalf("record %d: want %+v have %+v", i, recs[i], got[i])
		}
	}
}
