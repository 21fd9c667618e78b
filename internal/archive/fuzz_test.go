package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzBlockDecode drives decodeBlock with arbitrary bytes: corrupt or
// truncated payloads must return an error, never panic, never run away.
// (In production a CRC-32C frame check sits in front of the decoder,
// so this is defense in depth for the untrusted-bytes path.)
func FuzzBlockDecode(f *testing.F) {
	var enc blockEncoder
	seeds := [][]Record{
		{rec(1, 0, 5, "alpha", "beta"), rec(2, 3, 9, "alpha"), rec(7, -2, 100)},
		variedRecords(),
		{rec(1, 0, 0)},
	}
	for _, recs := range seeds {
		payload, _, err := enc.encode(recs)
		if err != nil {
			f.Fatal(err)
		}
		p := append([]byte(nil), payload...)
		f.Add(p)
		f.Add(p[:len(p)/2])    // truncation
		f.Add(append(p, 0xff)) // trailing garbage
		mut := append([]byte(nil), p...)
		mut[len(mut)/3] ^= 0x40 // bit flip
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, payload []byte) {
		b := new(Block)
		if err := decodeBlock(payload, b); err != nil {
			return // rejected cleanly — the only requirement
		}
		n := b.Len()
		if n > maxBlockRecords {
			t.Fatalf("decode produced %d records from a %d-byte payload", n, len(payload))
		}
		// Touching every row through both readers catches out-of-bounds
		// columns, offsets and dictionary indexes.
		for i := 0; i < n; i++ {
			r := b.Record(i)
			_ = r.State
			for _, kws := range [][]uint32{b.Keywords(i), b.AllKeywords(i)} {
				for _, d := range kws {
					_ = b.Dict[d]
				}
			}
			if len(r.Keywords) != len(b.Keywords(i)) || len(r.AllKeywords) != len(b.AllKeywords(i)) {
				t.Fatalf("row %d: Record and columns disagree on keyword counts", i)
			}
		}
	})
}

// FuzzSegmentIndex drives readIndex with arbitrary segment-file bytes.
// With fix set, the frame the trailer points at first gets a correct
// length and CRC, so mutations reach the index decoder instead of
// stopping at the checksum. Nothing may panic, and any index the decoder
// accepts must describe zones that ascend without overlap inside the
// file and together hold exactly the header's record count. Every image
// the index decoder accepts is also fed to what a restart reads from a
// WAL snapshot — decodeSegment and RestoreBuffer — which must agree, and
// when they accept it must hand back the header's count of records in
// ascending ordinals.
func FuzzSegmentIndex(f *testing.F) {
	dir, opt := f.TempDir(), Options{}.withDefaults()
	for _, recs := range [][]Record{
		{rec(1, 0, 5, "alpha", "beta"), rec(2, 3, 9, "alpha"), rec(7, -2, 100)},
		variedRecords(),
	} {
		_, raw, err := encodeSegment(recs, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, false)
		f.Add(raw[:len(raw)-1], true) // truncation
		mut := bytes.Clone(raw)
		mut[len(mut)-trailerLen-3] ^= 0x10 // inside the index payload
		f.Add(mut, false)
		f.Add(mut, true)
	}
	f.Add([]byte{}, true)

	f.Fuzz(func(t *testing.T, file []byte, fix bool) {
		file = bytes.Clone(file)
		if fix {
			fixIndexFrame(file)
		}
		m, err := readIndex(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			return // rejected cleanly
		}
		end, count := int64(colHeaderLen), 0
		for i, z := range m.Blocks {
			if z.Off < end || z.Len <= frameHdrLen || z.Off+int64(z.Len) > int64(len(file)) {
				t.Fatalf("zone %d [%d, +%d) overlaps or leaves the %d-byte file", i, z.Off, z.Len, len(file))
			}
			if z.LastSeq < z.FirstSeq || (i > 0 && z.FirstSeq <= m.Blocks[i-1].LastSeq) {
				t.Fatalf("zone %d seqs [%d, %d] do not ascend", i, z.FirstSeq, z.LastSeq)
			}
			end = z.Off + int64(z.Len)
			count += z.Count
		}
		hdr := int(binary.LittleEndian.Uint32(file[21:]))
		if count != m.Count || count != hdr {
			t.Fatalf("zones count %d records, index %d, header %d", count, m.Count, hdr)
		}

		recs, err := decodeSegment(file)
		l := &Log{dir: dir, opt: opt, fs: opt.FS} // a fresh Log: seals land in dir
		if rerr := l.RestoreBuffer(bytes.NewReader(file), func(error) {}); (rerr == nil) != (err == nil) {
			t.Fatalf("decodeSegment = %v but RestoreBuffer = %v", err, rerr)
		}
		if err != nil {
			return // rejected cleanly
		}
		if len(recs) != hdr {
			t.Fatalf("decoded %d records, header %d", len(recs), hdr)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("record %d has ordinal %d after %d", i, recs[i].Seq, recs[i-1].Seq)
			}
		}
		want := len(recs)
		if recs[0].Seq == 0 {
			want-- // below every ordinal Append accepts
		}
		if l.EventCount() != want || l.LastSeq() != recs[len(recs)-1].Seq {
			t.Fatalf("restored %d records up to ordinal %d, want %d up to %d",
				l.EventCount(), l.LastSeq(), want, recs[len(recs)-1].Seq)
		}
	})
}

// fixIndexFrame rewrites the length and CRC of the frame the trailer
// points at to match its bytes, when the trailer points inside the file.
func fixIndexFrame(file []byte) {
	if len(file) < colHeaderLen+frameHdrLen+trailerLen {
		return
	}
	end := uint64(len(file) - trailerLen)
	off := binary.LittleEndian.Uint64(file[end:])
	if off < colHeaderLen || off > end-frameHdrLen {
		return
	}
	payload := file[off+frameHdrLen : end]
	binary.LittleEndian.PutUint32(file[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(file[off+4:], crc32.Checksum(payload, castagnoli))
}
