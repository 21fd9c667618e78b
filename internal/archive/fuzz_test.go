package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
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
		sc := new(blockScratch)
		emitted := 0
		n, err := decodeBlock(payload, sc, func(r *Record) error {
			emitted++
			// Touching every field catches out-of-bounds arena slices.
			_ = r.State
			for _, kw := range r.Keywords {
				_ = kw
			}
			for _, kw := range r.AllKeywords {
				_ = kw
			}
			return nil
		})
		if err != nil {
			return // rejected cleanly — the only requirement
		}
		if n != emitted {
			t.Fatalf("decode reported %d records, emitted %d", n, emitted)
		}
		if n > maxBlockRecords {
			t.Fatalf("decode emitted %d records from a %d-byte payload", n, len(payload))
		}
	})
}

// FuzzSegmentIndex drives readIndex with arbitrary segment-file bytes.
// With fix set, the frame the trailer points at first gets a correct
// length and CRC, so mutations reach the index decoder instead of
// stopping at the checksum. Nothing may panic, and any index the decoder
// accepts must describe zones that ascend without overlap inside the
// file and together hold exactly the header's record count.
func FuzzSegmentIndex(f *testing.F) {
	dir := f.TempDir()
	for i, recs := range [][]Record{
		{rec(1, 0, 5, "alpha", "beta"), rec(2, 3, 9, "alpha"), rec(7, -2, 100)},
		variedRecords(),
	} {
		path := filepath.Join(dir, segName(uint64(i), colExt))
		if _, err := writeSegment(vfs.OS, path, recs, 2); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
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
		if hdr := int(binary.LittleEndian.Uint32(file[21:])); count != m.Count || count != hdr {
			t.Fatalf("zones count %d records, index %d, header %d", count, m.Count, hdr)
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
