package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/vfs"
)

// A columnar segment file (ev-<seq>.col) is:
//
//	header: "EVC2" magic, version byte, first/last seq (u64), record
//	        count (u32), min/max quantum (i64) — 41 bytes, little-endian,
//	        enough to resolve segment supersession at Open without the
//	        sidecar
//	body:   CRC-framed blocks: u32 payload length, u32 CRC-32C of the
//	        payload, payload (see block.go)
//
// The zone maps live in the ev-<seq>.col.meta.json sidecar (a segMeta
// with a Blocks list); a missing or stale sidecar is rebuilt by
// decoding every block. Files are written tmp+fsync+rename, so a
// partial .col never becomes visible — a torn write is a swept *.tmp,
// and any CRC or count mismatch inside a visible file is corruption,
// reported rather than silently truncated.
const (
	colExt        = ".col"
	colMetaSuffix = ".col.meta.json"
	colMagic      = "EVC2"
	colVersion    = 1
	colHeaderLen  = 4 + 1 + 8 + 8 + 4 + 8 + 8
	frameHdrLen   = 8
	// maxBlockFrame bounds how large a framed block the reader will
	// buffer (far above anything the writer produces).
	maxBlockFrame = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type colHeader struct {
	firstSeq, lastSeq uint64
	count             int
	minQ, maxQ        int
}

func appendColHeader(b []byte, h colHeader) []byte {
	b = append(b, colMagic...)
	b = append(b, colVersion)
	b = binary.LittleEndian.AppendUint64(b, h.firstSeq)
	b = binary.LittleEndian.AppendUint64(b, h.lastSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(h.count))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(h.minQ)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(h.maxQ)))
	return b
}

func parseColHeader(b []byte) (colHeader, error) {
	var h colHeader
	if len(b) < colHeaderLen || string(b[:4]) != colMagic {
		return h, fmt.Errorf("archive: not a v2 segment")
	}
	if b[4] != colVersion {
		return h, fmt.Errorf("archive: v2 segment version %d not supported", b[4])
	}
	h.firstSeq = binary.LittleEndian.Uint64(b[5:])
	h.lastSeq = binary.LittleEndian.Uint64(b[13:])
	h.count = int(binary.LittleEndian.Uint32(b[21:]))
	h.minQ = int(int64(binary.LittleEndian.Uint64(b[25:])))
	h.maxQ = int(int64(binary.LittleEndian.Uint64(b[33:])))
	return h, nil
}

// writeSegmentV2 writes recs (non-empty, ascending Seq) as a columnar
// segment at path via temp-file + fsync + rename, and returns its
// complete metadata (zone maps, segment-level Bloom). The
// returned meta's File field is left for the caller.
func writeSegmentV2(fsys vfs.FS, path string, recs []Record, blockEvents int) (segMeta, error) {
	tmp := path + ".tmp"
	m, err := writeSegmentTmp(fsys, tmp, recs, blockEvents)
	if err != nil {
		return segMeta{}, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp) //nolint:errcheck // best effort
		return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
	}
	return m, nil
}

// writeSegmentTmp is writeSegmentV2 up to, not including, the commit
// rename: tmp holds the complete, fsynced segment, or is removed on
// error.
func writeSegmentTmp(fsys vfs.FS, tmp string, recs []Record, blockEvents int) (segMeta, error) {
	if len(recs) == 0 {
		return segMeta{}, fmt.Errorf("archive: write v2 segment: no records")
	}
	if blockEvents <= 0 {
		blockEvents = defaultBlockEvents
	}
	var m segMeta
	for i := range recs {
		m.observe(&recs[i])
	}

	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()        //nolint:errcheck // already failing
			fsys.Remove(tmp) //nolint:errcheck // best effort
		}
	}()
	hdr := appendColHeader(nil, colHeader{
		firstSeq: m.FirstSeq, lastSeq: m.LastSeq, count: m.Count,
		minQ: m.MinQuantum, maxQ: m.MaxQuantum,
	})
	if _, err := f.Write(hdr); err != nil {
		return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
	}
	off := int64(len(hdr))
	var enc blockEncoder
	var frame [frameHdrLen]byte
	for start := 0; start < len(recs); start += blockEvents {
		end := min(start+blockEvents, len(recs))
		payload, zone, err := enc.encode(recs[start:end])
		if err != nil {
			return segMeta{}, err
		}
		binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
		if _, err := f.Write(frame[:]); err != nil {
			return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
		}
		if _, err := f.Write(payload); err != nil {
			return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
		}
		zone.Off = off
		zone.Len = frameHdrLen + len(payload)
		off += int64(zone.Len)
		m.Blocks = append(m.Blocks, zone)
	}
	if err := f.Sync(); err != nil {
		return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
	}
	if err := f.Close(); err != nil {
		f = nil
		fsys.Remove(tmp) //nolint:errcheck // best effort
		return segMeta{}, fmt.Errorf("archive: write v2 segment: %w", err)
	}
	f = nil
	return m, nil
}

// readFrame reads and CRC-verifies the block frame z points at,
// returning the payload (aliasing *buf, which is grown as needed).
func readFrame(f io.ReaderAt, z *blockZone, buf *[]byte) ([]byte, error) {
	if z.Len < frameHdrLen+1 || z.Len > maxBlockFrame {
		return nil, fmt.Errorf("archive: block at %d: bad frame length %d: %w", z.Off, z.Len, ErrCorrupt)
	}
	*buf = grow(*buf, z.Len)
	if _, err := f.ReadAt(*buf, z.Off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The file ends inside a frame the zone map says exists:
			// structural damage, not a device error.
			err = fmt.Errorf("truncated frame: %w", ErrCorrupt)
		}
		return nil, fmt.Errorf("archive: block at %d: %w", z.Off, err)
	}
	ln := binary.LittleEndian.Uint32(*buf)
	crc := binary.LittleEndian.Uint32((*buf)[4:])
	payload := (*buf)[frameHdrLen:z.Len]
	if int(ln) != len(payload) || crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("archive: block at %d: frame %w", z.Off, ErrCorrupt)
	}
	return payload, nil
}

// scanColFile streams every record of a v2 segment file in order,
// sequentially (no zone maps needed — the rebuild and compaction read
// path). fn may be nil to only validate frames. zoneFn, when non-nil,
// receives each block's reconstructed zone map.
func scanColFile(fsys vfs.FS, path string, fn func(*Record) error, zoneFn func(blockZone)) (colHeader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return colHeader{}, fmt.Errorf("archive: open v2 segment: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return colHeader{}, fmt.Errorf("archive: stat v2 segment: %w", err)
	}
	var hdrBuf [colHeaderLen]byte
	if _, err := io.ReadFull(f, hdrBuf[:]); err != nil {
		return colHeader{}, fmt.Errorf("archive: %s: short header: %w", path, err)
	}
	hdr, err := parseColHeader(hdrBuf[:])
	if err != nil {
		return colHeader{}, fmt.Errorf("archive: %s: %w", path, err)
	}
	sc := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(sc)
	seen := 0
	var kws []string // per-block keyword accumulator for zone rebuild
	off := int64(colHeaderLen)
	for off < st.Size() {
		if st.Size()-off < frameHdrLen {
			return hdr, fmt.Errorf("archive: %s: torn frame at %d", path, off)
		}
		var fh [frameHdrLen]byte
		if _, err := f.ReadAt(fh[:], off); err != nil {
			return hdr, fmt.Errorf("archive: %s: frame at %d: %w", path, off, err)
		}
		ln := int(binary.LittleEndian.Uint32(fh[:]))
		if ln <= 0 || ln > maxBlockFrame-frameHdrLen || int64(ln) > st.Size()-off-frameHdrLen {
			return hdr, fmt.Errorf("archive: %s: bad frame length %d at %d", path, ln, off)
		}
		z := blockZone{Off: off, Len: frameHdrLen + ln}
		payload, err := readFrame(f, &z, &sc.frame)
		if err != nil {
			return hdr, err
		}
		kws = kws[:0]
		emit := func(r *Record) error {
			z.observe(r)
			seen++
			if zoneFn != nil {
				kws = append(kws, r.Keywords...)
				kws = append(kws, r.AllKeywords...)
			}
			if fn != nil {
				return fn(r)
			}
			return nil
		}
		if _, err := decodeBlock(payload, sc, emit); err != nil {
			return hdr, fmt.Errorf("archive: %s: block at %d: %w", path, off, err)
		}
		if zoneFn != nil {
			// Zone filter rebuilt from the records (the Bloom lives only in
			// the sidecar); sized by the duplicate-counting upper bound of
			// the distinct-keyword count, so it errs slightly large.
			bf := newBloomSized(blockBloomParams(len(kws)))
			for _, kw := range kws {
				bf.add(kw)
			}
			z.Bloom = bf.encode()
			z.bf = bf
			zoneFn(z)
		}
		off += int64(z.Len)
	}
	if seen != hdr.count {
		return hdr, fmt.Errorf("archive: %s: %d of %d records readable", path, seen, hdr.count)
	}
	return hdr, nil
}
