package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/codec"
	"repro/internal/vfs"
)

// A columnar segment file (ev-<first seq>.col) is:
//
//	header:  "EVC2" magic, format version byte, first/last seq (u64),
//	         record count (u32), min/max quantum (i64) — 41 bytes,
//	         little-endian
//	blocks:  CRC-framed: u32 payload length, u32 CRC-32C of the payload,
//	         payload (see block.go)
//	index:   one more frame of the same shape, whose payload is the
//	         segment's keyword Bloom filter (segBloomBytes) followed by
//	         one zone map per block, in file order: uvarint framed length,
//	         uvarint record count, uvarint first seq, uvarint last−first
//	         seq, zigzag min quantum, uvarint max−min quantum, 8-byte max
//	         peak rank, uvarint Bloom byte count and the block's Bloom bits
//	trailer: u64 offset of the index frame
//
// Block offsets are not stored: the blocks tile the file from the end of
// the header to the index frame. The whole file is written under a temp
// name, fsynced and renamed into place, so one rename commits the
// records and the index that describes them; a torn write is a swept
// *.tmp, and any CRC or count mismatch inside a visible file is
// corruption, reported rather than silently truncated. The unsealed
// buffer travels in the same image inside each WAL snapshot
// (Log.WriteBuffer).
const (
	colExt       = ".col"
	colMagic     = "EVC2"
	colVersion   = 2
	colHeaderLen = 4 + 1 + 8 + 8 + 4 + 8 + 8
	frameHdrLen  = 8
	trailerLen   = 8
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

// parseColHeader decodes a segment header. A file that is not a segment
// at all is an error wrapping ErrCorrupt; a segment of another format
// version is not damage, and its error does not wrap it.
func parseColHeader(b []byte) (colHeader, error) {
	var h colHeader
	if len(b) < colHeaderLen || string(b[:4]) != colMagic {
		return h, fmt.Errorf("not a columnar segment: %w", ErrCorrupt)
	}
	if b[4] != colVersion {
		return h, fmt.Errorf("segment format version %d, this build reads only %d "+
			"(docs/PERSISTENCE.md: pre-index directories)", b[4], colVersion)
	}
	h.firstSeq = binary.LittleEndian.Uint64(b[5:])
	h.lastSeq = binary.LittleEndian.Uint64(b[13:])
	h.count = int(binary.LittleEndian.Uint32(b[21:]))
	h.minQ = int(int64(binary.LittleEndian.Uint64(b[25:])))
	h.maxQ = int(int64(binary.LittleEndian.Uint64(b[33:])))
	return h, nil
}

// appendFrame appends payload to b as one CRC frame.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// encodeSegment encodes recs (non-empty, ascending Seq) as one whole
// segment image and returns the segment's metadata with it.
func encodeSegment(recs []Record, blockEvents int) (segMeta, []byte, error) {
	if len(recs) == 0 {
		return segMeta{}, nil, fmt.Errorf("archive: encode segment: no records")
	}
	if blockEvents <= 0 {
		blockEvents = defaultBlockEvents
	}
	var m segMeta
	for i := range recs {
		m.observe(&recs[i])
	}
	b := appendColHeader(nil, colHeader{
		firstSeq: m.FirstSeq, lastSeq: m.LastSeq, count: m.Count,
		minQ: m.MinQuantum, maxQ: m.MaxQuantum,
	})
	var enc blockEncoder
	for start := 0; start < len(recs); start += blockEvents {
		payload, zone, err := enc.encode(recs[start:min(start+blockEvents, len(recs))])
		if err != nil {
			return segMeta{}, nil, err
		}
		zone.Off, zone.Len = int64(len(b)), frameHdrLen+len(payload)
		m.Blocks = append(m.Blocks, zone)
		b = appendFrame(b, payload)
	}
	idxOff := len(b)
	b = appendFrame(b, m.appendIndex(nil))
	b = binary.LittleEndian.AppendUint64(b, uint64(idxOff))
	return m, b, nil
}

// appendIndex appends the index frame's payload for m.
func (m *segMeta) appendIndex(b []byte) []byte {
	b = append(b, m.bf...)
	for i := range m.Blocks {
		z := &m.Blocks[i]
		b = binary.AppendUvarint(b, uint64(z.Len))
		b = binary.AppendUvarint(b, uint64(z.Count))
		b = binary.AppendUvarint(b, z.FirstSeq)
		b = binary.AppendUvarint(b, z.LastSeq-z.FirstSeq)
		b = binary.AppendVarint(b, int64(z.MinQuantum))
		b = binary.AppendUvarint(b, uint64(z.MaxQuantum-z.MinQuantum))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(z.MaxRank))
		b = binary.AppendUvarint(b, uint64(len(z.bf)))
		b = append(b, z.bf...)
	}
	return b
}

// loadSegment reads the header and index of the segment file at path.
func loadSegment(fsys vfs.FS, path string) (segMeta, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return segMeta{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segMeta{}, err
	}
	return readIndex(f, st.Size())
}

// decodeSegment decodes a whole segment image — header, index and every
// block — into its records.
func decodeSegment(image []byte) ([]Record, error) {
	r := bytes.NewReader(image)
	m, err := readIndex(r, int64(len(image)))
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i := range m.Blocks {
		b, err := readBlock(r, &m.Blocks[i])
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Len(); i++ {
			recs = append(recs, b.Record(i))
		}
	}
	return recs, nil
}

// readIndex reads a segment file's header and index — everything needed
// to plan over the segment without touching a block. Damage (a short
// file, a bad frame, an index that disagrees with the header or does not
// tile the file) is an error wrapping ErrCorrupt; a device error is
// returned as is.
func readIndex(r io.ReaderAt, size int64) (segMeta, error) {
	var hb [colHeaderLen]byte
	if err := readFull(r, hb[:], 0); err != nil {
		return segMeta{}, err
	}
	hdr, err := parseColHeader(hb[:])
	if err != nil {
		return segMeta{}, err
	}
	if size < colHeaderLen+frameHdrLen+trailerLen {
		return segMeta{}, fmt.Errorf("short segment: %w", ErrCorrupt)
	}
	var tb [trailerLen]byte
	if err := readFull(r, tb[:], size-trailerLen); err != nil {
		return segMeta{}, err
	}
	idxOff := binary.LittleEndian.Uint64(tb[:])
	if idxOff < colHeaderLen || idxOff > uint64(size-trailerLen-frameHdrLen) {
		return segMeta{}, fmt.Errorf("index offset %d out of range: %w", idxOff, ErrCorrupt)
	}
	frame := make([]byte, size-trailerLen-int64(idxOff))
	if err := readFull(r, frame, int64(idxOff)); err != nil {
		return segMeta{}, err
	}
	payload, err := checkFrame(frame)
	if err != nil {
		return segMeta{}, fmt.Errorf("index %w", err)
	}
	m, err := decodeIndex(hdr, int64(idxOff), payload)
	if err != nil {
		return segMeta{}, fmt.Errorf("index: %w: %w", err, ErrCorrupt)
	}
	return m, nil
}

// decodeIndex decodes an index payload against its segment's header and
// index offset, checking that the zones ascend without overlap, tile the
// blocks region exactly and agree with the header's bounds.
func decodeIndex(hdr colHeader, idxOff int64, payload []byte) (segMeta, error) {
	if len(payload) < segBloomBytes {
		return segMeta{}, errBlockCorrupt
	}
	m := segMeta{FirstSeq: hdr.firstSeq, LastSeq: hdr.lastSeq, Count: hdr.count, bf: bloom(payload[:segBloomBytes])}
	r := codec.NewReader(payload[segBloomBytes:])
	off, count := int64(colHeaderLen), 0
	for r.Remaining() > 0 {
		z := blockZone{Off: off}
		if z.Len = r.UvarintInt(); r.Err() != nil || z.Len <= frameHdrLen || z.Len > maxBlockFrame {
			return segMeta{}, errBlockCorrupt
		}
		if z.Count = r.UvarintInt(); r.Err() != nil || z.Count < 1 || z.Count > hdr.count-count {
			return segMeta{}, errBlockCorrupt
		}
		z.FirstSeq = r.Uvarint()
		// Seqs strictly ascend within a block and across blocks.
		seqSpan := r.Uvarint()
		if r.Err() != nil || seqSpan < uint64(z.Count-1) || z.FirstSeq+seqSpan < z.FirstSeq ||
			(len(m.Blocks) > 0 && z.FirstSeq <= m.Blocks[len(m.Blocks)-1].LastSeq) {
			return segMeta{}, errBlockCorrupt
		}
		z.LastSeq = z.FirstSeq + seqSpan
		minQ := r.Varint()
		qSpan := r.UvarintInt()
		if r.Err() != nil || int(minQ)+qSpan < int(minQ) {
			return segMeta{}, errBlockCorrupt
		}
		z.MinQuantum, z.MaxQuantum = int(minQ), int(minQ)+qSpan
		z.MaxRank = r.Float64()
		nbf := r.UvarintInt()
		if r.Err() != nil || nbf == 0 || nbf%8 != 0 || nbf > r.Remaining() {
			return segMeta{}, errBlockCorrupt
		}
		z.bf = bloom(r.Next(nbf))
		if off += int64(z.Len); off > idxOff {
			return segMeta{}, errBlockCorrupt
		}
		count += z.Count
		if len(m.Blocks) == 0 || z.MinQuantum < m.MinQuantum {
			m.MinQuantum = z.MinQuantum
		}
		if len(m.Blocks) == 0 || z.MaxQuantum > m.MaxQuantum {
			m.MaxQuantum = z.MaxQuantum
		}
		if len(m.Blocks) == 0 || z.MaxRank > m.MaxPeakRank {
			m.MaxPeakRank = z.MaxRank
		}
		m.Blocks = append(m.Blocks, z)
	}
	if off != idxOff || count != hdr.count || len(m.Blocks) == 0 ||
		m.Blocks[0].FirstSeq != hdr.firstSeq || m.Blocks[len(m.Blocks)-1].LastSeq != hdr.lastSeq ||
		m.MinQuantum != hdr.minQ || m.MaxQuantum != hdr.maxQ {
		return segMeta{}, errBlockCorrupt
	}
	return m, nil
}

// checkFrame verifies one whole CRC frame and returns its payload.
func checkFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameHdrLen {
		return nil, fmt.Errorf("frame %w", ErrCorrupt)
	}
	payload := frame[frameHdrLen:]
	if int(binary.LittleEndian.Uint32(frame)) != len(payload) ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, fmt.Errorf("frame %w", ErrCorrupt)
	}
	return payload, nil
}

// readFull reads len(buf) bytes at off; a file that ends first is
// structural damage, not a device error.
func readFull(r io.ReaderAt, buf []byte, off int64) error {
	n, err := r.ReadAt(buf, off)
	switch {
	case n == len(buf):
		return nil
	case err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("truncated at %d: %w", off, ErrCorrupt)
	}
	return err
}

// readFrame reads and CRC-verifies the block frame z points at,
// returning the payload (aliasing *buf, which is grown as needed).
func readFrame(f io.ReaderAt, z *blockZone, buf *[]byte) ([]byte, error) {
	*buf = grow(*buf, z.Len)
	if err := readFull(f, *buf, z.Off); err != nil {
		return nil, fmt.Errorf("archive: block at %d: %w", z.Off, err)
	}
	payload, err := checkFrame(*buf)
	if err != nil {
		return nil, fmt.Errorf("archive: block at %d: %w", z.Off, err)
	}
	return payload, nil
}
