// Package codec is the byte layer under the module's binary formats: a
// sticky-error Reader over a byte slice, which the WAL's batch records,
// the archive's blocks and segment index, and detector checkpoints are
// decoded with, and a Writer that streams a checksummed image in
// bounded frames, which checkpoints are written with.
//
// Reader's bounds rules are the same for every format built on it, so a
// corrupt or hostile input costs at most its own length:
//   - a count may not exceed the bytes left divided by the smallest
//     encoded element (Count);
//   - a length may not exceed the bytes left (Len, Next);
//   - bytes left over after the last field are an error (End).
//
// The first failure sticks: every later read returns a zero value, so a
// decoder checks Err once per record rather than after every field.
//
// A framed image (Writer, ReadFrames) is the caller's magic header, then
// frames — a 4-byte little-endian payload length and the payload — then
// the CRC-32 (Castagnoli) of every byte before it, magic and frame
// headers included, as 4 little-endian bytes. Every frame but the last
// holds exactly FrameSize bytes; a shorter one, possibly empty, is the
// last. The image ends at its checksum, so a reader stops exactly there
// and whatever follows in the same file is left unread.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"
)

// errVarint reports a varint that runs past the input or overflows 64
// bits.
var errVarint = errors.New("varint runs past the end or overflows")

// Reader decodes consecutive fields from b. It is a value: copy it to
// look ahead without consuming.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's failure unless one is already set.
// Decoders use it for semantic checks, so one Err check covers both.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Off returns the number of bytes consumed.
func (r *Reader) Off() int { return r.off }

// Remaining returns the number of bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// End returns the reader's failure, or an error if bytes are left over.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		r.err = errVarint
		return 0
	}
	r.off += k
	return v
}

// Varint reads a zigzag signed varint, as binary.AppendVarint writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zigzag varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("value %d overflows an int", v))
		return 0
	}
	return int(v)
}

// UvarintInt reads an unsigned varint that must fit a non-negative int.
func (r *Reader) UvarintInt() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Fail(fmt.Errorf("value %d overflows an int", v))
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.Next(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0, 1:
		return b == 1
	default:
		r.Fail(fmt.Errorf("boolean byte %#x", b))
		return false
	}
}

// Float64 reads the 8 little-endian bytes of an IEEE 754 double.
func (r *Reader) Float64() float64 {
	if p := r.Next(8); p != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Count reads an element count: a uvarint that may not exceed the bytes
// left divided by minSize, the smallest encoding of one element. A slice
// made from it is therefore bounded by the input's length.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if left := r.Remaining(); n > uint64(left/minSize) {
		r.err = fmt.Errorf("count %d exceeds what %d bytes can hold", n, left)
		return 0
	}
	return int(n)
}

// Len reads a byte length: a uvarint that may not exceed the bytes left.
func (r *Reader) Len() int { return r.Count(1) }

// Next consumes and returns the next n bytes (a view into the input), or
// nil with the reader failed if fewer than n are left.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.err = fmt.Errorf("%d bytes wanted, %d left", n, r.Remaining())
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// String reads a length-prefixed string into a fresh allocation.
func (r *Reader) String() string { return string(r.Next(r.Len())) }

// Strings appends n length-prefixed strings to dst. All n share one
// allocation, a copy of the region they occupy.
func (r *Reader) Strings(dst []string, n int) []string {
	look := *r
	for range n {
		look.Next(look.Len())
	}
	if look.err != nil {
		r.err = look.err
		return dst
	}
	start := r.off
	region := string(r.b[start:look.off])
	dst = slices.Grow(dst, n)
	for range n {
		size := r.Len()
		at := r.off - start
		r.off += size
		dst = append(dst, region[at:at+size])
	}
	return dst
}

// FrameSize is the payload size of every frame of a framed image but the
// last, and the most a Writer buffers.
const FrameSize = 64 << 10

const frameHeader = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// framePool recycles the Writers' frame buffers, so a Writer holds its
// buffer only from NewWriter to Close.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, frameHeader, frameHeader+FrameSize)
	return &b
}}

// Writer streams a framed image to an io.Writer (see the package
// comment): it buffers at most one frame and keeps a running checksum,
// so the image is never held whole. Errors stick; Close reports them.
type Writer struct {
	w      io.Writer
	buf    []byte // frame header space, then up to FrameSize payload bytes
	pooled *[]byte
	crc    uint32
	err    error
}

// NewWriter writes magic to w and returns a Writer for the image's
// payload. Close it to finish the image.
func NewWriter(w io.Writer, magic string) *Writer {
	fw := &Writer{w: w, pooled: framePool.Get().(*[]byte)}
	fw.buf = (*fw.pooled)[:frameHeader]
	fw.emit([]byte(magic))
	return fw
}

func (w *Writer) emit(p []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
	_, w.err = w.w.Write(p)
}

// flush writes the buffered payload as one frame.
func (w *Writer) flush() {
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-frameHeader))
	w.emit(w.buf)
	w.buf = w.buf[:frameHeader]
}

// Write appends p to the payload; it never fails itself (Close reports
// a failed write underneath).
func (w *Writer) Write(p []byte) (int, error) {
	put(w, p)
	return len(p), nil
}

// put appends p to the payload a frame at a time.
func put[T string | []byte](w *Writer, p T) {
	for len(p) > 0 {
		k := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+k]
		p = p[k:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
}

// room reports whether the buffer takes n more bytes without a flush.
func (w *Writer) room(n int) bool { return cap(w.buf)-len(w.buf) >= n }

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.room(binary.MaxVarintLen64) {
		w.buf = binary.AppendUvarint(w.buf, v)
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	put(w, binary.AppendUvarint(tmp[:0], v))
}

// Varint appends v as a zigzag signed varint.
func (w *Writer) Varint(v int64) { w.Uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Byte appends one byte.
func (w *Writer) Byte(c byte) {
	if w.room(1) {
		w.buf = append(w.buf, c)
		return
	}
	put(w, []byte{c})
}

// Bool appends 1 for true, 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Float64 appends the 8 little-endian bytes of v's IEEE 754 bits.
func (w *Writer) Float64(v float64) {
	if w.room(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
		return
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	put(w, tmp[:])
}

// String appends s with a uvarint length prefix.
func (w *Writer) String(s string) {
	if w.room(binary.MaxVarintLen64 + len(s)) {
		w.buf = append(binary.AppendUvarint(w.buf, uint64(len(s))), s...)
		return
	}
	w.Uvarint(uint64(len(s)))
	put(w, s)
}

// Close writes the last frame and the checksum, returns the buffer to
// the pool and reports the first write error. The Writer is unusable
// afterwards.
func (w *Writer) Close() error {
	if len(w.buf) == cap(w.buf) {
		w.flush() // a full frame is never the last
	}
	w.flush()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], w.crc)
	w.emit(sum[:])
	framePool.Put(w.pooled)
	w.buf, w.pooled = nil, nil
	return w.err
}

// ReadFrames reads the frames and checksum of a framed image whose magic
// header the caller has already read from r and matched; magic goes into
// the checksum. It returns the payload, reading nothing past the
// checksum. size is how many bytes r holds from here when the caller
// knows it — exactly or as an upper bound, such as what is left of the
// file the image lies in — and 0 otherwise. A known size is the
// payload's one allocation (the frame headers and checksum are not part
// of it, so it is never short); without one the payload grows with the
// frames actually read. Either way a corrupt header cannot make it
// allocate more than about twice what the input holds, plus one frame.
func ReadFrames(r io.Reader, magic string, size int) ([]byte, error) {
	crc := crc32.Update(0, castagnoli, []byte(magic))
	var payload []byte
	if size > 0 {
		payload = make([]byte, 0, size)
	}
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("frame header: %w", noEOF(err))
		}
		crc = crc32.Update(crc, castagnoli, hdr[:])
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n > FrameSize {
			return nil, fmt.Errorf("frame of %d bytes, the most is %d", n, FrameSize)
		}
		at := len(payload)
		payload = slices.Grow(payload, n)[:at+n]
		if _, err := io.ReadFull(r, payload[at:]); err != nil {
			return nil, fmt.Errorf("frame of %d bytes: %w", n, noEOF(err))
		}
		crc = crc32.Update(crc, castagnoli, payload[at:])
		if n < FrameSize {
			break
		}
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("checksum: %w", noEOF(err))
	}
	if got := binary.LittleEndian.Uint32(hdr[:]); got != crc {
		return nil, fmt.Errorf("checksum %08x, computed %08x", got, crc)
	}
	return payload, nil
}

// noEOF reports a clean EOF inside an image as the truncation it is.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteAscending writes xs, which must be strictly ascending, as a
// uvarint count and then uvarint deltas: the first element from zero,
// every later one from its predecessor.
func WriteAscending[T ~uint32 | ~uint64](w *Writer, xs []T) {
	w.Uvarint(uint64(len(xs)))
	var prev T
	for _, x := range xs {
		w.Uvarint(uint64(x - prev))
		prev = x
	}
}

// ReadAscending appends a list WriteAscending wrote to dst. A list that
// is not strictly ascending or leaves T's range fails the reader.
func ReadAscending[T ~uint32 | ~uint64](r *Reader, dst []T) []T {
	n := r.Count(1)
	dst = slices.Grow(dst, n)
	var prev uint64
	for i := range n {
		d := r.Uvarint()
		v := prev + d
		switch {
		case r.err != nil:
			return dst
		case i > 0 && d == 0:
			r.err = errors.New("list not strictly ascending")
			return dst
		case v < prev || uint64(T(v)) != v:
			r.err = fmt.Errorf("list element %d+%d out of range", prev, d)
			return dst
		}
		dst = append(dst, T(v))
		prev = v
	}
	return dst
}
