package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/stream"
)

// The body of a batch record (kind 'M'; the layout is in the package
// comment). Every message is encoded on its own, never as a delta from
// the one before, so its bytes do not depend on its neighbours, and the
// text is copied verbatim, so a replayed text is byte-equal to the
// appended one whatever bytes it holds (invalid UTF-8 included).

// minMessageBytes is the smallest encoded message: four one-byte
// varints and an empty text. It bounds the count a body may claim, so a
// corrupt count cannot drive a large allocation.
const minMessageBytes = 4

var errVarint = errors.New("varint runs past the record or overflows")

// appendBatch appends the body of a batch record holding msgs to dst.
func appendBatch(dst []byte, msgs []stream.Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for i := range msgs {
		m := &msgs[i]
		dst = binary.AppendUvarint(dst, m.ID)
		dst = binary.AppendUvarint(dst, m.User)
		dst = binary.AppendVarint(dst, m.Time)
		dst = binary.AppendUvarint(dst, uint64(len(m.Text)))
		dst = append(dst, m.Text...)
	}
	return dst
}

// decodeBatch decodes a batch record's body into dst's backing array,
// growing it only when the body holds more messages than it fits. The
// texts are substrings of one string copied from body, so a record costs
// one allocation however many messages it holds, and body may be reused
// as soon as decodeBatch returns.
func decodeBatch(dst []stream.Message, body []byte) ([]stream.Message, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return dst[:0], fmt.Errorf("message count: %w", errVarint)
	}
	body = body[k:]
	if n > uint64(len(body)/minMessageBytes) {
		return dst[:0], fmt.Errorf("message count %d exceeds what %d bytes can hold", n, len(body))
	}
	dst = slices.Grow(dst[:0], int(n))[:n]
	text := string(body)
	r := varintReader{b: body}
	for i := range dst {
		m := &dst[i]
		m.ID = r.uvarint()
		m.User = r.uvarint()
		u := r.uvarint()
		m.Time = int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint wrote it
		size := r.uvarint()
		if r.bad {
			return dst[:0], fmt.Errorf("message %d: %w", i, errVarint)
		}
		if size > uint64(len(body)-r.off) {
			return dst[:0], fmt.Errorf("message %d: text of %d bytes, %d left in the record", i, size, len(body)-r.off)
		}
		m.Text = text[r.off : r.off+int(size)]
		r.off += int(size)
	}
	if r.off != len(body) {
		return dst[:0], fmt.Errorf("%d trailing bytes after %d messages", len(body)-r.off, n)
	}
	return dst, nil
}

// varintReader reads consecutive uvarints from b. The first one that
// runs past b or overflows 64 bits sets bad, and every later read
// returns 0, so a decoder checks once per message.
type varintReader struct {
	b   []byte
	off int
	bad bool
}

func (r *varintReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		r.bad = true
		return 0
	}
	r.off += k
	return v
}
