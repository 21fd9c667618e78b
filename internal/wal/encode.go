package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/codec"
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
	r := codec.NewReader(body)
	n := r.Count(minMessageBytes)
	if err := r.Err(); err != nil {
		return dst[:0], fmt.Errorf("message count: %w", err)
	}
	dst = slices.Grow(dst[:0], n)[:n]
	base := r.Off()
	text := string(body[base:])
	for i := range dst {
		m := &dst[i]
		m.ID = r.Uvarint()
		m.User = r.Uvarint()
		m.Time = r.Varint()
		size := r.Uvarint()
		if err := r.Err(); err != nil {
			return dst[:0], fmt.Errorf("message %d: %w", i, err)
		}
		if size > uint64(r.Remaining()) {
			return dst[:0], fmt.Errorf("message %d: text of %d bytes, %d left in the record", i, size, r.Remaining())
		}
		at := r.Off() - base
		m.Text = text[at : at+int(size)]
		r.Next(int(size))
	}
	if err := r.End(); err != nil {
		return dst[:0], fmt.Errorf("after %d messages: %w", n, err)
	}
	return dst, nil
}
