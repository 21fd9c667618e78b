package wal

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
)

// TestAppendBatchZeroAlloc pins the zero-alloc claim of the WAL append
// encode path: with a warm caller-owned buffer, encoding a batch
// allocates nothing.
func TestAppendBatchZeroAlloc(t *testing.T) {
	msgs := batch(1, 64)
	buf := appendBatch(nil, msgs) // warm the buffer
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendBatch(buf[:0], msgs)
	})
	if allocs != 0 {
		t.Fatalf("encode path allocates %.1f times per batch, want 0", allocs)
	}
}

// TestDecodeBatchRejects feeds decodeBatch the ways a body can be
// malformed; each must be an error, never a panic.
func TestDecodeBatchRejects(t *testing.T) {
	good := appendBatch(nil, []stream.Message{{ID: 1, User: 2, Time: -3, Text: "quake"}})
	overflow := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64+1)
	cases := map[string]struct {
		body []byte
		want string
	}{
		"empty":             {nil, "message count"},
		"count overflows":   {overflow, "message count"},
		"count past bound":  {[]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "exceeds"},
		"huge count":        {binary.AppendUvarint(nil, 1<<62), "exceeds"},
		"ID runs past":      {append([]byte{1, 0x80, 0x80, 0x80}, 0x80), "varint"},
		"ID overflows":      {append([]byte{1}, overflow...), "varint"},
		"text past the end": {[]byte{1, 1, 2, 3, 9, 'a', 'b'}, "text of 9 bytes"},
		"trailing bytes":    {append(bytes.Clone(good), 0), "trailing"},
		"truncated":         {good[:len(good)-1], "text of 5 bytes"},
	}
	for name, c := range cases {
		msgs, err := decodeBatch(nil, c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode = %v, %v; want an error containing %q", name, msgs, err, c.want)
		}
	}
	msgs, err := decodeBatch(nil, good)
	if want := []stream.Message{{ID: 1, User: 2, Time: -3, Text: "quake"}}; err != nil || !reflect.DeepEqual(msgs, want) {
		t.Fatalf("decode(good) = %v, %v", msgs, err)
	}
}

// FuzzBatchRecord holds the batch codec to two properties. A message
// list built from the inputs round-trips exactly. The raw bytes, read as
// a record body, decode to an error or to messages that encode and
// decode to the same list — without a panic, and without a slice larger
// than the body's count bound asks for.
func FuzzBatchRecord(f *testing.F) {
	f.Add(appendBatch(nil, batch(1, 3)), uint64(7), uint64(3), int64(-5), "quake\xff\xfe struck|\x00|line sep", byte('|'))
	f.Add([]byte{}, uint64(0), uint64(0), int64(0), "", byte(0))
	f.Add([]byte{2, 1, 1, 1, 0, 0x80}, ^uint64(0), ^uint64(0), int64(-1<<63), "a", byte('a'))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0}, uint64(1)<<63, uint64(1), int64(1<<62), "x|y", byte('|'))
	f.Fuzz(func(t *testing.T, body []byte, id, user uint64, tm int64, text string, sep byte) {
		var msgs []stream.Message
		for i, part := range strings.Split(text, string([]byte{sep})) {
			msgs = append(msgs, stream.Message{ID: id + uint64(i)*user, User: user ^ uint64(i), Time: tm - int64(i)*tm, Text: part})
		}
		got, err := decodeBatch(nil, appendBatch(nil, msgs))
		if err != nil || !reflect.DeepEqual(got, msgs) {
			t.Fatalf("round trip of %q: %q, %v", msgs, got, err)
		}

		got, err = decodeBatch(nil, body)
		// The allocator rounds a slice up to its size class; the factor
		// of two covers that and nothing a claimed count could add.
		if bound := len(body) / minMessageBytes; cap(got) > 2*bound+1 {
			t.Fatalf("a %d-byte body grew the slice to %d messages, bound %d", len(body), cap(got), bound)
		}
		if err != nil {
			return
		}
		again, err := decodeBatch(nil, appendBatch(nil, got))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("body %x decoded to %q, which re-decodes to %q, %v", body, got, again, err)
		}
	})
}
