package wal

import (
	"strconv"

	"repro/internal/jsonw"
	"repro/internal/stream"
)

// Hand-rolled JSON encoding of a message batch, byte-identical to
// encoding/json.Marshal([]stream.Message) (differentially tested,
// escaping included) but appending into a caller-owned buffer: the WAL
// append hot path encodes every acknowledged batch, and Marshal's
// output allocation plus reflection walk was most of its cost. Replay
// keeps using encoding/json — the wire format is plain JSON either way.

// appendMessagesJSON appends the json.Marshal encoding of msgs to dst.
func appendMessagesJSON(dst []byte, msgs []stream.Message) []byte {
	if msgs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range msgs {
		if i > 0 {
			dst = append(dst, ',')
		}
		m := &msgs[i]
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendUint(dst, m.ID, 10)
		dst = append(dst, `,"user":`...)
		dst = strconv.AppendUint(dst, m.User, 10)
		dst = append(dst, `,"time":`...)
		dst = strconv.AppendInt(dst, m.Time, 10)
		dst = append(dst, `,"text":`...)
		dst = jsonw.AppendString(dst, m.Text)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}
