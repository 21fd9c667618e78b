package detect

import (
	"encoding/gob"
	"fmt"
	"io"
)

// v1Magic tags the gob checkpoint format (a DetectorState, gob-encoded)
// that builds before the binary format wrote. Only loadV1 reads it: a
// directory such a build shut down cleanly holds nothing else, and must
// still open. Nothing writes it.
const v1Magic = "repro-detector-v1"

// loadV1 decodes a gob checkpoint whose first bytes, head, the caller has
// already read from r. gob reads through an io.ByteReader no further
// than its message, so whatever follows the checkpoint stays unread.
// Fields the state no longer has (the CKG and its switch) are skipped.
func loadV1(head []byte, r io.Reader) (*Detector, error) {
	var s DetectorState
	if err := gob.NewDecoder(&prefixReader{head: head, r: r}).Decode(&s); err != nil {
		return nil, fmt.Errorf("detect: decode checkpoint: %w", err)
	}
	if s.Magic != v1Magic {
		return nil, fmt.Errorf("detect: bad checkpoint magic %q", s.Magic)
	}
	s.Magic = checkpointMagic
	return FromState(s)
}

// prefixReader reads head, then r, one byte at a time when asked to.
type prefixReader struct {
	head []byte
	r    io.Reader
}

func (p *prefixReader) Read(b []byte) (int, error) {
	if len(p.head) > 0 {
		n := copy(b, p.head)
		p.head = p.head[n:]
		return n, nil
	}
	return p.r.Read(b)
}

func (p *prefixReader) ReadByte() (byte, error) {
	if len(p.head) > 0 {
		c := p.head[0]
		p.head = p.head[1:]
		return c, nil
	}
	if br, ok := p.r.(io.ByteReader); ok {
		return br.ReadByte()
	}
	var b [1]byte
	_, err := io.ReadFull(p.r, b[:])
	return b[0], err
}
