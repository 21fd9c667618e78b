// Package stream defines the microblog message model and trace IO used by
// the detector, the workload generator and the experiment harness.
//
// A trace is a chronologically ordered sequence of messages. The detector
// consumes messages in arrival order and cuts them into quanta of Δ
// messages (the paper defines quantum size in messages for its
// experiments, Section 7.1); a sliding window of w quanta induces the
// keyword graph.
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Message is one microblog post.
type Message struct {
	ID   uint64 `json:"id"`
	User uint64 `json:"user"`
	// Time is an abstract, monotonically non-decreasing timestamp (the
	// generator uses message sequence numbers; real traces may carry unix
	// milliseconds). The detector only requires ordering.
	Time int64  `json:"time"`
	Text string `json:"text"`
}

// Source yields messages in arrival order.
type Source interface {
	// Next returns the next message. ok is false at end of stream.
	Next() (msg Message, ok bool, err error)
}

// SliceSource serves messages from memory.
type SliceSource struct {
	msgs []Message
	pos  int
}

// NewSliceSource returns a Source over msgs.
func NewSliceSource(msgs []Message) *SliceSource { return &SliceSource{msgs: msgs} }

// Next implements Source.
func (s *SliceSource) Next() (Message, bool, error) {
	if s.pos >= len(s.msgs) {
		return Message{}, false, nil
	}
	m := s.msgs[s.pos]
	s.pos++
	return m, true, nil
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the total number of messages.
func (s *SliceSource) Len() int { return len(s.msgs) }

// JSONLReader reads one JSON-encoded Message per line. Malformed lines
// produce an error identifying the line number; empty lines are skipped
// (failure-injection tests rely on both behaviours).
type JSONLReader struct {
	sc   *bufio.Scanner
	line int
}

// maxLineBytes bounds one JSONL line: a longer one fails the read.
const maxLineBytes = 4 * 1024 * 1024

// NewJSONLReader returns a Source reading from r.
func NewJSONLReader(r io.Reader) *JSONLReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &JSONLReader{sc: sc}
}

// Next implements Source.
func (jr *JSONLReader) Next() (Message, bool, error) {
	for jr.sc.Scan() {
		jr.line++
		raw := jr.sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m Message
		if err := json.Unmarshal(raw, &m); err != nil {
			return Message{}, false, fmt.Errorf("stream: line %d: %w", jr.line, err)
		}
		return m, true, nil
	}
	if err := jr.sc.Err(); err != nil {
		return Message{}, false, fmt.Errorf("stream: read: %w", err)
	}
	return Message{}, false, nil
}

// WriteJSONL writes msgs to w, one JSON object per line.
func WriteJSONL(w io.Writer, msgs []Message) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range msgs {
		if err := enc.Encode(&msgs[i]); err != nil {
			return fmt.Errorf("stream: write message %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadAll drains a source into a slice.
func ReadAll(src Source) ([]Message, error) {
	var out []Message
	for {
		m, ok, err := src.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, m)
	}
}

// Quantizer cuts a message stream into fixed-size quanta of delta
// messages, the unit at which the AKG is updated.
type Quantizer struct {
	delta int
	buf   []Message
}

// NewQuantizer returns a Quantizer emitting batches of delta messages.
// delta must be positive.
func NewQuantizer(delta int) *Quantizer {
	if delta < 1 {
		delta = 1
	}
	return &Quantizer{delta: delta, buf: make([]Message, 0, delta)}
}

// Delta returns the quantum size.
func (q *Quantizer) Delta() int { return q.delta }

// Add buffers a message and returns a completed quantum when the buffer
// reaches delta messages, or nil. The returned slice is reused after the
// next call; consumers must finish with it before adding more.
func (q *Quantizer) Add(m Message) []Message {
	q.buf = append(q.buf, m)
	if len(q.buf) < q.delta {
		return nil
	}
	out := q.buf
	q.buf = q.buf[:0]
	return out
}

// Flush returns any buffered partial quantum (possibly empty) and clears
// the buffer. Used at end of stream.
func (q *Quantizer) Flush() []Message {
	out := q.buf
	q.buf = q.buf[:0]
	return out
}

// Buffered returns a copy of the messages accumulated toward the next
// quantum, without consuming them (used by detector checkpoints).
func (q *Quantizer) Buffered() []Message {
	out := make([]Message, len(q.buf))
	copy(out, q.buf)
	return out
}
