package stream

// TimeQuantizer cuts a stream into quanta of fixed duration in Message.Time
// units — the paper's original definition of the quantum ("unit time σ",
// Section 1.1); the experiments' message-count quanta are provided by
// Quantizer. Gaps in the stream yield empty quanta, which matter: the
// sliding window must keep moving (and expiring keywords) through silence.
type TimeQuantizer struct {
	duration int64
	start    int64 // inclusive lower bound of the current quantum
	started  bool
	buf      []Message
}

// NewTimeQuantizer returns a quantizer with the given quantum duration
// (clamped to ≥ 1). The first message anchors the quantum grid.
func NewTimeQuantizer(duration int64) *TimeQuantizer {
	if duration < 1 {
		duration = 1
	}
	return &TimeQuantizer{duration: duration}
}

// Duration returns the quantum length in time units.
func (q *TimeQuantizer) Duration() int64 { return q.duration }

// Add buffers a message and returns every quantum completed by its
// arrival: zero batches while the quantum is still open, one when the
// message crosses a boundary, several (the middle ones empty) when the
// message lands past a gap. Messages with timestamps before the current
// quantum are treated as belonging to it (late arrivals are tolerated
// rather than dropped).
func (q *TimeQuantizer) Add(m Message) [][]Message {
	if !q.started {
		q.started = true
		q.start = m.Time
	}
	var out [][]Message
	for q.Closes(m.Time) {
		done := q.buf
		q.buf = nil
		out = append(out, done) // may be nil: an empty quantum
		q.start += q.duration
	}
	q.buf = append(q.buf, m)
	return out
}

// Closes reports whether a message at time t would close the open
// quantum (Add would return at least one batch). The difference is taken
// unsigned, so a grid near the end of the int64 range cannot overflow.
func (q *TimeQuantizer) Closes(t int64) bool {
	return q.started && t >= q.start && uint64(t)-uint64(q.start) >= uint64(q.duration)
}

// Flush returns the open partial quantum and clears it.
func (q *TimeQuantizer) Flush() []Message {
	out := q.buf
	q.buf = nil
	return out
}

// Buffered returns a copy of the open quantum's messages (checkpointing).
func (q *TimeQuantizer) Buffered() []Message {
	out := make([]Message, len(q.buf))
	copy(out, q.buf)
	return out
}

// Pos reports the quantum grid position (checkpointing).
func (q *TimeQuantizer) Pos() (start int64, started bool) {
	return q.start, q.started
}

// Resume restores a grid position captured with Pos.
func (q *TimeQuantizer) Resume(start int64, started bool) {
	q.start = start
	q.started = started
}
