package stream

import (
	"math"
	"testing"
)

func tmsg(id uint64, tm int64) Message {
	return Message{ID: id, User: id, Time: tm, Text: "x"}
}

func TestTimeQuantizerGrouping(t *testing.T) {
	q := NewTimeQuantizer(10)
	if q.Duration() != 10 {
		t.Fatalf("Duration = %d", q.Duration())
	}
	// First message anchors the grid at t=5: quantum [5,15).
	if got := q.Add(tmsg(1, 5)); len(got) != 0 {
		t.Fatalf("first message closed a quantum: %v", got)
	}
	if got := q.Add(tmsg(2, 14)); len(got) != 0 {
		t.Fatalf("in-quantum message closed a quantum")
	}
	// t=15 crosses the boundary: one completed quantum with 2 messages.
	got := q.Add(tmsg(3, 15))
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("boundary crossing wrong: %v", got)
	}
	// Flush drains the open quantum.
	if rest := q.Flush(); len(rest) != 1 || rest[0].ID != 3 {
		t.Fatalf("Flush = %v", rest)
	}
}

func TestTimeQuantizerGapsEmitEmptyQuanta(t *testing.T) {
	q := NewTimeQuantizer(10)
	q.Add(tmsg(1, 0)) // quantum [0,10)
	// Jump to t=35: closes [0,10) (1 msg), [10,20) (empty), [20,30) (empty).
	got := q.Add(tmsg(2, 35))
	if len(got) != 3 {
		t.Fatalf("gap emitted %d quanta, want 3", len(got))
	}
	if len(got[0]) != 1 || len(got[1]) != 0 || len(got[2]) != 0 {
		t.Fatalf("quantum contents wrong: %v", got)
	}
}

func TestTimeQuantizerLateArrivalTolerated(t *testing.T) {
	q := NewTimeQuantizer(10)
	q.Add(tmsg(1, 20))
	if got := q.Add(tmsg(2, 12)); len(got) != 0 {
		t.Fatalf("late arrival closed a quantum")
	}
	if len(q.Buffered()) != 2 {
		t.Fatalf("late arrival lost")
	}
}

func TestTimeQuantizerResume(t *testing.T) {
	q := NewTimeQuantizer(10)
	q.Add(tmsg(1, 7))
	start, started := q.Pos()
	if !started || start != 7 {
		t.Fatalf("Pos = %d,%v", start, started)
	}
	q2 := NewTimeQuantizer(10)
	q2.Resume(start, started)
	// Same boundary behaviour as the original.
	if got := q2.Add(tmsg(2, 16)); len(got) != 0 {
		t.Fatalf("resumed grid misaligned: %v", got)
	}
	if got := q2.Add(tmsg(3, 17)); len(got) != 1 {
		t.Fatalf("resumed grid boundary missing: %v", got)
	}
}

func TestTimeQuantizerClampsDuration(t *testing.T) {
	if NewTimeQuantizer(0).Duration() != 1 {
		t.Fatalf("duration not clamped")
	}
}

// TestTimeQuantizerNearEndOfRange: a grid whose next boundary lies past
// the largest int64 never closes — before Closes took the difference
// unsigned, start+duration wrapped negative and Add looped for ever.
func TestTimeQuantizerNearEndOfRange(t *testing.T) {
	q := NewTimeQuantizer(10)
	q.Resume(math.MaxInt64-3, true)
	if q.Closes(math.MaxInt64) {
		t.Fatal("a message inside the last quantum closes it")
	}
	if out := q.Add(Message{ID: 1, Time: math.MaxInt64}); len(out) != 0 {
		t.Fatalf("Add closed %d quanta", len(out))
	}
	q.Resume(math.MinInt64, true)
	if !q.Closes(math.MaxInt64) || q.Closes(math.MinInt64+9) {
		t.Fatal("Closes is wrong across the whole range")
	}
}
