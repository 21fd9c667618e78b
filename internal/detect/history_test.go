package detect

import (
	"slices"
	"testing"
)

// checkHistories holds every event's stored keyword history to its
// definition — sort(keys(AllKeywords)) — and requires KeywordHistory to
// serve the stored slice itself (no per-call rebuild).
func checkHistories(t *testing.T, when string, evs []*Event) (evolved int) {
	t.Helper()
	for _, ev := range evs {
		want := make([]string, 0, len(ev.AllKeywords))
		for kw := range ev.AllKeywords {
			want = append(want, kw)
		}
		slices.Sort(want)
		if !slices.Equal(ev.history, want) {
			t.Fatalf("%s: event %d history = %v, AllKeywords sorted = %v", when, ev.ID, ev.history, want)
		}
		if got := ev.KeywordHistory(); len(got) > 0 && &got[0] != &ev.history[0] {
			t.Fatalf("%s: event %d: KeywordHistory rebuilt the slice instead of sharing it", when, ev.ID)
		}
		if len(ev.history) > len(ev.Keywords) {
			evolved++
		}
	}
	return evolved
}

// TestKeywordHistoryTracksAllKeywords: the sorted history beside the
// AllKeywords map equals the map's sorted keys after every quantum of a
// dense trace — on the detector's events and on the snapshot's views —
// and after a checkpoint round trip.
func TestKeywordHistoryTracksAllKeywords(t *testing.T) {
	d := New(Config{})
	quanta, grown := 0, 0
	d.SetOnQuantum(func(res *QuantumResult) {
		quanta++
		grown = max(grown, checkHistories(t, "after a quantum", d.AllEvents()))
		checkHistories(t, "snapshot views", d.Snapshot(res).AllEvents())
	})
	for _, m := range denseTrace(5, 60000) {
		d.IngestAll(m)
	}
	if quanta < 100 || grown == 0 {
		t.Fatalf("%d quanta, %d events whose history outgrew their keywords; the trace does not exercise growth", quanta, grown)
	}
	restored := reload(t, d)
	if n := len(restored.AllEvents()); n == 0 || n != len(d.AllEvents()) {
		t.Fatalf("restored %d events, want %d", n, len(d.AllEvents()))
	}
	checkHistories(t, "after Load", restored.AllEvents())
	checkHistories(t, "restored snapshot views", restored.Snapshot(nil).AllEvents())

	// A hand-built event has no stored history and gets a sorted copy.
	lit := &Event{AllKeywords: map[string]struct{}{"b": {}, "a": {}, "c": {}}}
	if got := lit.KeywordHistory(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("literal event history = %v", got)
	}
	if got := (&Event{}).KeywordHistory(); len(got) != 0 {
		t.Fatalf("empty event history = %v", got)
	}
}
