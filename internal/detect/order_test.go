package detect

import (
	"slices"
	"testing"

	"repro/internal/tracegen"
)

// TestRetainedOrder pins the order the epoch snapshot hands the query
// engine without sorting: after every quantum the finished events
// strictly ascend in (LastQuantum, ID), all below the quantum, and every
// live event is at the quantum. It drives the canonical golden's three
// trace shapes with and without a retention cap, through a Save/Load
// round trip halfway and another at the end, and checks the snapshot's range, keyword and
// top-k reads against a reference built the way the snapshot used to
// build them: a sorted time index, an inverted index over it and a rank
// walk over the sorted live events.
func TestRetainedOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 1.2M messages")
	}
	const n = 200000
	dense := tracegen.TWConfig(4, n)
	dense.RealEvents *= 10
	dense.SpuriousEvents *= 10
	dense.Discussions *= 10
	short := tracegen.TWConfig(3, n)
	short.RealEvents = n / 100
	short.EventMessagesMin, short.EventMessagesMax = 50, 100
	short.EventSpanMin, short.EventSpanMax = 320, 640
	short.EventUsersMin, short.EventUsersMax = 30, 60
	short.PoolMin, short.PoolMax = 6, 8

	trimmed := uint64(0)
	for _, tc := range []struct {
		name  string
		trace tracegen.Config
	}{
		{"tw", tracegen.TWConfig(5, n)},
		{"short", short},
		{"dense", dense},
	} {
		msgs, _ := tracegen.Generate(tc.trace)
		for _, retain := range []int{0, 64} {
			d := New(Config{})
			d.SetRetain(retain)
			quanta, finished := 0, 0
			for i, m := range msgs {
				if i == len(msgs)/2 {
					d = reload(t, d)
					d.SetRetain(retain)
				}
				for range d.IngestAll(m) {
					quanta++
					checkRetainedOrder(t, d)
					checkSnapshotReads(t, d.Snapshot(nil))
					finished = max(finished, len(d.finished))
				}
			}
			restored := reload(t, d)
			checkRetainedOrder(t, restored)
			checkSnapshotReads(t, restored.Snapshot(nil))
			if quanta < 1000 || finished == 0 {
				t.Fatalf("%s retain %d: %d quanta, at most %d finished: the trace exercises nothing",
					tc.name, retain, quanta, finished)
			}
			trimmed += d.Trimmed()
		}
	}
	if trimmed == 0 {
		t.Fatal("the retention cap never trimmed")
	}
}

// lastIDLess orders events by (LastQuantum, ID): the query engine's key.
func lastIDLess(a, b *Event) bool {
	return a.LastQuantum < b.LastQuantum || a.LastQuantum == b.LastQuantum && a.ID < b.ID
}

func checkRetainedOrder(t *testing.T, d *Detector) {
	t.Helper()
	q := d.akg.Quantum()
	for i, ev := range d.finished {
		if ev.LastQuantum >= q {
			t.Fatalf("quantum %d: finished event %d last seen at quantum %d", q, ev.ID, ev.LastQuantum)
		}
		if i > 0 && !lastIDLess(d.finished[i-1], ev) {
			p := d.finished[i-1]
			t.Fatalf("quantum %d: finished event %d (quantum %d) follows event %d (quantum %d)",
				q, ev.ID, ev.LastQuantum, p.ID, p.LastQuantum)
		}
	}
	for _, ev := range d.events {
		if ev.LastQuantum != q {
			t.Fatalf("quantum %d: live event %d last seen at quantum %d", q, ev.ID, ev.LastQuantum)
		}
	}
}

// checkSnapshotReads compares the snapshot's range, keyword-history and
// top-k reads with the sort-built reference.
func checkSnapshotReads(t *testing.T, s *Snapshot) {
	t.Helper()
	byLast := slices.SortedFunc(slices.Values(slices.Concat(s.fin, s.live)), func(a, b *Event) int {
		if lastIDLess(a, b) {
			return -1
		}
		return 1
	})
	inverted := map[string][]*Event{}
	for _, ev := range byLast {
		kws := ev.KeywordHistory()
		if len(kws) == 0 {
			kws = ev.Keywords
		}
		for _, kw := range kws {
			inverted[kw] = append(inverted[kw], ev)
		}
	}
	live := slices.SortedFunc(slices.Values(s.live), byRankDesc)

	floors := []int{0, s.Quantum - 8, s.Quantum - 1, s.Quantum, s.Quantum + 1}
	if len(byLast) > 0 {
		floors = append(floors, byLast[len(byLast)/2].LastQuantum)
	}
	for _, from := range floors {
		var want []*Event
		for _, ev := range byLast {
			if ev.LastQuantum >= from {
				want = append(want, ev)
			}
		}
		if got := slices.Concat(s.EventsSinceQuantum(from)); !slices.Equal(got, want) {
			t.Fatalf("quantum %d: EventsSinceQuantum(%d) holds %d events, the time index %d",
				s.Quantum, from, len(got), len(want))
		}
	}

	kws := []string{"", "no-such-keyword"}
	for _, i := range []int{0, len(byLast) / 2, len(byLast) - 1} {
		if i >= 0 && i < len(byLast) && len(byLast[i].Keywords) > 0 {
			kws = append(kws, byLast[i].Keywords[0])
		}
	}
	for _, kw := range kws {
		if kw != "" && !slices.Equal(s.EventsWithKeyword(kw), inverted[kw]) {
			t.Fatalf("quantum %d: EventsWithKeyword(%q) differs from the inverted index", s.Quantum, kw)
		}
		var walk []*Event
		for _, ev := range live {
			if ev.Reported && (kw == "" || slices.Contains(ev.Keywords, kw)) {
				walk = append(walk, ev)
			}
		}
		for _, k := range []int{0, 1, 3, len(live) + 1} {
			want := walk
			if k > 0 && len(want) > k {
				want = want[:k]
			}
			if got := s.TopKKeyword(k, kw); !slices.Equal(got, want) {
				t.Fatalf("quantum %d: TopKKeyword(%d, %q) differs from the rank walk", s.Quantum, k, kw)
			}
		}
	}
}

// TestLoadRefusesBrokenOrder: snapshots hand the query engine the
// checkpoint's live and finished lists as its (LastQuantum, ID) order,
// so Load refuses a checkpoint that breaks that order, naming the rule.
func TestLoadRefusesBrokenOrder(t *testing.T) {
	d, good := validationState(t)
	if len(good.Finished) < 2 {
		t.Fatalf("%d finished events: the cases are vacuous", len(good.Finished))
	}
	for name, tc := range map[string]struct {
		corrupt func(s *DetectorState)
		want    string
	}{
		"finished out of order": {func(s *DetectorState) {
			s.Finished[0], s.Finished[1] = s.Finished[1], s.Finished[0]
		}, "finished events out of (LastQuantum, ID) order"},
		"finished at the quantum": {func(s *DetectorState) {
			s.Finished[len(s.Finished)-1].LastQuantum = s.AKG.Quantum
		}, "not before the checkpoint's quantum"},
		"live before the quantum": {func(s *DetectorState) {
			s.Events[0].LastQuantum--
		}, "not at the checkpoint's quantum"},
	} {
		s := d.State() // fresh deep copy
		tc.corrupt(&s)
		refused(t, name, s, tc.want)
	}
}
