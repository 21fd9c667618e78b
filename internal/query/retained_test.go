package query

import (
	"slices"
	"testing"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/tracegen"
)

// TestSnapshotRunsPageInOrder pages a real detector's retained events
// through Run, a few at a time, and requires the pages to concatenate
// to every retained event in (LastQuantum, ID) order: the snapshot's
// finished and live runs are read as one ordered source, early exit and
// cursor included.
func TestSnapshotRunsPageInOrder(t *testing.T) {
	c := tracegen.TWConfig(3, 12000)
	c.RealEvents *= 10
	c.SpuriousEvents *= 10
	c.Discussions *= 10
	msgs, _ := tracegen.Generate(c)
	d := detect.New(detect.Config{Delta: 80, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}})
	quanta, checked := 0, 0
	for _, m := range msgs {
		n := len(d.IngestAll(m))
		if quanta += n; n == 0 || quanta%10 != 0 {
			continue
		}
		snap := d.Snapshot(nil)
		want := slices.SortedFunc(slices.Values(snap.AllEvents()), func(a, b *detect.Event) int {
			return key{q: a.LastQuantum, id: a.ID}.cmp(key{q: b.LastQuantum, id: b.ID})
		})
		if snap.LiveCount() <= 3 || snap.LiveCount() == len(want) {
			continue
		}
		for _, limit := range []int{1, 3, 7} {
			var got []*detect.Event
			req := Request{To: -1, Limit: limit}
			for {
				res, err := Run(snap, nil, req)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res.Events {
					got = append(got, r.Event)
				}
				if res.Cursor == "" {
					break
				}
				req.Cursor = res.Cursor
			}
			if !slices.Equal(got, want) {
				t.Fatalf("quantum %d, limit %d: %d events paged, %d retained, or out of order",
					snap.Quantum, limit, len(got), len(want))
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("%d epochs held both finished events and more live events than a page", checked)
	}
}
