package detect

import (
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/akg"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// denseTrace is the benchmark's ingest-dense shape at test scale: ten
// times TW's events, so many clusters are live (and clean) at once.
func denseTrace(seed int64, n int) []stream.Message {
	c := tracegen.TWConfig(seed, n)
	c.RealEvents *= 10
	c.SpuriousEvents *= 10
	c.Discussions *= 10
	msgs, _ := tracegen.Generate(c)
	return msgs
}

// shortTrace is the benchmark's query-archive shape: many short-lived
// events, so the finished set churns under a small retention cap.
func shortTrace(seed int64, n int) []stream.Message {
	c := tracegen.TWConfig(seed, n)
	c.RealEvents = n / 100
	c.EventMessagesMin, c.EventMessagesMax = 50, 100
	c.EventSpanMin, c.EventSpanMax = 320, 640
	c.EventUsersMin, c.EventUsersMax = 30, 60
	c.PoolMin, c.PoolMax = 6, 8
	msgs, _ := tracegen.Generate(c)
	return msgs
}

// snapshotFacts is everything a snapshot answers, in comparable form.
type snapshotFacts struct {
	All, Top, Since []Event
	Related         []RelatedPair
	KeywordIDs      map[string][]uint64
	WithKeyword     map[string][]uint64
}

func deref(evs []*Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = *ev
	}
	return out
}

func factsOf(s *Snapshot) snapshotFacts {
	f := snapshotFacts{
		All:         deref(s.AllEvents()),
		Top:         deref(s.TopK(0)),
		Since:       deref(s.EventsSinceQuantum(0)),
		Related:     s.Related(0),
		KeywordIDs:  map[string][]uint64{},
		WithKeyword: map[string][]uint64{},
	}
	for _, ev := range s.AllEvents() {
		for kw := range ev.AllKeywords {
			if _, done := f.KeywordIDs[kw]; done {
				continue
			}
			ids := []uint64{}
			for _, hit := range s.TopKKeyword(0, kw) {
				ids = append(ids, hit.ID)
			}
			f.KeywordIDs[kw] = ids
			for _, hit := range s.EventsWithKeyword(kw) {
				f.WithKeyword[kw] = append(f.WithKeyword[kw], hit.ID)
			}
		}
	}
	return f
}

// fromScratch rebuilds the detector from a checkpoint — every user
// community recomputed from the restored window, every view built anew —
// and snapshots that: the reference the shared build must equal.
func fromScratch(t *testing.T, d *Detector) *Snapshot {
	t.Helper()
	ref, err := FromState(d.State())
	if err != nil {
		t.Fatal(err)
	}
	return ref.Snapshot(nil)
}

// TestSnapshotSharingEquivalence drives generated traces through the
// structurally shared epoch builder and requires, after every quantum and
// every trim, that the published snapshot answers exactly like one built
// from scratch, across a checkpoint round trip. Meanwhile a reader keeps
// re-serialising the eight newest epochs and requires the bytes never to
// change: under -race that pins that nothing a published view aliases
// (rank-history prefixes, user lists, keyword maps, finished events) is
// written after publication.
func TestSnapshotSharingEquivalence(t *testing.T) {
	traces := []struct {
		name   string
		msgs   []stream.Message
		retain int
	}{
		{"dense", denseTrace(3, 12000), 0},
		{"short", shortTrace(5, 12000), 64},
	}
	for _, tr := range traces {
		runSharing(t, tr.name, tr.msgs, tr.retain)
	}
}

func runSharing(t *testing.T, name string, msgs []stream.Message, retain int) {
	type epoch struct {
		snap *Snapshot
		want string
	}
	serialise := func(s *Snapshot) string {
		raw, err := json.Marshal(struct {
			All     []*Event
			Related []RelatedPair
		}{s.AllEvents(), s.Related(0)})
		if err != nil {
			t.Error(err)
		}
		return string(raw)
	}
	var (
		ring [8]atomic.Pointer[epoch]
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for i := range ring {
				if e := ring[i].Load(); e != nil && serialise(e.snap) != e.want {
					t.Errorf("%s: epoch %d changed after publication", name, e.snap.Quantum)
					return
				}
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	published := 0
	check := func(d *Detector, snap *Snapshot, what string) {
		t.Helper()
		if got, want := factsOf(snap), factsOf(fromScratch(t, d)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s quantum %d (%s): shared snapshot differs from a from-scratch build",
				name, snap.Quantum, what)
		}
		ring[published%len(ring)].Store(&epoch{snap: snap, want: serialise(snap)})
		published++
	}

	const delta = 80
	d := New(Config{Delta: delta, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}})
	reused, trims := 0, 0
	for i, m := range msgs {
		if i == len(msgs)/2 {
			restored, err := FromState(d.State())
			if err != nil {
				t.Fatal(err)
			}
			d = restored
		}
		var snap *Snapshot
		for _, res := range d.IngestAll(m) {
			snap = d.Snapshot(res)
			check(d, snap, "quantum")
			reused += res.Carried
		}
		if snap != nil && retain > 0 && d.TrimFinished(retain) > 0 {
			trims++
			check(d, d.Snapshot(nil), "trim")
		}
	}
	if published < len(msgs)/delta {
		t.Fatalf("%s: only %d epochs published", name, published)
	}
	if reused == 0 {
		t.Fatalf("%s: no clean cluster was ever carried forward; the trace exercises nothing", name)
	}
	if retain > 0 && trims == 0 {
		t.Fatalf("%s: retention never trimmed; the trace exercises nothing", name)
	}
}

// TestRelatedPairsTotalOrder: pairs tying on overlap (and on A) come out
// in (A, B) order from the shared builder, so the detector and its
// snapshot cannot disagree on a tie.
func TestRelatedPairsTotalOrder(t *testing.T) {
	community := []uint64{1, 2, 3, 4, 5}
	var evs []*Event
	for id := uint64(1); id <= 7; id++ {
		evs = append(evs, &Event{ID: id, Reported: true, users: community})
	}
	evs = append(evs, &Event{ID: 8, Reported: true, users: []uint64{1, 2, 3, 4, 5, 6}})
	pairs := relatedPairs(evs)
	if len(pairs) != 28 {
		t.Fatalf("want 28 pairs, got %d", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		p, q := pairs[i-1], pairs[i]
		inOrder := p.UserJaccard > q.UserJaccard ||
			p.UserJaccard == q.UserJaccard && (p.A < q.A || p.A == q.A && p.B < q.B)
		if !inOrder {
			t.Fatalf("pairs %d and %d out of order: %+v then %+v", i-1, i, p, q)
		}
	}
	if pairs[20].UserJaccard != 1 || pairs[21].UserJaccard == 1 {
		t.Fatalf("want the 21 identical-community pairs first, got %+v … %+v", pairs[20], pairs[21])
	}
}

// TestSnapshotAllocsIndependentOfHistory: publishing an epoch in which
// nothing finishes costs the same allocations with 5 000 retained
// finished events as with none.
func TestSnapshotAllocsIndependentOfHistory(t *testing.T) {
	d := New(Config{Delta: 80, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}})
	var res *QuantumResult
	for _, m := range denseTrace(3, 4000) {
		for _, r := range d.IngestAll(m) {
			res = r
		}
	}
	if d.LiveCount() == 0 {
		t.Fatal("setup: no live events")
	}
	d.finished = nil
	res.Ended, res.Merged = nil, nil
	publish := func() { d.Snapshot(res) }
	publish()
	before := testing.AllocsPerRun(20, publish)
	for i := 0; i < 5000; i++ {
		d.finished = append(d.finished, &Event{ID: 1<<32 | uint64(i), State: EventEnded})
	}
	publish()
	if after := testing.AllocsPerRun(20, publish); after > before {
		t.Fatalf("Snapshot allocates %.0f times per quantum with 5000 finished events, %.0f with none", after, before)
	}
	if got := d.Snapshot(nil).TotalCount(); got != d.LiveCount()+5000 {
		t.Fatalf("TotalCount = %d, want %d", got, d.LiveCount()+5000)
	}
}
