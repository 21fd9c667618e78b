package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/jsonw"
	"repro/internal/query"
)

// retained is a query.Snapshot over generated events. EventsWithKeyword
// hands back every event, so the engine's keyword rule alone decides.
type retained []*detect.Event

func (r retained) EventsSinceQuantum(int) (finished, live []*detect.Event) { return r, nil }
func (r retained) EventsWithKeyword(string) []*detect.Event                { return r }
func (r retained) Find(id uint64) *detect.Event { // IDs are 1..len(r)
	if id == 0 || id > uint64(len(r)) {
		return nil
	}
	return r[id-1]
}

// genBoundaryEvents draws n events that cover the row's corners: nil,
// empty and populated keyword sets, a history that equals, extends or
// is missing beside the current set, each omitempty field at zero and
// non-zero, merged and split lineage, rank histories on both sides of
// the spurious rule. IDs and quanta ascend so the slice is already in
// the engine's (LastQuantum, ID) order.
func genBoundaryEvents(rng *rand.Rand, n int) retained {
	words := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", rng.Intn(40))
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	maybe := func(v int) int { return v * rng.Intn(2) }
	evs := make(retained, n)
	for i := range evs {
		ev := &detect.Event{
			ID: uint64(i + 1), State: detect.EventState(rng.Intn(3)),
			BornQuantum: max(2*i-rng.Intn(4), 0), LastQuantum: 2*i + rng.Intn(2),
			Rank: rng.Float64() * 50, PeakRank: 50 + rng.Float64(),
			Evolved: rng.Intn(2) == 0, Reported: rng.Intn(2) == 0,
			Size: rng.Intn(9), Support: rng.Intn(99),
			FirstReported: maybe(i + 1), MergedInto: uint64(maybe(i + 7)), SplitFrom: uint64(maybe(i + 3)),
		}
		switch rng.Intn(4) {
		case 0: // nil
		case 1:
			ev.Keywords = []string{}
		default:
			ev.Keywords = words(1 + rng.Intn(5))
		}
		switch rng.Intn(4) {
		case 0: // no history recorded
		case 1:
			ev.AllKeywords = map[string]struct{}{}
		default:
			ev.AllKeywords = map[string]struct{}{}
			for _, kw := range append(words(rng.Intn(4)), ev.Keywords...) {
				ev.AllKeywords[kw] = struct{}{}
			}
		}
		for q := rng.Intn(6); q > 0; q-- {
			ev.RankHistory = append(ev.RankHistory, float64(rng.Intn(10)))
		}
		evs[i] = ev
	}
	return evs
}

func queryEventBytes(rec *archive.Record) []byte {
	var buf bytes.Buffer
	jw := jsonw.Body(&buf)
	archive.EncodeQueryEvent(jw, rec)
	jw.Close()
	return buf.Bytes()
}

// blockRowBytes is queryEventBytes for a decoded block's row, rendered
// from the columns.
func blockRowBytes(b *archive.Block, i int) []byte {
	var buf bytes.Buffer
	jw := jsonw.Body(&buf)
	jw.Raw(b.RowJSON(i))
	jw.Close()
	return buf.Bytes()
}

// TestEvictionBoundaryProperty holds "the live/archive boundary is
// invisible to queries" on generated events instead of hand-picked ones:
// the /query bytes of an event's projection equal the bytes of the same
// event after projection → Append → seal or buffer image → reopen →
// scan, whether the reopened buffer serves its record or a block's
// columns are written (and the Record materialised from them), and
// keyword queries — present, absent and history-only keywords — select
// the same events from the retained side and from disk.
func TestEvictionBoundaryProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := genBoundaryEvents(rng, 60)

		dir := t.TempDir()
		opt := archive.Options{SegmentEvents: 1 + rng.Intn(20), BlockEvents: 1 + rng.Intn(8)}
		log, err := archive.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[uint64][]byte, len(evs))
		for i, ev := range evs {
			rec := archive.RecordOf(ev)
			live[ev.ID] = queryEventBytes(&rec)
			rec.Seq = uint64(i + 1)
			if err := log.Append(rec); err != nil {
				t.Fatalf("seed %d: append: %v", seed, err)
			}
		}
		log = reopenArchive(t, log, dir, opt)
		seen := 0
		check := func(id uint64, got []byte) {
			t.Helper()
			if !bytes.Equal(got, live[id]) {
				t.Fatalf("seed %d: event %d reads differently from disk:\nlive %s\ndisk %s", seed, id, live[id], got)
			}
		}
		for _, v := range log.Segments() {
			recs := v.Records()
			for i := range recs {
				seen++
				check(recs[i].ID, queryEventBytes(&recs[i]))
			}
			if !v.Sealed {
				continue
			}
			if _, _, err := v.ScanBlocks(archive.Pred{To: -1}, func(b *archive.Block) error {
				for i := 0; i < b.Len(); i++ {
					seen++
					check(b.ID[i], blockRowBytes(b, i))
					rec := b.Record(i)
					check(rec.ID, queryEventBytes(&rec))
				}
				return nil
			}); err != nil {
				t.Fatalf("seed %d: scan: %v", seed, err)
			}
		}
		if seen != len(evs) {
			t.Fatalf("seed %d: %d of %d events came back from disk", seed, seen, len(evs))
		}

		probe := func(kw string, want func(*detect.Event) bool) {
			t.Helper()
			req := query.Request{To: -1, Keywords: []string{kw}}
			fromLive, err := query.Run(evs, nil, req)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fromDisk, err := query.Run(nil, log, req)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var wantIDs, liveIDs, diskIDs []uint64
			for _, ev := range evs {
				if want(ev) {
					wantIDs = append(wantIDs, ev.ID)
				}
			}
			for i := range fromLive.Events {
				liveIDs = append(liveIDs, fromLive.Events[i].Record().ID)
			}
			for i := range fromDisk.Events {
				diskIDs = append(diskIDs, fromDisk.Events[i].Record().ID)
			}
			if !slices.Equal(liveIDs, wantIDs) || !slices.Equal(diskIDs, wantIDs) {
				t.Fatalf("seed %d: keyword %q selects %v retained, %v archived; want %v", seed, kw, liveIDs, diskIDs, wantIDs)
			}
		}
		for w := 0; w < 40; w++ {
			kw := fmt.Sprintf("w%d", w)
			// The rule, spelled independently of its implementation: the
			// history when one was recorded, else the current set.
			probe(kw, func(ev *detect.Event) bool {
				if len(ev.AllKeywords) > 0 {
					_, ok := ev.AllKeywords[kw]
					return ok
				}
				return slices.Contains(ev.Keywords, kw)
			})
		}
		probe("absent", func(*detect.Event) bool { return false })
	}
}

// reopenArchive restarts l the way tenantStorage does across a WAL
// snapshot: the buffer's image (WriteBuffer) is all that survives of it,
// and a fresh Log over the same directory takes it back (RestoreBuffer).
func reopenArchive(t testing.TB, l *archive.Log, dir string, opt archive.Options) *archive.Log {
	t.Helper()
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	l2, err := archive.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreBuffer(&image, func(err error) { t.Fatal(err) }); err != nil {
		t.Fatal(err)
	}
	return l2
}
