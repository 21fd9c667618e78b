package query

import (
	"encoding/json"
	"math"
	"slices"
	"testing"

	"repro/internal/archive"
	"repro/internal/detect"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzWords are the keywords events draw from; "zz" is requested but
// never carried.
var fuzzWords = []string{"a", "b", "c", "d", "e", "f", "zz"}

// fuzzEvent draws one finished event: a short span in a small quantum
// range, a coarse peak rank, a current keyword set (nil when empty) and
// a history that extends it or was never recorded.
func fuzzEvent(in *fuzzBytes, i int) *detect.Event {
	born := in.next() % 24
	ev := &detect.Event{
		ID:          uint64(in.next()%4)*1000 + uint64(i) + 1, // unique, not in eviction order
		State:       detect.EventEnded,
		BornQuantum: born, LastQuantum: born + in.next()%6,
		PeakRank: float64(in.next()%16) / 4,
	}
	ev.Rank = ev.PeakRank / 2
	cur, hist := in.next(), in.next()
	for j, w := range fuzzWords[:6] {
		if cur>>j&1 != 0 {
			ev.Keywords = append(ev.Keywords, w)
		}
	}
	if hist&0x80 == 0 {
		ev.AllKeywords = map[string]struct{}{}
		for j, w := range fuzzWords[:6] {
			if hist>>j&1 != 0 || slices.Contains(ev.Keywords, w) {
				ev.AllKeywords[w] = struct{}{}
			}
		}
	}
	return ev
}

// fuzzRequest draws a range (possibly empty or starting below zero),
// up to two AND keywords, a rank floor and a limit (0 = unlimited).
func fuzzRequest(in *fuzzBytes) Request {
	req := Request{From: in.next()%26 - 2, To: -1, Limit: in.next() % 7}
	if v := in.next(); v%3 != 0 {
		req.To = req.From + v%20 - 3
	}
	for j := 0; j < 2; j++ {
		if v := in.next(); v%3 == 0 {
			req.Keywords = append(req.Keywords, fuzzWords[v/3%len(fuzzWords)])
		}
	}
	if v := in.next(); v%2 == 0 {
		req.MinRank = float64(v%16) / 4
	}
	return req
}

// modelPage is what the brute-force model says one page holds.
type modelPage struct {
	events                             []archive.Record
	fromSnapshot                       []bool
	truncated                          bool
	cursor, earlyExit                  string
	snapshotHits, archiveHits, deduped int
}

// modelRun answers req by brute force over the retained events and the
// archive's segments: filter each source, drop archived events the
// snapshot retains (its copy wins), sort by (last_quantum, id), cut at
// the limit. The limit pushdown is modelled as its rule, not its heap:
// the snapshot source stops once it has supplied limit matches, and the
// segments, visited by (MinQuantum, FirstSeq), stop once the limit
// smallest keys found so far all lie below the next one's MinQuantum.
func modelRun(snap []*detect.Event, segs []archive.SegmentView, recs map[uint64]archive.Record, req Request) modelPage {
	m := modelPage{events: []archive.Record{}}
	cur, hasCur, _ := decodeCursor(req.Cursor)
	from, to := max(req.From, 0), req.To
	if to < 0 {
		to = math.MaxInt
	}
	if from > to {
		m.earlyExit = "empty-range"
		return m
	}
	matches := func(born, last int, id uint64, peak float64, current, history []string) bool {
		if born > to || last < from || (hasCur && !cur.less(key{q: last, id: id})) ||
			(req.MinRank > 0 && peak < req.MinRank) {
			return false
		}
		if len(history) == 0 {
			history = current
		}
		for _, kw := range req.Keywords {
			if !slices.Contains(history, kw) {
				return false
			}
		}
		return true
	}
	type hit struct {
		k    key
		rec  archive.Record
		snap bool
	}
	var hits []hit
	smallest := func() []hit {
		s := slices.Clone(hits)
		slices.SortFunc(s, func(a, b hit) int { return cmpKey(a.k, b.k) })
		return s
	}
	retained := map[uint64]bool{}
	for _, ev := range snap {
		retained[ev.ID] = true
	}
	for _, ev := range snap { // already (LastQuantum, ID)-sorted
		if !matches(ev.BornQuantum, ev.LastQuantum, ev.ID, ev.PeakRank, ev.Keywords, ev.KeywordHistory()) {
			continue
		}
		if req.Limit > 0 && len(hits) == req.Limit {
			m.truncated, m.earlyExit = true, "limit"
			break
		}
		hits = append(hits, hit{key{q: ev.LastQuantum, id: ev.ID}, archive.RecordOf(ev), true})
		m.snapshotHits++
	}
	slices.SortStableFunc(segs, func(a, b archive.SegmentView) int {
		if a.MinQuantum != b.MinQuantum {
			return a.MinQuantum - b.MinQuantum
		}
		return int(a.FirstSeq) - int(b.FirstSeq)
	})
	for _, v := range segs {
		if s := smallest(); req.Limit > 0 && len(s) >= req.Limit && s[req.Limit-1].k.less(key{q: v.MinQuantum}) {
			m.truncated, m.earlyExit = true, "limit"
			break
		}
		for seq := v.FirstSeq; seq <= v.LastSeq; seq++ {
			r := recs[seq]
			if !matches(r.BornQuantum, r.LastQuantum, r.ID, r.PeakRank, r.Keywords, r.AllKeywords) {
				continue
			}
			if retained[r.ID] {
				m.deduped++
				continue
			}
			hits = append(hits, hit{key{q: r.LastQuantum, id: r.ID}, r, false})
			m.archiveHits++
		}
	}
	page := smallest()
	if req.Limit > 0 && len(page) > req.Limit {
		page, m.truncated = page[:req.Limit], true
	}
	for _, h := range page {
		m.events = append(m.events, h.rec)
		m.fromSnapshot = append(m.fromSnapshot, h.snap)
	}
	if m.truncated && len(page) > 0 {
		m.cursor = encodeCursor(page[len(page)-1].k)
	}
	return m
}

// FuzzQueryExecutor holds Run to a brute-force model on generated
// histories. The input draws events, evicts a prefix of them into an
// archive of sealed multi-block segments plus an unsealed buffer, and
// keeps a fake snapshot of the rest that also still holds the last few
// evicted ones — the eviction boundary, overlapped. It then draws a
// request and walks its pages by cursor: every page's events (and which
// source each came from), truncated flag, cursor, early exit and hit
// counts must be the model's.
func FuzzQueryExecutor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x28\x05\x02\x04\x03" + "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10"))
	f.Add([]byte("\x3c\x07\x03\x06\x02\x00\x03\x00\x0c\x00\x00\x04" + "\x13\x37\x42\x99\x07\x81\x23\x45\x67\x89\xab\xcd\xef\x10\x32\x54\x76\x98\xba\xdc\xfe"))
	f.Add([]byte("\x20\x04\x01\x00\x08\x05\x03\x02\x09\x06\x01\x03\x00\x00\x02\x04" + "\xff\x00\xff\x00\x11\x22\x33\x44\x55\x66\x77\x88"))
	// 24 events, all evicted into four sealed segments of two-record
	// blocks, the last ten still retained too — dedup inside blocks —
	// then every event, and pages of five.
	seed := []byte{24, 4, 1, 12, 10}
	for i := 0; i < 24; i++ {
		seed = append(seed, byte(i%20), byte(i%3), byte(i%5), byte(i), byte(i*37), byte(i*11))
	}
	f.Add(append(seed, 2, 0, 1, 1, 1, 1))
	f.Add(append(seed, 2, 5, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := in.next() % 64
		segEvents, blockEvents := 2+in.next()%10, 1+in.next()%4
		evicted := min(in.next()%(n+1)+n/2, n)
		// Evicted after the epoch published: in the buffer, or already
		// sealed when the overlap reaches back past the last seal.
		overlap := min(in.next()%16, evicted)
		arch, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: segEvents, BucketQuanta: math.MaxInt, BlockEvents: blockEvents})
		if err != nil {
			t.Fatal(err)
		}
		recs := map[uint64]archive.Record{}
		var retained []*detect.Event
		for i := 0; i < n; i++ {
			ev := fuzzEvent(&in, i)
			if i < evicted {
				rec := archive.RecordOf(ev)
				rec.Seq = uint64(i + 1)
				recs[rec.Seq] = rec
				if err := arch.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if i >= evicted-overlap {
				retained = append(retained, ev)
			}
		}
		snap := newFakeSnap(retained...)
		req := fuzzRequest(&in)

		for page := 0; page < 8; page++ {
			want := modelRun(snap.evs, arch.Segments(), recs, req)
			res, err := Run(snap, arch, req)
			if err != nil {
				t.Fatalf("page %d of %+v: %v", page, req, err)
			}
			got := records(res.Events)
			fromSnap := make([]bool, len(res.Events))
			for i := range res.Events {
				fromSnap[i] = res.Events[i].Event != nil
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want.events)
			if string(gj) != string(wj) || !slices.Equal(fromSnap, want.fromSnapshot) {
				t.Fatalf("page %d of %+v:\n got  %s from snapshot %v\n want %s from snapshot %v", page, req, gj, fromSnap, wj, want.fromSnapshot)
			}
			st := res.Stats
			if st.Truncated != want.truncated || res.Cursor != want.cursor || st.EarlyExit != want.earlyExit ||
				st.SnapshotHits != want.snapshotHits || st.ArchiveHits != want.archiveHits || st.Deduped != want.deduped {
				t.Fatalf("page %d of %+v: truncated %v cursor %q exit %q hits %d/%d deduped %d; want %v %q %q %d/%d %d",
					page, req, st.Truncated, res.Cursor, st.EarlyExit, st.SnapshotHits, st.ArchiveHits, st.Deduped,
					want.truncated, want.cursor, want.earlyExit, want.snapshotHits, want.archiveHits, want.deduped)
			}
			if res.Cursor == "" {
				return
			}
			req.Cursor = res.Cursor
		}
	})
}
