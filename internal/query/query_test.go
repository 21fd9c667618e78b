package query

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/akg"
	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/stream"
)

// fakeSnap implements Snapshot over a fixed (LastQuantum, ID)-sorted
// event list — enough to unit-test the executor without a detector.
type fakeSnap struct{ evs []*detect.Event }

func newFakeSnap(evs ...*detect.Event) *fakeSnap {
	slices.SortFunc(evs, func(a, b *detect.Event) int {
		if a.LastQuantum != b.LastQuantum {
			return a.LastQuantum - b.LastQuantum
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return &fakeSnap{evs: evs}
}

func (f *fakeSnap) EventsSinceQuantum(from int) []*detect.Event {
	i := sort.Search(len(f.evs), func(i int) bool { return f.evs[i].LastQuantum >= from })
	return f.evs[i:]
}

func (f *fakeSnap) EventsWithKeyword(kw string) []*detect.Event {
	var out []*detect.Event
	for _, ev := range f.evs {
		if hasKeywords(ev.KeywordHistory(), ev.Keywords, []string{kw}) {
			out = append(out, ev)
		}
	}
	return out
}

func (f *fakeSnap) Find(id uint64) *detect.Event {
	for _, ev := range f.evs {
		if ev.ID == id {
			return ev
		}
	}
	return nil
}

// view builds a finished snapshot event.
func view(id uint64, born, last int, kws ...string) *detect.Event {
	all := make(map[string]struct{}, len(kws))
	for _, kw := range kws {
		all[kw] = struct{}{}
	}
	slices.Sort(kws)
	return &detect.Event{
		ID: id, BornQuantum: born, LastQuantum: last,
		Keywords: kws, AllKeywords: all,
		State: detect.EventEnded, Rank: 1, PeakRank: 1,
		RankHistory: []float64{1},
	}
}

// rec builds an archive record matching view(id, born, last, kws...).
func rec(seq, id uint64, born, last int, kws ...string) archive.Record {
	slices.Sort(kws)
	return archive.Record{
		Seq: seq, ID: id, State: "ended",
		Keywords: kws, AllKeywords: kws,
		BornQuantum: born, LastQuantum: last,
		Rank: 1, PeakRank: 1,
	}
}

func openArchive(t testing.TB, segmentEvents int) *archive.Log {
	t.Helper()
	l, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: segmentEvents})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendAll(t testing.TB, l *archive.Log, recs ...archive.Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func ids(rows []Row) []uint64 {
	out := make([]uint64, len(rows))
	for i, rec := range records(rows) {
		out[i] = rec.ID
	}
	return out
}

// records materialises a page's rows.
func records(rows []Row) []archive.Record {
	out := make([]archive.Record, len(rows))
	for i := range rows {
		out[i] = rows[i].Record()
	}
	return out
}

// TestMergeOrderAcrossSources interleaves snapshot and archive events
// and checks the merged (LastQuantum, ID) order plus per-source hit
// accounting.
func TestMergeOrderAcrossSources(t *testing.T) {
	snap := newFakeSnap(view(2, 1, 3, "flood"), view(5, 4, 8, "storm"))
	arch := openArchive(t, 4)
	appendAll(t, arch,
		rec(1, 1, 0, 2, "quake"),
		rec(2, 3, 2, 5, "fire"),
		rec(3, 4, 6, 6, "wind"),
	)
	res, err := Run(snap, arch, Request{To: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4, 5} // keys (2,1) (3,2) (5,3) (6,4) (8,5)
	if !slices.Equal(ids(res.Events), want) {
		t.Fatalf("merged order = %v, want %v", ids(res.Events), want)
	}
	if res.Stats.SnapshotHits != 2 || res.Stats.ArchiveHits != 3 {
		t.Fatalf("hits = %+v, want 2 snapshot / 3 archive", res.Stats)
	}
	if res.Stats.Truncated || res.Cursor != "" {
		t.Fatalf("unlimited scan reported truncated: %+v cursor=%q", res.Stats, res.Cursor)
	}
}

// TestDedupAcrossEvictionBoundary: an event retained in the snapshot
// AND already archived (evicted after the epoch published) must be
// served exactly once.
func TestDedupAcrossEvictionBoundary(t *testing.T) {
	snap := newFakeSnap(view(7, 2, 4, "quake"))
	arch := openArchive(t, 4)
	appendAll(t, arch, rec(1, 7, 2, 4, "quake"))
	res, err := Run(snap, arch, Request{To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || res.Events[0].Event == nil || res.Events[0].Event.ID != 7 {
		t.Fatalf("dedup failed: %v", ids(res.Events))
	}
	if res.Stats.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1", res.Stats.Deduped)
	}
}

// TestLimitPushdownSkipsSegments pins the acceptance criterion: with a
// small LIMIT the engine must scan strictly fewer segments than a full
// scan of the same archive, stopping as soon as the merged heap proves
// no remaining segment can improve the page.
func TestLimitPushdownSkipsSegments(t *testing.T) {
	arch := openArchive(t, 8)
	var recs []archive.Record
	for i := 0; i < 256; i++ {
		recs = append(recs, rec(uint64(i+1), uint64(i+1), i, i, "kw"))
	}
	appendAll(t, arch, recs...)

	full, err := Run(nil, arch, Request{To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.SegmentsScanned != 32 || len(full.Events) != 256 {
		t.Fatalf("full scan = %d segments, %d events; want 32, 256", full.Stats.SegmentsScanned, len(full.Events))
	}

	lim, err := Run(nil, arch, Request{To: -1, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(lim.Events) != 5 {
		t.Fatalf("limited scan returned %d events, want 5", len(lim.Events))
	}
	if !slices.Equal(ids(lim.Events), ids(full.Events)[:5]) {
		t.Fatalf("limited page %v != full prefix %v", ids(lim.Events), ids(full.Events)[:5])
	}
	if lim.Stats.SegmentsScanned >= full.Stats.SegmentsScanned {
		t.Fatalf("limit pushdown scanned %d segments, full scan %d — no pushdown",
			lim.Stats.SegmentsScanned, full.Stats.SegmentsScanned)
	}
	if lim.Stats.SkippedByLimit == 0 || lim.Stats.EarlyExit != "limit" || !lim.Stats.Truncated {
		t.Fatalf("pushdown stats wrong: %+v", lim.Stats)
	}
	if lim.Stats.SegmentsScanned+lim.Stats.SkippedByLimit != 32 {
		t.Fatalf("segment accounting off: %+v", lim.Stats)
	}
	if lim.Cursor == "" {
		t.Fatal("truncated page carries no cursor")
	}
}

// TestCursorResumeAcrossRotation pages through the archive with a
// cursor while new appends rotate segments between pages: the resumed
// scan must continue exactly after the last served key, without
// duplicates or holes, and pick up the newly archived events.
func TestCursorResumeAcrossRotation(t *testing.T) {
	arch := openArchive(t, 4)
	for i := 0; i < 10; i++ {
		appendAll(t, arch, rec(uint64(i+1), uint64(i+1), i, i, "kw"))
	}
	page1, err := Run(nil, arch, Request{To: -1, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids(page1.Events), []uint64{1, 2, 3, 4}) {
		t.Fatalf("page1 = %v", ids(page1.Events))
	}
	if page1.Cursor == "" {
		t.Fatal("page1 has no cursor")
	}

	// Rotate: six more records across two new segment boundaries.
	for i := 10; i < 16; i++ {
		appendAll(t, arch, rec(uint64(i+1), uint64(i+1), i, i, "kw"))
	}

	var got []uint64
	cursor := page1.Cursor
	for cursor != "" {
		page, err := Run(nil, arch, Request{To: -1, Limit: 4, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ids(page.Events)...)
		if len(page.Events) == 0 && page.Cursor != "" {
			t.Fatal("empty page with a cursor: would loop forever")
		}
		cursor = page.Cursor
	}
	want := []uint64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if !slices.Equal(got, want) {
		t.Fatalf("resumed pages = %v, want %v", got, want)
	}
}

// TestLimitEqualsResultCount pins the boundary: when exactly limit
// events match and the scan ran to the end, the page is complete —
// not truncated, no cursor, no phantom extra page.
func TestLimitEqualsResultCount(t *testing.T) {
	arch := openArchive(t, 10)
	for i := 0; i < 10; i++ {
		appendAll(t, arch, rec(uint64(i+1), uint64(i+1), i, i, "kw"))
	}
	res, err := Run(nil, arch, Request{To: -1, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 10 {
		t.Fatalf("returned %d events, want 10", len(res.Events))
	}
	if res.Stats.Truncated || res.Cursor != "" {
		t.Fatalf("exact-limit page reported truncated: %+v cursor=%q", res.Stats, res.Cursor)
	}
}

// TestEmptyTimeRange: from > to is a well-formed question with an empty
// answer, not an error, and touches no source.
func TestEmptyTimeRange(t *testing.T) {
	arch := openArchive(t, 4)
	appendAll(t, arch, rec(1, 1, 0, 5, "kw"))
	res, err := Run(newFakeSnap(view(2, 0, 5, "kw")), arch, Request{From: 7, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 0 || res.Stats.EarlyExit != "empty-range" {
		t.Fatalf("empty range served %v (%+v)", ids(res.Events), res.Stats)
	}
	if res.Stats.SegmentsScanned != 0 || res.Stats.RecordsScanned != 0 {
		t.Fatalf("empty range did work: %+v", res.Stats)
	}
}

// TestBloomFalsePositiveYieldsZeroRows forces a keyword whose Bloom
// probe admits a segment that contains no matching record: the segment
// is scanned (not skipped), yields nothing, and the query still
// reports cleanly. The false positive is found by brute force against
// a near-saturated filter, so the test is deterministic given the hash
// function.
func TestBloomFalsePositiveYieldsZeroRows(t *testing.T) {
	arch := openArchive(t, 128)
	var recs []archive.Record
	kw := 0
	for i := 0; i < 128; i++ {
		kws := make([]string, 32)
		for j := range kws {
			kws[j] = fmt.Sprintf("real-%d", kw)
			kw++
		}
		recs = append(recs, rec(uint64(i+1), uint64(i+1), i, i, kws...))
	}
	appendAll(t, arch, recs...)
	segs := arch.Segments()
	if len(segs) != 1 {
		t.Fatalf("want one sealed segment, got %d", len(segs))
	}
	fp := ""
	for i := 0; i < 1_000_000; i++ {
		cand := fmt.Sprintf("zz-fp-%d", i)
		if segs[0].MayContain(cand) {
			fp = cand
			break
		}
	}
	if fp == "" {
		t.Skip("no Bloom false positive found in 1e6 candidates (filter not saturated enough)")
	}
	res, err := Run(nil, arch, Request{To: -1, Keywords: []string{fp}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 0 {
		t.Fatalf("false-positive keyword %q matched events %v", fp, ids(res.Events))
	}
	if res.Stats.SegmentsScanned != 1 || res.Stats.SkippedByBloom != 0 {
		t.Fatalf("segment should have been scanned, not skipped: %+v", res.Stats)
	}
	// The block filter (sized differently) may refute what the segment
	// filter let through; otherwise every record is decoded and filtered.
	if res.Stats.ArchiveHits != 0 ||
		(res.Stats.RecordsScanned != 128 && res.Stats.BlocksSkippedByKeyword != res.Stats.Blocks) {
		t.Fatalf("scan accounting wrong: %+v", res.Stats)
	}
}

// TestKeywordANDSemantics: multiple keywords must all appear in the
// event's keyword history, on both sources.
func TestKeywordANDSemantics(t *testing.T) {
	snap := newFakeSnap(
		view(1, 0, 1, "quake", "turkey"),
		view(2, 0, 2, "quake"),
	)
	arch := openArchive(t, 4)
	appendAll(t, arch,
		rec(1, 3, 0, 3, "quake", "turkey"),
		rec(2, 4, 0, 4, "turkey"),
	)
	res, err := Run(snap, arch, Request{To: -1, Keywords: []string{"quake", "turkey"}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids(res.Events), []uint64{1, 3}) {
		t.Fatalf("AND keywords matched %v, want [1 3]", ids(res.Events))
	}
}

// TestRankFloor filters on PeakRank on both sources.
func TestRankFloor(t *testing.T) {
	low, high := view(1, 0, 1, "kw"), view(2, 0, 2, "kw")
	low.PeakRank, high.PeakRank = 0.5, 2.5
	lowRec, highRec := rec(1, 3, 0, 3, "kw"), rec(2, 4, 0, 4, "kw")
	lowRec.PeakRank, highRec.PeakRank = 0.25, 3.5
	arch := openArchive(t, 4)
	appendAll(t, arch, lowRec, highRec)
	res, err := Run(newFakeSnap(low, high), arch, Request{To: -1, MinRank: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids(res.Events), []uint64{2, 4}) {
		t.Fatalf("rank floor kept %v, want [2 4]", ids(res.Events))
	}
}

// TestBadRequests: malformed cursors and negative limits are errors,
// never silent full scans.
func TestBadRequests(t *testing.T) {
	arch := openArchive(t, 4)
	appendAll(t, arch, rec(1, 1, 0, 1, "kw"))
	if _, err := Run(nil, arch, Request{To: -1, Cursor: "not-a-cursor!"}); err != ErrBadCursor {
		t.Fatalf("bad cursor error = %v, want ErrBadCursor", err)
	}
	if _, err := Run(nil, arch, Request{To: -1, Cursor: "djE6eDp5"}); err != ErrBadCursor {
		t.Fatalf("bad cursor payload error = %v, want ErrBadCursor", err)
	}
	if _, err := Run(nil, arch, Request{To: -1, Limit: -3}); err == nil {
		t.Fatal("negative limit accepted")
	}
}

// TestCursorRoundTrip pins the codec.
func TestCursorRoundTrip(t *testing.T) {
	for _, k := range []key{{0, 0}, {1, 2}, {1 << 30, 1 << 60}} {
		got, ok, err := decodeCursor(encodeCursor(k))
		if err != nil || !ok || got != k {
			t.Fatalf("round trip %v -> %v ok=%v err=%v", k, got, ok, err)
		}
	}
	if _, ok, err := decodeCursor(""); ok || err != nil {
		t.Fatalf("empty cursor = ok %v err %v", ok, err)
	}
}

// --- The acceptance scenario -------------------------------------------

// archiveRecordOf mirrors the serving layer's eviction projection.
func archiveRecordOf(seq uint64, ev *detect.Event) archive.Record {
	all := make([]string, 0, len(ev.AllKeywords))
	for kw := range ev.AllKeywords {
		all = append(all, kw)
	}
	slices.Sort(all)
	return archive.Record{
		Seq:           seq,
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      append([]string(nil), ev.Keywords...),
		AllKeywords:   all,
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

// TestQueryEquivalenceAcrossEviction is the acceptance criterion: the
// same query must return a byte-identical result set whether the
// matching events are all live in the snapshot, all evicted to the
// archive, or split across both. A real detector runs keyword bursts
// until events finish, then the comparison runs before and after a
// forced eviction.
func TestQueryEquivalenceAcrossEviction(t *testing.T) {
	cfg := detect.Config{Delta: 8, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 3}}
	d := detect.New(cfg)
	arch := openArchive(t, 1) // every eviction seals a segment
	d.SetOnEvict(func(ev *detect.Event) {
		if err := arch.Append(archiveRecordOf(d.Trimmed(), ev)); err != nil {
			t.Errorf("archive append: %v", err)
		}
	})

	texts := []string{
		"earthquake struck eastern turkey",
		"flood river rising rapidly",
		"storm warning coast evacuation",
		"election debate results tonight",
		"wildfire spreading canyon homes",
	}
	msgID := uint64(0)
	for b, text := range texts {
		for q := 0; q < 4; q++ {
			for i := 0; i < 8; i++ {
				msgID++
				d.IngestAll(stream.Message{
					ID: msgID, User: uint64(100*b + i), Time: int64(msgID), Text: text,
				})
			}
		}
	}
	d.Flush()

	requests := []Request{
		{To: -1},
		{To: -1, Keywords: []string{"earthquake"}},
		{From: 3, To: 9},
		{To: -1, Limit: 3},
		{To: -1, MinRank: 0.01},
	}

	before := d.Snapshot(nil)
	var beforePages []Result
	for _, req := range requests {
		res, err := Run(before, arch, req)
		if err != nil {
			t.Fatal(err)
		}
		beforePages = append(beforePages, res)
	}
	if beforePages[0].Stats.ArchiveHits != 0 {
		t.Fatalf("nothing was evicted yet, but archive served %d hits", beforePages[0].Stats.ArchiveHits)
	}
	if len(beforePages[0].Events) == 0 {
		t.Fatal("test stream produced no events; retune")
	}

	// Forced eviction: all but one finished event moves to the archive.
	if d.TrimFinished(1) == 0 {
		t.Fatal("forced eviction evicted nothing; retune the stream")
	}
	after := d.Snapshot(nil)
	for i, req := range requests {
		res, err := Run(after, arch, req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(records(res.Events))
		want, _ := json.Marshal(records(beforePages[i].Events))
		if string(got) != string(want) {
			t.Fatalf("request %d diverges across eviction:\nbefore %s\nafter  %s", i, want, got)
		}
	}

	// The unbounded query now really is split across both sources.
	res, err := Run(after, arch, Request{To: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ArchiveHits == 0 || res.Stats.SnapshotHits == 0 {
		t.Fatalf("post-eviction query not split across sources: %+v", res.Stats)
	}
}
