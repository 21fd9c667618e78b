package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/query"
)

// The references below are the bodies as the handlers built them before
// the typed writer: a map[string]any (or the bare struct) handed to
// json.Encoder's Encode, and json.Marshal for SSE. The typed encoders
// must reproduce their bytes exactly.

// EventView is that reference for /events and /events/{id}: the tagged
// struct the handlers used to copy each epoch view into and marshal.
// encodeEvent writes the same bytes from the *detect.Event itself.
type EventView struct {
	ID            uint64    `json:"id"`
	State         string    `json:"state"`
	Keywords      []string  `json:"keywords"`
	Rank          float64   `json:"rank"`
	PeakRank      float64   `json:"peak_rank"`
	RankHistory   []float64 `json:"rank_history,omitempty"`
	BornQuantum   int       `json:"born_quantum"`
	LastQuantum   int       `json:"last_quantum"`
	Evolved       bool      `json:"evolved"`
	Size          int       `json:"size"`
	Support       int       `json:"support"`
	Reported      bool      `json:"reported"`
	FirstReported int       `json:"first_reported,omitempty"`
	MergedInto    uint64    `json:"merged_into,omitempty"`
	SplitFrom     uint64    `json:"split_from,omitempty"`
	Spurious      bool      `json:"spurious"`
}

func viewOf(ev *detect.Event) EventView {
	return EventView{
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      ev.Keywords,
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		RankHistory:   ev.RankHistory,
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

// viewsOf keeps nil nil, so the reference marshals null where the
// encoder must.
func viewsOf(evs []*detect.Event) []EventView {
	if evs == nil {
		return nil
	}
	out := make([]EventView, len(evs))
	for i, ev := range evs {
		out[i] = viewOf(ev)
	}
	return out
}

func refBody(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func typedBody(t testing.TB, body func(*jsonw.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := jsonw.Body(&buf)
	body(jw)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameBytes(t testing.TB, shape string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-80, 0)
	t.Fatalf("%s: typed writer diverges from encoding/json at byte %d (%d vs %d bytes):\ngot  …%q\nwant …%q",
		shape, i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
}

// checkQueryBody holds the /query body to encoding/json's bytes for the
// Records the page's rows materialise.
func checkQueryBody(t testing.TB, tenant string, res query.Result, debug *traceJSON) {
	t.Helper()
	var events []archive.Record
	if res.Events != nil {
		events = make([]archive.Record, len(res.Events))
		for i := range res.Events {
			events[i] = res.Events[i].Record()
		}
	}
	ref := map[string]any{
		"tenant": tenant,
		"events": events,
		"stats":  res.Stats,
		"cursor": res.Cursor,
	}
	if debug != nil {
		ref["debug"] = *debug
	}
	got := typedBody(t, func(jw *jsonw.Writer) { encodeQueryBody(jw, tenant, &res, debug) })
	sameBytes(t, "/query", got, refBody(t, ref))
}

// rowsOf is a page of buffer-record rows over recs; nil stays nil.
func rowsOf(recs []archive.Record) []query.Row {
	if recs == nil {
		return nil
	}
	rows := make([]query.Row, len(recs))
	for i := range recs {
		rows[i] = query.Row{Rec: &recs[i]}
	}
	return rows
}

// sealedRows archives recs (Seq ascending, no record spanning
// backwards) as one sealed segment of blockEvents-record blocks and
// reads it back: one block row per record, in Seq order.
func sealedRows(t testing.TB, recs []archive.Record, blockEvents int) []query.Row {
	t.Helper()
	l, err := archive.Open(t.TempDir(), archive.Options{SegmentEvents: len(recs), BucketQuanta: math.MaxInt, BlockEvents: blockEvents})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	var rows []query.Row
	for _, v := range l.Segments() {
		if _, _, err := v.ScanBlocks(archive.Pred{From: math.MinInt, To: -1}, func(b *archive.Block) error {
			for i := 0; i < b.Len(); i++ {
				rows = append(rows, query.Row{Block: b, Pos: i})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(rows) != len(recs) {
		t.Fatalf("%d of %d records came back as block rows", len(rows), len(recs))
	}
	return rows
}

// mixedRows is a page over recs whose rows rotate through the three
// kinds a Result holds: a decoded block row (recs sealed in blocks of
// four), a buffer record, and — where evs has one — a snapshot event.
// nil stays nil.
func mixedRows(t testing.TB, recs []archive.Record, evs []*detect.Event) []query.Row {
	t.Helper()
	if recs == nil {
		return nil
	}
	sealed := slices.Clone(recs)
	for i := range sealed {
		// The codec's invariants, which nothing on the wire shows.
		sealed[i].Seq = uint64(i + 1)
		sealed[i].BornQuantum = min(sealed[i].BornQuantum, sealed[i].LastQuantum)
	}
	blocks := sealedRows(t, sealed, 4)
	rows := rowsOf(recs)
	for i := range rows {
		switch {
		case i%3 == 0:
			rows[i] = blocks[i]
		case i%3 == 2 && i < len(evs):
			rows[i] = query.Row{Event: evs[i]}
		}
	}
	return rows
}

func checkEventsBody(t testing.TB, tenant string, events []*detect.Event) {
	t.Helper()
	got := typedBody(t, func(jw *jsonw.Writer) { encodeEventsBody(jw, tenant, events) })
	sameBytes(t, "/events", got, refBody(t, map[string]any{"tenant": tenant, "events": viewsOf(events)}))
	for _, ev := range events {
		got := typedBody(t, func(jw *jsonw.Writer) { encodeEvent(jw, ev) })
		sameBytes(t, "/events/{id}", got, refBody(t, viewOf(ev)))
	}
}

func checkRelatedBody(t testing.TB, tenant string, pairs []detect.RelatedPair) {
	t.Helper()
	got := typedBody(t, func(jw *jsonw.Writer) { encodeRelatedBody(jw, tenant, pairs) })
	sameBytes(t, "/related", got, refBody(t, map[string]any{"tenant": tenant, "related": pairs}))
}

func checkIngestAck(t testing.TB, tenant string, queued int) {
	t.Helper()
	got := typedBody(t, func(jw *jsonw.Writer) { encodeIngestAck(jw, tenant, queued) })
	sameBytes(t, "ingest ack", got, refBody(t, map[string]any{"tenant": tenant, "queued": queued}))
}

func checkStreamEvent(t testing.TB, ev *StreamEvent) {
	t.Helper()
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	jw := jsonw.Compact()
	encodeStreamEvent(jw, ev)
	sameBytes(t, "SSE payload", jw.Bytes(), want)
	jw.Close()
}

var encodeCornerStrings = []string{
	"",
	"earthquake",
	`q"uote\slash`,
	"<script>&amp;</script>",
	"tab\tnl\ncr\r\b\f\x00\x1f\x7f",
	"ünïcödé 日本語 🦀",
	"bad \xff\xfe utf8 \xc3(",
	"sep\u2028and\u2029",
	"cut \xf0",
}

var encodeCornerFloats = []float64{
	0, math.Copysign(0, -1), 1, 32, 0.1, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1.25e-9, 1e-10,
	1e20, 9.99999999e20, 1e21, 1.5e22, -1e-7, -1e21,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64,
}

// fullQueryEvent and fullEvent set every field, the omitempty ones
// included, with a corner string and a corner float in rotation.
func fullQueryEvent(i int) archive.Record {
	return archive.Record{
		Seq: uint64(i) + 100, // never on the wire
		ID:  uint64(i) + 1, State: "merged",
		Keywords:    []string{"alpha", encodeCornerStrings[i%len(encodeCornerStrings)]},
		AllKeywords: []string{"alpha", "beta", encodeCornerStrings[(i+3)%len(encodeCornerStrings)]},
		Rank:        encodeCornerFloats[i%len(encodeCornerFloats)], PeakRank: 7.5 + float64(i)/3,
		BornQuantum: i, LastQuantum: i + 4, Evolved: true, Size: 5, Support: 17,
		Reported: true, FirstReported: i + 1, MergedInto: uint64(i) + 9, SplitFrom: 3, Spurious: true,
	}
}

func fullEvent(i int) *detect.Event {
	ev := &detect.Event{
		ID: uint64(i) + 1, State: detect.EventState(i % 3),
		Keywords: []string{"alpha", encodeCornerStrings[i%len(encodeCornerStrings)]},
		Rank:     encodeCornerFloats[i%len(encodeCornerFloats)], PeakRank: 40,
		RankHistory: encodeCornerFloats[:1+i%len(encodeCornerFloats)],
		BornQuantum: i, LastQuantum: i + 2, Evolved: true, Size: 4, Support: 11,
		Reported: true, FirstReported: i + 1, MergedInto: 12, SplitFrom: uint64(i) + 2,
	}
	if i%4 == 3 { // a burst that only decays: spurious
		ev.RankHistory, ev.Evolved = []float64{9, 4, 2, 1}, false
	}
	return ev
}

var fullStats = query.Stats{
	SnapshotHits: 1, ArchiveHits: 2, Deduped: 3, Segments: 4, SegmentsScanned: 5,
	SkippedByTime: 6, SkippedByBloom: 7, SkippedByCursor: 8, SkippedByLimit: 9, SkippedByRank: 10,
	Blocks: 11, BlocksScanned: 12, BlocksSkippedByTime: 13, BlocksSkippedByRank: 14, BlocksSkippedByKeyword: 15,
	RecordsScanned: 16, Truncated: true, Degraded: true, SegmentsQuarantined: 17, EarlyExit: "limit",
}

var fullTrace = traceJSON{
	Tenant: "t<0>", Op: "query", Detail: "/v1/t/query?keyword=a&b=<c>",
	Start: time.Date(2026, 10, 2, 13, 4, 5, 123456789, time.FixedZone("", -7*3600)), TotalMs: 1.25,
	Spans: []spanJSON{{Stage: "parse", Ms: 1e-7}, {Stage: "archive_scan", Ms: 0.75, Annotations: "hits=3 segments=1/2"}},
}

// TestEncodersMatchEncodingJSON is the byte-identity guarantee for every
// typed shape: each omitempty field at zero and non-zero, nil vs empty
// for every slice, debug present and absent, escaping and float-format
// corners in every string and float position, and bodies from zero
// events to thousands (several flushes of the pooled buffer).
func TestEncodersMatchEncodingJSON(t *testing.T) {
	// /query
	checkQueryBody(t, "t0", query.Result{}, nil) // events null, stats all zero
	checkQueryBody(t, "t0", query.Result{Events: []query.Row{}}, nil)
	// keywords null and all_keywords omitted; both empty
	edge := []archive.Record{{Seq: 1}, {Seq: 2, Keywords: []string{}, AllKeywords: []string{}}}
	checkQueryBody(t, "t0", query.Result{Events: rowsOf(edge)}, nil)
	checkQueryBody(t, "t0", query.Result{Events: sealedRows(t, edge, 1)}, nil)
	checkQueryBody(t, "t0", query.Result{Events: []query.Row{{Event: &detect.Event{}}, {Event: fullEvent(2)}}}, nil)
	utc := fullTrace
	utc.Start = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	utc.Detail, utc.Spans = "", []spanJSON{}
	nilSpans := fullTrace
	nilSpans.Spans = nil
	for _, n := range []int{1, 3, 40, 4000} {
		recs := make([]archive.Record, n)
		evs := make([]*detect.Event, n)
		for i := range recs {
			if i%5 == 4 {
				recs[i] = archive.Record{ID: uint64(i), State: "ended", Keywords: []string{"k"}}
			} else {
				recs[i] = fullQueryEvent(i)
			}
			evs[i] = fullEvent(i)
		}
		rows := mixedRows(t, recs, evs)
		for _, dbg := range []*traceJSON{nil, &fullTrace, &utc, &nilSpans} {
			res := query.Result{Stats: fullStats, Cursor: "djE6MTI6MzQ", Events: rows}
			checkQueryBody(t, encodeCornerStrings[n%len(encodeCornerStrings)], res, dbg)
		}
	}
	for _, exit := range []string{"", "limit", "empty-range"} {
		checkQueryBody(t, "t0", query.Result{Events: []query.Row{}, Stats: query.Stats{EarlyExit: exit}}, nil)
	}

	// /events, /events?keyword=, /events/{id}
	checkEventsBody(t, "t0", nil)
	checkEventsBody(t, "t0", []*detect.Event{})
	checkEventsBody(t, "t0", []*detect.Event{{}, {Keywords: []string{}, RankHistory: []float64{}}})
	for _, n := range []int{1, 7, 3000} {
		evs := make([]*detect.Event, n)
		for i := range evs {
			evs[i] = fullEvent(i)
		}
		checkEventsBody(t, "tenant-"+encodeCornerStrings[n%len(encodeCornerStrings)], evs)
	}

	// /related
	checkRelatedBody(t, "t0", nil)
	checkRelatedBody(t, "t0", []detect.RelatedPair{})
	pairs := make([]detect.RelatedPair, len(encodeCornerFloats))
	for i, f := range encodeCornerFloats {
		pairs[i] = detect.RelatedPair{A: uint64(i), B: math.MaxUint64 - uint64(i), UserJaccard: f}
	}
	checkRelatedBody(t, "t0", pairs)

	// ingest ack
	for _, tenant := range encodeCornerStrings {
		checkIngestAck(t, tenant, len(tenant))
	}

	// SSE
	checkStreamEvent(t, &StreamEvent{})
	checkStreamEvent(t, &StreamEvent{Reports: []detect.Report{}, Born: []uint64{}, Ended: []uint64{}, Merged: []detect.MergeNote{}})
	ev := &StreamEvent{
		Tenant: "t<0>", Quantum: 12, AKGNodes: 300, AKGEdges: 900,
		Born: []uint64{4, 5}, Ended: []uint64{1}, Merged: []detect.MergeNote{{Event: 2, Into: 3}, {Event: 6}},
		Reports: []detect.Report{{}, {Keywords: []string{}}},
	}
	for i, f := range encodeCornerFloats {
		ev.Reports = append(ev.Reports, detect.Report{
			EventID: uint64(i), Quantum: 12, Keywords: encodeCornerStrings, Rank: f,
			Size: i, Support: 3 * i, Born: i / 2, Evolved: i%2 == 0,
		})
	}
	checkStreamEvent(t, ev)
}

// FuzzEncodeResponse builds every typed shape from the fuzz input —
// strings from raw byte soup, floats from raw bit patterns, optional
// fields and nil-vs-empty slices from flag bits — and holds each to
// encoding/json's bytes.
func FuzzEncodeResponse(f *testing.F) {
	for i, s := range encodeCornerStrings {
		f.Add([]byte(s), math.Float64bits(encodeCornerFloats[i]), uint16(i*37), uint8(i))
	}
	f.Add([]byte("a<b>\xe2\x80\xa8&\x00\"\\"), math.Float64bits(1e21), uint16(0xffff), uint8(200))
	f.Add([]byte{}, math.Float64bits(1e-6), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64, flags uint16, n uint8) {
		str := func(i int) string { // a window of raw that moves with i
			if len(raw) == 0 {
				return ""
			}
			lo := i % len(raw)
			return string(raw[lo:min(lo+1+i%11, len(raw))])
		}
		flt := func(i int) float64 {
			v := math.Float64frombits(bits ^ uint64(i)*0x9e3779b97f4a7c15)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return float64(i) // encoding/json has no bytes to compare with
			}
			return v
		}
		flag := func(b int) bool { return flags>>b&1 != 0 }
		strs := func(i int) []string {
			switch i % 4 {
			case 0:
				return nil
			case 1:
				return []string{}
			}
			return []string{str(i), str(i + 1), str(i + 7)}
		}
		opt := func(b int, v int) int {
			if flag(b) {
				return v
			}
			return 0
		}

		var recs []archive.Record
		if flag(0) {
			recs = []archive.Record{}
		}
		views := []*detect.Event(nil)
		if flag(1) {
			views = []*detect.Event{}
		}
		for i := 0; i < int(n); i++ {
			recs = append(recs, archive.Record{
				ID: bits + uint64(i), State: str(i), Keywords: strs(i), AllKeywords: strs(i + 1),
				Rank: flt(i), PeakRank: flt(i + 1), BornQuantum: i, LastQuantum: int(int32(bits)) + i,
				Evolved: flag(2), Size: i, Support: -i, Reported: flag(3),
				FirstReported: opt(4, i), MergedInto: uint64(opt(5, i+1)), SplitFrom: uint64(opt(6, 1)), Spurious: flag(7),
			})
			var hist []float64
			for j := 0; j < i%5; j++ {
				hist = append(hist, flt(i+j))
			}
			if i%7 == 6 {
				hist = []float64{}
			}
			views = append(views, &detect.Event{
				ID: bits - uint64(i), State: detect.EventState(i % 4), Keywords: strs(i + 2), Rank: flt(i + 2), PeakRank: flt(i + 3),
				RankHistory: hist, BornQuantum: -i, LastQuantum: i, Evolved: flag(8), Size: i, Support: i,
				Reported: flag(9), FirstReported: opt(10, 1), MergedInto: uint64(opt(11, 1)), SplitFrom: uint64(opt(12, i)),
			})
		}
		res := query.Result{Cursor: str(3), Events: mixedRows(t, recs, views)}
		res.Stats = query.Stats{
			SnapshotHits: int(n), ArchiveHits: opt(0, 1), Deduped: opt(1, 2), Segments: opt(2, 3), SegmentsScanned: opt(3, 4),
			SkippedByTime: opt(4, 5), SkippedByBloom: opt(5, 6), SkippedByCursor: opt(6, 7), SkippedByLimit: opt(7, 8),
			SkippedByRank: opt(8, 9), Blocks: opt(9, 10), BlocksScanned: opt(10, 11), BlocksSkippedByTime: opt(11, 12),
			BlocksSkippedByRank: opt(12, 13), BlocksSkippedByKeyword: opt(13, 14), RecordsScanned: opt(14, 15),
			Truncated: flag(15), Degraded: flag(14), SegmentsQuarantined: opt(13, 1), EarlyExit: str(int(n)),
		}
		var dbg *traceJSON
		if flag(15) {
			dbg = &traceJSON{
				Tenant: str(1), Op: str(2), Detail: str(5), TotalMs: flt(9),
				Start: time.Unix(int64(bits%4e9), int64(flags)*1000).In(time.FixedZone("", (int(n)-128)*300)),
			}
			for i := 0; i < int(n)%6; i++ {
				dbg.Spans = append(dbg.Spans, spanJSON{Stage: str(i), Ms: flt(i), Annotations: str(i + int(n)%3)})
			}
		}
		checkQueryBody(t, str(0), res, dbg)
		checkEventsBody(t, str(0), views)

		pairs := []detect.RelatedPair(nil)
		if flag(2) {
			pairs = []detect.RelatedPair{}
		}
		for i := 0; i < int(n)%9; i++ {
			pairs = append(pairs, detect.RelatedPair{A: uint64(i), B: bits, UserJaccard: flt(i)})
		}
		checkRelatedBody(t, str(4), pairs)
		checkIngestAck(t, str(6), int(int32(bits)))

		ev := &StreamEvent{Tenant: str(8), Quantum: int(n), AKGNodes: int(flags), AKGEdges: -int(n)}
		if flag(3) {
			ev.Reports, ev.Born, ev.Ended, ev.Merged = []detect.Report{}, []uint64{}, []uint64{}, []detect.MergeNote{}
		}
		for i := 0; i < int(n)%12; i++ {
			ev.Reports = append(ev.Reports, detect.Report{
				EventID: uint64(i), Quantum: int(n), Keywords: strs(i), Rank: flt(i),
				Size: i, Support: i * 3, Born: i - 1, Evolved: flag(i % 16),
			})
			if flag(4) {
				ev.Born = append(ev.Born, uint64(i))
			}
			if flag(5) {
				ev.Ended = append(ev.Ended, bits-uint64(i))
			}
			if flag(6) {
				ev.Merged = append(ev.Merged, detect.MergeNote{Event: uint64(i), Into: uint64(opt(7, i))})
			}
		}
		checkStreamEvent(t, ev)
	})
}

// benchResult is a /query page of n buffer-record events shaped like
// the benchmark's: a handful of keywords, a longer keyword history, most
// optional fields unset.
func benchResult(n int) query.Result {
	recs := make([]archive.Record, n)
	words := strings.Fields("earthquake struck eastern turkey rescue teams van province magnitude tremor aftershock relief")
	for i := range recs {
		kws := words[i%4 : i%4+4]
		recs[i] = archive.Record{
			ID: uint64(i) + 1, State: "ended", Keywords: kws, AllKeywords: words[i%4 : i%4+7],
			Rank: 10 + float64(i%97)/7, PeakRank: 30 + float64(i%89)/3,
			BornQuantum: i / 3, LastQuantum: i/3 + 5, Evolved: i%2 == 0, Size: 4, Support: 9 + i%40,
			Reported: true, FirstReported: i/3 + 1,
		}
	}
	return query.Result{Events: rowsOf(recs), Stats: query.Stats{ArchiveHits: n, Segments: 8, SegmentsScanned: 8, RecordsScanned: n}}
}

// fullScanArchive seals n records shaped like a query-archive page —
// six keywords and six or seven keyword-history entries each, ranks at
// full float precision, a vocabulary of a few hundred words — into
// segments of four blocks of blockEvents records.
func fullScanArchive(tb testing.TB, n, blockEvents int) *archive.Log {
	l, _ := fullScanDir(tb, n, blockEvents)
	return l
}

// fullScanDir is fullScanArchive, with a func that opens the archive
// directory anew: a Log whose every block is a block-cache miss.
func fullScanDir(tb testing.TB, n, blockEvents int) (*archive.Log, func() *archive.Log) {
	tb.Helper()
	dir, opt := tb.TempDir(), archive.Options{SegmentEvents: 4 * blockEvents, BucketQuanta: 1 << 20, BlockEvents: blockEvents}
	l, err := archive.Open(dir, opt)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	rng := rand.New(rand.NewSource(31))
	word := func() string { return "kw" + strconv.Itoa(rng.Intn(300)) }
	for i := 0; i < n; i++ {
		set := map[string]bool{}
		for len(set) < 6 {
			set[word()] = true
		}
		kws := slices.Sorted(maps.Keys(set))
		for len(set) < 6+i%2 {
			set[word()] = true
		}
		rank := rng.Float64() * 90
		rec := archive.Record{
			Seq: uint64(i + 1), ID: uint64(5000 + i), State: "ended",
			Keywords: kws, AllKeywords: slices.Sorted(maps.Keys(set)),
			Rank: rank, PeakRank: rank + rng.Float64()*40,
			BornQuantum: i / 4, LastQuantum: i/4 + rng.Intn(6), Evolved: rng.Intn(2) == 0,
			Size: 3 + rng.Intn(8), Support: 5 + rng.Intn(60), Reported: true, FirstReported: i/4 + 1,
		}
		if err := l.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return l, func() *archive.Log {
		l, err := archive.Open(dir, opt)
		if err != nil {
			tb.Fatal(err)
		}
		return l
	}
}

// fullScanBody is what /query?limit=10000 serves over arch, the
// snapshot left out: Run, then encode into dst. Safe to call from any
// goroutine.
func fullScanBody(tb testing.TB, arch *archive.Log, dst io.Writer) {
	res, err := query.Run(nil, arch, query.Request{To: -1, Limit: maxQueryLimit})
	if err != nil {
		tb.Error(err)
		return
	}
	jw := jsonw.Body(dst)
	encodeQueryBody(jw, "t0", &res, nil)
	jw.Close()
}

// TestQueryFullScanAllocs: a full-scan page (Run, then encode)
// allocates per block scanned, not per row. Two sealed archives of 16
// blocks each, one holding ten times the rows of the other, must cost
// about the same; a row copy, or a store that allocates every few dozen
// rows, puts tens to thousands on top of the larger one.
func TestQueryFullScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	allocsFor := func(n, blockEvents int) float64 {
		arch := fullScanArchive(t, n, blockEvents)
		res, err := query.Run(nil, arch, query.Request{To: -1, Limit: maxQueryLimit})
		if err != nil {
			t.Fatal(err)
		}
		blocks, rows := res.Stats.BlocksScanned, len(res.Events)
		if arch.ColumnarSegmentCount() != 4 || blocks != 16 || rows != n {
			t.Fatalf("%d segments, %d blocks, %d rows; want 4, 16, %d, all sealed", arch.ColumnarSegmentCount(), blocks, rows, n)
		}
		// A collection would empty the writers' pool and charge the run
		// that follows for a fresh buffer.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(10, func() { fullScanBody(t, arch, io.Discard) })
	}
	small, large := allocsFor(400, 25), allocsFor(4000, 250)
	// The row slice and the escaped strings grow by doubling: a few more
	// steps for ten times the rows.
	if large > small+24 || large > 10*16+100 {
		t.Fatalf("full scans of 16 blocks allocate %.0f times for 400 rows and %.0f for 4000; want O(blocks)", small, large)
	}
}

// TestConcurrentFullScans runs full scans side by side over the same
// cached blocks: every body must equal the one a lone scan wrote.
func TestConcurrentFullScans(t *testing.T) {
	arch := fullScanArchive(t, 1500, 64)
	var want bytes.Buffer
	fullScanBody(t, arch, &want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got bytes.Buffer
			for i := 0; i < 8; i++ {
				got.Reset()
				fullScanBody(t, arch, &got)
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("a concurrent full scan served a different body (%d vs %d bytes)", got.Len(), want.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkQueryFullScan is the full-scan page end to end inside the
// server: Run over a sealed 4,096-record archive (16 blocks of 256) of
// query-archive-shaped events, the body encoded into a discarding
// connection. Every op after the first finds its blocks in the block
// cache, rows rendered; BenchmarkQueryFullScanCold is the first.
func BenchmarkQueryFullScan(b *testing.B) {
	arch := fullScanArchive(b, 4096, 256)
	var size countWriter
	fullScanBody(b, arch, &size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fullScanBody(b, arch, io.Discard)
	}
}

// BenchmarkQueryFullScanCold is BenchmarkQueryFullScan's page served by
// a freshly opened Log, reopened outside the timer: every block is a
// block-cache miss, read, CRC-checked, decoded and its rows rendered —
// the first full scan after a restart or an eviction.
func BenchmarkQueryFullScanCold(b *testing.B) {
	_, reopen := fullScanDir(b, 4096, 256)
	var size countWriter
	fullScanBody(b, reopen(), &size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arch := reopen()
		b.StartTimer()
		fullScanBody(b, arch, io.Discard)
		b.StopTimer()
		arch.Close() // its blocks leave the cache, as an evicted Log's would
		b.StartTimer()
	}
}

// TestQueryResponseAllocs: encoding a /query body allocates the same
// whether the page holds ten events or four thousand — nothing per
// event, nothing per flush.
func TestQueryResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	allocsFor := func(n int) float64 {
		res := benchResult(n)
		return testing.AllocsPerRun(20, func() {
			jw := jsonw.Body(io.Discard)
			encodeQueryBody(jw, "t0", &res, nil)
			jw.Close()
		})
	}
	small, large := allocsFor(10), allocsFor(4000)
	if small != large || large > 2 {
		t.Fatalf("encoding allocates %.1f times for 10 events and %.1f for 4000; want equal and ≤ 2", small, large)
	}
}

// BenchmarkQueryResponseEncode is the full-scan response: 4,000 events
// through the typed writer into a discarding connection.
func BenchmarkQueryResponseEncode(b *testing.B) {
	res := benchResult(4000)
	var size countWriter
	jw := jsonw.Body(&size)
	encodeQueryBody(jw, "t0", &res, nil)
	jw.Close()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw := jsonw.Body(io.Discard)
		encodeQueryBody(jw, "t0", &res, nil)
		jw.Close()
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }

// TestHTTPEncodeStage: every endpoint the typed writer serves observes
// http_encode once per body; /query's trace — which ends before the
// body — is finished and offered on the 400 path too; and the stage
// reaches both /metrics formats.
func TestHTTPEncodeStage(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/enc/messages", quantumOf(0, "storm coming"))
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/enc/flush", nil)
	resp.Body.Close()
	tn, _ := pool.Tenant("enc")
	encoded := func() uint64 { return tn.Obs().Snapshot(obs.StageHTTPEncode).Count }
	if got := encoded(); got != 1 {
		t.Fatalf("http_encode count after one ingest ack = %d, want 1", got)
	}
	for i, path := range []string{"/v1/enc/events", "/v1/enc/events?keyword=storm", "/v1/enc/related", "/v1/enc/query?limit=5", "/v1/enc/query?debug=1"} {
		if code, body := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s = %d %s", path, code, body)
		}
		if got, want := encoded(), uint64(i+2); got != want {
			t.Fatalf("http_encode count after GET %s = %d, want %d", path, got, want)
		}
	}
	// Error bodies are cold: no observation.
	queries := tn.Obs().Snapshot(obs.StageHTTPQuery).Count
	traced := len(tn.Obs().Ring().Snapshot())
	if code, _ := getBody(t, ts.URL+"/v1/enc/query?limit=minus-one"); code != http.StatusBadRequest {
		t.Fatalf("malformed limit = %d, want 400", code)
	}
	if got := encoded(); got != 6 {
		t.Fatalf("http_encode count after a 400 = %d, want 6", got)
	}
	// …but the rejected request's trace is finished: it counts as a
	// query and competes for the slow-request ring.
	if got := tn.Obs().Snapshot(obs.StageHTTPQuery).Count; got != queries+1 {
		t.Fatalf("http_query count after a 400 in parsing = %d, want %d", got, queries+1)
	}
	if got := len(tn.Obs().Ring().Snapshot()); got != traced+1 {
		t.Fatalf("slow-request ring holds %d traces after a 400 in parsing, want %d", got, traced+1)
	}

	if m := tenantSamples(t, tn); m["eventdetect_http_encode_total"] != 6 || m["eventdetect_http_encode_seconds_total"] <= 0 {
		t.Fatalf("http_encode = %v bodies, %v s; want 6, > 0", m["eventdetect_http_encode_total"], m["eventdetect_http_encode_seconds_total"])
	}
	_, body := getBody(t, ts.URL+"/metrics?format=prometheus")
	for _, want := range []string{
		`eventdetect_stage_duration_seconds_count{tenant="enc",stage="http_encode"} 6`,
		`eventdetect_http_encode_total{tenant="enc"} 6`,
		`eventdetect_http_encode_seconds_total{tenant="enc"} `,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus exposition lacks %q", want)
		}
	}
}
