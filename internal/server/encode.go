package server

import (
	"net/http"
	"time"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/query"
)

// The hot response shapes — /query, /events, /events/{id}, /related, the
// ingest ack and the SSE payload — are written by the typed encoders
// below, one pass through jsonw.Writer, in place of a map[string]any
// handed to encoding/json. The bytes are the ones encoding/json
// produced for those maps and structs: object keys of the former map
// bodies in sorted order, struct fields in declaration order, the same
// omitempty and null-vs-[] decisions (TestEncodersMatchEncodingJSON and
// FuzzEncodeResponse compare every shape with it). Everything else is
// cold and stays on writeJSON.

// writeBody serves one typed 200/202 body: headers, then the encoder's
// output through a pooled buffer, observed as the http_encode stage.
func writeBody(w http.ResponseWriter, status int, tob *obs.TenantObs, body func(*jsonw.Writer)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	t0 := time.Now()
	jw := jsonw.Body(w)
	body(jw)
	jw.Close() //nolint:errcheck // client gone; nothing to do
	tob.Observe(obs.StageHTTPEncode, time.Since(t0))
}

// encodeQueryBody is the /query body; debug is nil without ?debug=1.
func encodeQueryBody(w *jsonw.Writer, tenant string, res *query.Result, debug *traceJSON) {
	w.BeginObject()
	w.Key("cursor").String(res.Cursor)
	if debug != nil {
		w.Key("debug")
		encodeTrace(w, debug)
	}
	w.Key("events")
	if res.Events == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range res.Events {
			r := &res.Events[i]
			w.Elem()
			switch {
			case r.Block != nil:
				w.Raw(r.Block.RowJSON(r.Pos))
			case r.Rec != nil:
				archive.EncodeQueryEvent(w, r.Rec)
			default:
				rec := archive.RecordOf(r.Event)
				archive.EncodeQueryEvent(w, &rec)
			}
		}
		w.EndArray()
	}
	w.Key("stats")
	encodeQueryStats(w, &res.Stats)
	w.Key("tenant").String(tenant)
	w.EndObject()
}

func encodeQueryStats(w *jsonw.Writer, st *query.Stats) {
	optInt := func(name string, v int) {
		if v != 0 {
			w.Key(name).Int(v)
		}
	}
	w.BeginObject()
	w.Key("snapshot_hits").Int(st.SnapshotHits)
	w.Key("archive_hits").Int(st.ArchiveHits)
	optInt("deduped", st.Deduped)
	w.Key("segments").Int(st.Segments)
	w.Key("segments_scanned").Int(st.SegmentsScanned)
	w.Key("skipped_by_time").Int(st.SkippedByTime)
	w.Key("skipped_by_bloom").Int(st.SkippedByBloom)
	w.Key("skipped_by_cursor").Int(st.SkippedByCursor)
	w.Key("skipped_by_limit").Int(st.SkippedByLimit)
	optInt("skipped_by_rank", st.SkippedByRank)
	optInt("blocks", st.Blocks)
	optInt("blocks_scanned", st.BlocksScanned)
	optInt("blocks_skipped_by_time", st.BlocksSkippedByTime)
	optInt("blocks_skipped_by_rank", st.BlocksSkippedByRank)
	optInt("blocks_skipped_by_keyword", st.BlocksSkippedByKeyword)
	w.Key("records_scanned").Int(st.RecordsScanned)
	w.Key("truncated").Bool(st.Truncated)
	if st.Degraded {
		w.Key("degraded").Bool(true)
	}
	optInt("segments_quarantined", st.SegmentsQuarantined)
	if st.EarlyExit != "" {
		w.Key("early_exit").String(st.EarlyExit)
	}
	w.EndObject()
}

func encodeTrace(w *jsonw.Writer, tr *traceJSON) {
	w.BeginObject()
	w.Key("tenant").String(tr.Tenant)
	w.Key("op").String(tr.Op)
	if tr.Detail != "" {
		w.Key("detail").String(tr.Detail)
	}
	// time.Time's MarshalJSON is this layout between quotes (for years
	// 0–9999, which a trace's start always is).
	w.Key("start").String(tr.Start.Format(time.RFC3339Nano))
	w.Key("total_ms").Float(tr.TotalMs)
	w.Key("spans")
	if tr.Spans == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range tr.Spans {
			s := &tr.Spans[i]
			w.Elem().BeginObject()
			w.Key("stage").String(s.Stage)
			w.Key("ms").Float(s.Ms)
			if s.Annotations != "" {
				w.Key("annotations").String(s.Annotations)
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// encodeEventsBody is the /events body (with or without ?keyword=).
func encodeEventsBody(w *jsonw.Writer, tenant string, events []*detect.Event) {
	w.BeginObject()
	w.Key("events")
	if events == nil {
		w.Null()
	} else {
		w.BeginArray()
		for _, ev := range events {
			w.Elem()
			encodeEvent(w, ev)
		}
		w.EndArray()
	}
	w.Key("tenant").String(tenant)
	w.EndObject()
}

// encodeEvent is one /events element and the whole /events/{id} body,
// written straight from the epoch's immutable view.
func encodeEvent(w *jsonw.Writer, ev *detect.Event) {
	w.BeginObject()
	w.Key("id").Uint(ev.ID)
	w.Key("state").String(ev.State.String())
	w.Key("keywords").Strings(ev.Keywords)
	w.Key("rank").Float(ev.Rank)
	w.Key("peak_rank").Float(ev.PeakRank)
	if len(ev.RankHistory) > 0 {
		w.Key("rank_history").Floats(ev.RankHistory)
	}
	w.Key("born_quantum").Int(ev.BornQuantum)
	w.Key("last_quantum").Int(ev.LastQuantum)
	w.Key("evolved").Bool(ev.Evolved)
	w.Key("size").Int(ev.Size)
	w.Key("support").Int(ev.Support)
	w.Key("reported").Bool(ev.Reported)
	if ev.FirstReported != 0 {
		w.Key("first_reported").Int(ev.FirstReported)
	}
	if ev.MergedInto != 0 {
		w.Key("merged_into").Uint(ev.MergedInto)
	}
	if ev.SplitFrom != 0 {
		w.Key("split_from").Uint(ev.SplitFrom)
	}
	w.Key("spurious").Bool(ev.Spurious())
	w.EndObject()
}

// encodeRelatedBody is the /related body.
func encodeRelatedBody(w *jsonw.Writer, tenant string, pairs []detect.RelatedPair) {
	w.BeginObject()
	w.Key("related")
	if pairs == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range pairs {
			p := &pairs[i]
			w.Elem().BeginObject()
			w.Key("a").Uint(p.A)
			w.Key("b").Uint(p.B)
			w.Key("user_jaccard").Float(p.UserJaccard)
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("tenant").String(tenant)
	w.EndObject()
}

// encodeIngestAck is the 202 body of POST /messages.
func encodeIngestAck(w *jsonw.Writer, tenant string, queued int) {
	w.BeginObject()
	w.Key("queued").Int(queued)
	w.Key("tenant").String(tenant)
	w.EndObject()
}

// encodeStreamEvent is the SSE quantum payload.
func encodeStreamEvent(w *jsonw.Writer, ev *StreamEvent) {
	w.BeginObject()
	w.Key("tenant").String(ev.Tenant)
	w.Key("quantum").Int(ev.Quantum)
	w.Key("reports")
	if ev.Reports == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range ev.Reports {
			r := &ev.Reports[i]
			w.Elem().BeginObject()
			w.Key("event_id").Uint(r.EventID)
			w.Key("quantum").Int(r.Quantum)
			w.Key("keywords").Strings(r.Keywords)
			w.Key("rank").Float(r.Rank)
			w.Key("size").Int(r.Size)
			w.Key("support").Int(r.Support)
			w.Key("born").Int(r.Born)
			w.Key("evolved").Bool(r.Evolved)
			w.EndObject()
		}
		w.EndArray()
	}
	if len(ev.Born) > 0 {
		w.Key("born").Uints(ev.Born)
	}
	if len(ev.Ended) > 0 {
		w.Key("ended").Uints(ev.Ended)
	}
	if len(ev.Merged) > 0 {
		w.Key("merged").BeginArray()
		for _, m := range ev.Merged {
			w.Elem().BeginObject()
			w.Key("event").Uint(m.Event)
			w.Key("into").Uint(m.Into)
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("akg_nodes").Int(ev.AKGNodes)
	w.Key("akg_edges").Int(ev.AKGEdges)
	w.EndObject()
}
