package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/vfs"
)

// span is one traced interval. Spans of one batch or one query share an
// id; a child names its parent, and a layer's self time is its span
// minus what its children cover.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so the
// driver code is the same in both.
type tracer struct {
	mu    sync.Mutex
	spans []span
	nq    int
}

// batch records a POST: the root span is opened here and closed by
// sseArrived; post_ack is its first child.
func (t *tracer) batch(tenant, phase string, lastQ int, sent, acked int64) {
	if t == nil {
		return
	}
	id := fmt.Sprintf("%s/%s/q%d", tenant, phase, lastQ)
	t.mu.Lock()
	t.spans = append(t.spans,
		span{Name: "batch", ID: id, Start: sent, End: sent},
		span{Name: "post_ack", ID: id, Parent: "batch", Start: sent, End: acked})
	t.mu.Unlock()
}

// closeBatches fills in each batch's end (its last quantum's SSE arrival)
// and the sse_wait child covering ack → arrival.
func (t *tracer) closeBatches(d *tenantDriver, phase string, posts []post) {
	if t == nil {
		return
	}
	arrival := make(map[string]int64, len(posts))
	for i := range posts {
		if q := posts[i].lastQ; q >= posts[i].firstQ {
			arrival[fmt.Sprintf("%s/%s/q%d", d.tp.name, phase, q)] = d.arriveAt[q]
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits []span
	for i := range t.spans {
		s := &t.spans[i]
		at, ok := arrival[s.ID]
		if !ok {
			continue
		}
		switch s.Name {
		case "batch":
			s.End = at
		case "post_ack":
			waits = append(waits, span{Name: "sse_wait", ID: s.ID, Parent: "batch", Start: min(s.End, at), End: at})
		}
	}
	t.spans = append(t.spans, waits...)
}

// query records one GET and, under it, the server's own ?debug=1 spans
// laid end to end from the request's start (the server reports durations,
// not offsets); the remainder is the query span's self time — transport,
// encode and decode.
func (t *tracer) query(class string, start, end int64, qr *queryResponse) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nq++
	id := fmt.Sprintf("query/%d", t.nq)
	name := "query:" + class
	t.spans = append(t.spans, span{Name: name, ID: id, Start: start, End: end})
	if qr.Debug == nil {
		return
	}
	at := start
	for _, s := range qr.Debug.Spans {
		d := int64(s.Ms * 1e6)
		t.spans = append(t.spans, span{Name: "server:" + s.Stage, ID: id, Parent: name, Start: at, End: at + d})
		at += d
	}
}

// selfTimes sums, per span name, duration minus children's durations.
func selfTimes(spans []span) map[string]int64 {
	type key struct{ id, name string }
	children := map[key]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[key{s.ID, s.Parent}] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - children[key{s.ID, s.Name}]
	}
	return self
}

// write dumps the spans as JSON lines.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	f, err := vfs.OS.OpenFile(filepath.Join(dir, "spans.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
