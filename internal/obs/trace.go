package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one stage of a traced request: a name, the time spent, and
// free-form annotations ("segments=12 scanned=3 ...").
type Span struct {
	Stage string
	Dur   time.Duration
	Annot string
}

// TraceRecord is one finished request trace. Immutable once returned
// by ReqTrace.Finish, so rings and debug endpoints share it freely.
type TraceRecord struct {
	Tenant string
	Op     string // "ingest", "query", "flush", ...
	Detail string // request path + query, or other context
	Start  time.Time
	Total  time.Duration
	Spans  []Span
}

// ReqTrace collects one request's spans, x/net/trace-style but
// allocation-bounded: one struct plus one small span slice per traced
// request, nothing per Step. Spans are contiguous by construction —
// each Step closes the previous span at the instant it opens the next,
// so the span durations sum exactly to Finish's Total. Nil-receiver
// safe throughout, so untraced code paths pass nil and pay one branch.
// Not safe for concurrent use (a trace follows one request).
type ReqTrace struct {
	rec      TraceRecord
	spans    []Span
	mark     time.Time // start of the open span (or the trace start)
	curName  string
	curAnnot string
	open     bool
}

// StartTrace begins a trace. The first Step's span is back-dated to
// the trace start, so setup before it is accounted for.
func StartTrace(op, tenant, detail string) *ReqTrace {
	now := time.Now()
	return &ReqTrace{
		rec:   TraceRecord{Tenant: tenant, Op: op, Detail: detail, Start: now},
		spans: make([]Span, 0, 8),
		mark:  now,
	}
}

// Step closes the current span (if any) and opens a new one named
// stage. Nil-safe.
func (t *ReqTrace) Step(stage string) {
	if t == nil {
		return
	}
	if t.open {
		now := time.Now()
		t.spans = append(t.spans, Span{Stage: t.curName, Dur: now.Sub(t.mark), Annot: t.curAnnot})
		t.mark = now
	}
	// Not open: keep mark at the trace start so the first span covers
	// everything since StartTrace.
	t.open, t.curName, t.curAnnot = true, stage, ""
}

// Annotate attaches free-form detail to the current span (joined with
// a space when called repeatedly). Nil-safe; no-op without an open
// span.
func (t *ReqTrace) Annotate(s string) {
	if t == nil || !t.open || s == "" {
		return
	}
	if t.curAnnot != "" {
		t.curAnnot += " " + s
	} else {
		t.curAnnot = s
	}
}

// Finish closes the trace and returns its immutable record. The span
// durations sum exactly to Total. Nil receiver returns nil.
func (t *ReqTrace) Finish() *TraceRecord {
	if t == nil {
		return nil
	}
	now := time.Now()
	if t.open {
		t.spans = append(t.spans, Span{Stage: t.curName, Dur: now.Sub(t.mark), Annot: t.curAnnot})
		t.open = false
	}
	t.rec.Total = now.Sub(t.rec.Start)
	t.rec.Spans = t.spans
	return &t.rec
}

// SlowRing retains the N slowest trace records offered to it — a
// bounded min-heap keyed on Total, with an atomic floor so the common
// fast-request Offer rejects without taking the lock once the ring is
// full. Safe for concurrent use.
type SlowRing struct {
	floor atomic.Int64 // smallest retained Total once full; -1 while filling

	mu   sync.Mutex
	capn int
	recs []*TraceRecord // min-heap on Total
}

// NewSlowRing builds a ring retaining the n slowest records (n ≥ 1).
func NewSlowRing(n int) *SlowRing {
	if n < 1 {
		n = 1
	}
	r := &SlowRing{capn: n, recs: make([]*TraceRecord, 0, n)}
	r.floor.Store(-1)
	return r
}

// Offer considers rec for retention.
func (r *SlowRing) Offer(rec *TraceRecord) {
	if f := r.floor.Load(); f >= 0 && int64(rec.Total) <= f {
		return // full, and rec is no slower than the fastest retained
	}
	r.mu.Lock()
	switch {
	case len(r.recs) < r.capn:
		r.recs = append(r.recs, rec)
		r.siftUp(len(r.recs) - 1)
	case rec.Total > r.recs[0].Total:
		r.recs[0] = rec
		r.siftDown(0)
	}
	if len(r.recs) == r.capn {
		r.floor.Store(int64(r.recs[0].Total))
	}
	r.mu.Unlock()
}

// Snapshot returns the retained records, slowest first.
func (r *SlowRing) Snapshot() []*TraceRecord {
	r.mu.Lock()
	out := make([]*TraceRecord, len(r.recs))
	copy(out, r.recs)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// Len returns the number of retained records.
func (r *SlowRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Cap returns the retention bound.
func (r *SlowRing) Cap() int { return r.capn }

func (r *SlowRing) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.recs[p].Total <= r.recs[i].Total {
			return
		}
		r.recs[p], r.recs[i] = r.recs[i], r.recs[p]
		i = p
	}
}

func (r *SlowRing) siftDown(i int) {
	n := len(r.recs)
	for {
		l, rr, min := 2*i+1, 2*i+2, i
		if l < n && r.recs[l].Total < r.recs[min].Total {
			min = l
		}
		if rr < n && r.recs[rr].Total < r.recs[min].Total {
			min = rr
		}
		if min == i {
			return
		}
		r.recs[i], r.recs[min] = r.recs[min], r.recs[i]
		i = min
	}
}
