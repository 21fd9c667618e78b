package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceSpansSumToTotal(t *testing.T) {
	tr := StartTrace("query", "demo", "/v1/demo/query?limit=10")
	tr.Step("parse")
	time.Sleep(time.Millisecond)
	tr.Step("plan")
	tr.Annotate("index=keyword")
	tr.Annotate("candidates=3")
	time.Sleep(time.Millisecond)
	tr.Step("scan")
	rec := tr.Finish()

	if rec.Op != "query" || rec.Tenant != "demo" {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(rec.Spans))
	}
	var sum time.Duration
	for _, s := range rec.Spans {
		if s.Dur < 0 {
			t.Fatalf("negative span %+v", s)
		}
		sum += s.Dur
	}
	// Contiguous by construction: the spans partition [Start, Finish].
	if sum != rec.Total {
		t.Fatalf("span sum %v != total %v", sum, rec.Total)
	}
	if rec.Spans[1].Annot != "index=keyword candidates=3" {
		t.Fatalf("annotation = %q", rec.Spans[1].Annot)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *ReqTrace
	tr.Step("x")
	tr.Annotate("y")
	if tr.Finish() != nil {
		t.Fatal("nil trace must finish to nil")
	}
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := NewSlowRing(8)
	// Offer 100 records in a scrambled order; the ring must retain
	// exactly the 8 slowest.
	for i := 0; i < 100; i++ {
		total := time.Duration((i*37)%100+1) * time.Millisecond
		r.Offer(&TraceRecord{Op: "q", Total: total})
	}
	recs := r.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("retained %d, want 8", len(recs))
	}
	for i, rec := range recs {
		want := time.Duration(100-i) * time.Millisecond
		if rec.Total != want {
			t.Fatalf("rank %d: total %v, want %v", i, rec.Total, want)
		}
	}
	// A record faster than the floor is rejected on the fast path.
	r.Offer(&TraceRecord{Total: time.Millisecond})
	if got := r.Snapshot()[7].Total; got != 93*time.Millisecond {
		t.Fatalf("floor breached: fastest retained %v", got)
	}
}

func TestSlowRingConcurrent(t *testing.T) {
	r := NewSlowRing(16)
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Offer(&TraceRecord{
					Op:    fmt.Sprintf("g%d", g),
					Total: time.Duration(g*per+i+1) * time.Microsecond,
				})
			}
		}(g)
	}
	wg.Wait()
	recs := r.Snapshot()
	if len(recs) != 16 {
		t.Fatalf("retained %d, want 16", len(recs))
	}
	// The global 16 slowest are the top of the last goroutine's range.
	for i, rec := range recs {
		want := time.Duration(goroutines*per-i) * time.Microsecond
		if rec.Total != want {
			t.Fatalf("rank %d: total %v, want %v", i, rec.Total, want)
		}
	}
}
