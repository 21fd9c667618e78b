package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/tracegen"
)

// TestSnapshotQueriesMatchDetector is the serving path's fidelity gate:
// every query a tenant answers from its published epoch must be
// byte-identical to the same read of a bare detector fed the same
// stream, so batching, queueing and publication change nothing.
func TestSnapshotQueriesMatchDetector(t *testing.T) {
	const n = 8000
	msgs, _ := tracegen.Generate(tracegen.TWConfig(7, n))
	cfg := detect.Config{} // paper nominal parameters

	pool, err := NewPool(PoolConfig{Detector: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/tw/messages", msgs)
	if resp.StatusCode != 202 {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/tw/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Reference: a bare detector fed the same stream, read directly.
	ref := detect.New(cfg)
	for _, m := range msgs {
		ref.IngestAll(m)
	}
	ref.Flush()

	compare := func(name string, got, want any) {
		t.Helper()
		rawGot, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		rawWant, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(rawGot) != string(rawWant) {
			t.Fatalf("%s: snapshot read diverges from detector read:\ngot  %s\nwant %s",
				name, rawGot, rawWant)
		}
	}

	all := getEvents(t, ts.URL, "tw", "?all=1")
	if len(all.Events) == 0 {
		t.Fatal("no events served; stream too tame")
	}
	compare("events?all=1", all.Events, viewsOf(ref.AllEvents()))
	compare("events", getEvents(t, ts.URL, "tw", "").Events, viewsOf(ref.TopK(0)))
	compare("events?k=3", getEvents(t, ts.URL, "tw", "?k=3").Events, viewsOf(ref.TopK(3)))

	var related struct {
		Related []detect.RelatedPair `json:"related"`
	}
	resp, err = http.Get(ts.URL + "/v1/tw/related?min=0.01")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &related)
	wantRelated := ref.RelatedEvents(0.01)
	if len(related.Related) != len(wantRelated) {
		t.Fatalf("related: %d pairs, want %d", len(related.Related), len(wantRelated))
	}
	if len(wantRelated) > 0 {
		compare("related", related.Related, wantRelated)
	}

	// Single-event lookup and the keyword filter agree with the
	// full views.
	for _, want := range all.Events[:min(4, len(all.Events))] {
		tn, _ := pool.Tenant("tw")
		got := tn.Snapshot().Find(want.ID)
		if got == nil {
			t.Fatalf("event %d not found via snapshot", want.ID)
		}
		compare(fmt.Sprintf("events/%d", want.ID), viewOf(got), want)
	}
	if top := getEvents(t, ts.URL, "tw", "").Events; len(top) > 0 {
		kw := top[0].Keywords[0]
		filtered := getEvents(t, ts.URL, "tw", "?keyword="+kw)
		if len(filtered.Events) == 0 {
			t.Fatalf("keyword %q matched nothing", kw)
		}
		for _, ev := range filtered.Events {
			found := false
			for _, k := range ev.Keywords {
				if k == kw {
					found = true
				}
			}
			if !found {
				t.Fatalf("keyword filter returned event %d without %q", ev.ID, kw)
			}
		}
	}
}

// TestQueriesDoNotBlockOnApply pins the lock-free property down: with
// the apply lock held (a batch frozen mid-application), every query
// endpoint must still answer. Before the refactor each of these reads
// took t.mu and would hang here.
func TestQueriesDoNotBlockOnApply(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("frozen")
	if err != nil {
		t.Fatal(err)
	}
	// Two quanta of history, then freeze the apply lock.
	if err := tn.Enqueue(quantumOf(0, "earthquake struck eastern turkey")); err != nil {
		t.Fatal(err)
	}
	if err := tn.Enqueue(quantumOf(8, "earthquake struck eastern turkey")); err != nil {
		t.Fatal(err)
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		tn.Snapshot().AllEvents()
		tn.Snapshot().TopK(5)
		tn.Snapshot().TopKKeyword(5, "storm")
		tn.Snapshot().Find(1)
		tn.Related(0.1)
		tn.Stats()
		writePrometheus(httptest.NewRecorder(), []*Tenant{tn})
		tn.Snapshot()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a query blocked on the apply lock")
	}
}

// TestSchedulerFairness floods one tenant with a deep backlog, then
// enqueues a single batch for a second tenant, on a one-worker
// scheduler. Round-robin (one batch per turn) must serve the cold
// tenant next but one at the latest — a hot tenant cannot starve the
// rest of the pool. The schedule is pinned, not raced: the worker is
// parked inside the batch hook after the first hot batch until the cold
// batch is queued, so whatever the enqueue loop's speed the runnable
// queue holds at most one hot entry ahead of cold's.
func TestSchedulerFairness(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), Workers: 1, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())

	var mu sync.Mutex
	var order []string
	coldQueued := make(chan struct{})
	pool.sched.mu.Lock()
	pool.sched.onBatch = func(tenant string) {
		mu.Lock()
		order = append(order, tenant)
		first := len(order) == 1
		mu.Unlock()
		if first {
			<-coldQueued
		}
	}
	pool.sched.mu.Unlock()

	hot, err := pool.GetOrCreate("hot")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pool.GetOrCreate("cold")
	if err != nil {
		t.Fatal(err)
	}
	const hotBatches = 64
	for i := 0; i < hotBatches; i++ {
		if err := hot.Enqueue(quantumOf(i*8, "hot tenant message flood")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cold.Enqueue(quantumOf(0, "cold tenant single batch")); err != nil {
		t.Fatal(err)
	}
	close(coldQueued)
	if err := cold.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	// The parked batch, at most one hot turn already queued ahead, then
	// cold: anything later means FIFO-per-tenant leaked back in.
	coldPos := slices.Index(order, "cold")
	if coldPos == -1 {
		t.Fatalf("cold tenant batch never applied; order = %v", order)
	}
	if coldPos > 2 {
		t.Fatalf("scheduler not round-robinning: %d hot batches before cold's turn, want at most 2", coldPos)
	}
}

// TestSSEDropSlowestClient: a subscriber that never reads must be
// dropped (its channel closed) once it falls subBuffer events behind —
// and the publisher must never block on it.
func TestSSEDropSlowestClient(t *testing.T) {
	b := newBroker()
	ch, cancel := b.subscribe()
	defer cancel()

	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < subBuffer+1; i++ {
			b.publish(&StreamEvent{Tenant: "x", Quantum: i})
		}
	}()
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a stalled subscriber")
	}

	// The client was unsubscribed: the buffered backlog is readable, then
	// the channel closes.
	got := 0
	for range ch {
		got++
	}
	if got != subBuffer {
		t.Fatalf("drained %d buffered events, want %d", got, subBuffer)
	}
	b.mu.Lock()
	remaining := len(b.subs)
	b.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("stalled subscriber still registered (%d subs)", remaining)
	}

	// A fresh, prompt subscriber is unaffected by the drop of the stale one.
	ch2, cancel2 := b.subscribe()
	defer cancel2()
	b.publish(&StreamEvent{Tenant: "x", Quantum: 99})
	select {
	case payload := <-ch2:
		var ev StreamEvent
		if err := json.Unmarshal(payload, &ev); err != nil || ev.Quantum != 99 {
			t.Fatalf("payload = %s, err = %v", payload, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live subscriber missed the event")
	}
}

// TestConcurrentIngestQueriesShutdown runs full-rate ingest, concurrent
// queries on every endpoint, and a SIGTERM-style snapshotting shutdown
// on one tenant — the scenario the race-detector CI job exists for.
// After restart, the snapshotted tenant must be present and queryable.
func TestConcurrentIngestQueriesShutdown(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewPool(PoolConfig{
		Detector:     testDetectConfig(),
		WALDir:       dir,
		RetainEvents: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(pool)

	if _, err := pool.GetOrCreate("busy"); err != nil {
		t.Fatal(err)
	}
	tn, _ := pool.Tenant("busy")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Int64

	wg.Add(1)
	go func() { // full-rate ingest until shutdown rejects it
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := tn.Enqueue(quantumOf(i*8, "storm warning coast evacuation"))
			if err == ErrClosed {
				return
			}
			if err == ErrQueueFull {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	paths := []string{
		"/v1/busy/events", "/v1/busy/events?all=1", "/v1/busy/events?k=2",
		"/v1/busy/related?min=0.05", "/metrics", "/healthz",
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(i+g)%len(paths)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
				queries.Add(1)
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	// SIGTERM path: drain + snapshot while queries and ingest still run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if queries.Load() == 0 {
		t.Fatal("no queries completed during the run")
	}

	// The final snapshot restores.
	pool2, err := NewPool(PoolConfig{Detector: testDetectConfig(), WALDir: dir, RetainEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	tn2, ok := pool2.Tenant("busy")
	if !ok {
		t.Fatal("tenant not restored")
	}
	if tn2.Stats().Messages == 0 {
		t.Fatal("restored tenant lost its stream position")
	}
}
