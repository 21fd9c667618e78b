package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

func testDetectConfig() detect.Config {
	return detect.Config{Delta: 8, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 5}}
}

// quantumOf builds one 8-message quantum: 8 distinct users saying text.
func quantumOf(startUser int, text string) []stream.Message {
	out := make([]stream.Message, 8)
	for i := range out {
		out[i] = stream.Message{
			ID: uint64(i + 1), User: uint64(startUser + i), Time: int64(i), Text: text,
		}
	}
	return out
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// sseSubscribe opens the SSE endpoint and feeds decoded quantum events to
// the returned channel, which closes when the stream ends.
func sseSubscribe(t *testing.T, url string) (<-chan StreamEvent, func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	ch := make(chan StreamEvent, 256)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev StreamEvent
			if json.Unmarshal([]byte(line[len("data: "):]), &ev) == nil {
				select {
				case ch <- ev:
				default:
				}
			}
		}
	}()
	return ch, func() { resp.Body.Close() }
}

type eventsResponse struct {
	Tenant string      `json:"tenant"`
	Events []EventView `json:"events"`
}

func getEvents(t *testing.T, base, tenant, query string) eventsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/" + tenant + "/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	var out eventsResponse
	decodeBody(t, resp, &out)
	return out
}

// TestLifecycleOverHTTP drives crafted bursts through the whole API: SSE
// birth/death notifications, live and historical event queries, single
// event lookup, related pairs, stats, and flush.
func TestLifecycleOverHTTP(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	// Create the tenant with an empty batch, then subscribe before any
	// data flows so every quantum is observed.
	resp := postJSON(t, ts.URL+"/v1/demo/messages", []stream.Message{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	events, cancel := sseSubscribe(t, ts.URL+"/v1/demo/stream")
	defer cancel()

	// 4 quanta of an earthquake burst, then 12 quanta of a storm burst:
	// the earthquake event must be born, then die of window expiry.
	var msgs []stream.Message
	for q := 0; q < 4; q++ {
		msgs = append(msgs, quantumOf(0, "earthquake struck eastern turkey")...)
	}
	for q := 0; q < 12; q++ {
		msgs = append(msgs, quantumOf(100, "storm warning coast evacuation")...)
	}
	resp = postJSON(t, ts.URL+"/v1/demo/messages", msgs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var ack struct {
		Queued int `json:"queued"`
	}
	decodeBody(t, resp, &ack)
	if ack.Queued != len(msgs) {
		t.Fatalf("queued = %d, want %d", ack.Queued, len(msgs))
	}

	// Collect SSE until the last quantum (16) arrives.
	var born, ended []uint64
	sawReport := false
	deadline := time.After(10 * time.Second)
	for lastQuantum := 0; lastQuantum < 16; {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed at quantum %d", lastQuantum)
			}
			if ev.Tenant != "demo" {
				t.Fatalf("tenant = %q", ev.Tenant)
			}
			lastQuantum = ev.Quantum
			born = append(born, ev.Born...)
			ended = append(ended, ev.Ended...)
			if len(ev.Reports) > 0 {
				sawReport = true
			}
		case <-deadline:
			t.Fatalf("timed out waiting for quantum 16")
		}
	}
	if len(born) == 0 || !sawReport {
		t.Fatalf("born = %v, sawReport = %v", born, sawReport)
	}
	if len(ended) == 0 {
		t.Fatalf("earthquake event never died over SSE")
	}

	// Live view: exactly the storm event; history holds both.
	live := getEvents(t, ts.URL, "demo", "")
	if len(live.Events) != 1 || live.Events[0].State != "live" {
		t.Fatalf("live events = %+v", live.Events)
	}
	all := getEvents(t, ts.URL, "demo", "?all=1")
	if len(all.Events) < 2 {
		t.Fatalf("history = %+v", all.Events)
	}
	var sawEnded bool
	for _, ev := range all.Events {
		if ev.State == "ended" {
			sawEnded = true
		}
	}
	if !sawEnded {
		t.Fatalf("no ended event in history: %+v", all.Events)
	}

	// Single-event lookup round-trips the history entry.
	resp, err = http.Get(fmt.Sprintf("%s/v1/demo/events/%d", ts.URL, all.Events[0].ID))
	if err != nil {
		t.Fatal(err)
	}
	var one EventView
	decodeBody(t, resp, &one)
	if !reflect.DeepEqual(one, all.Events[0]) {
		t.Fatalf("event lookup mismatch:\n%+v\n%+v", one, all.Events[0])
	}

	// Related pairs endpoint answers (content depends on overlap).
	resp, err = http.Get(ts.URL + "/v1/demo/related?min=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("related status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The metrics reflect the ingested stream.
	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	stats := validatePromExposition(t, body)
	if _, ok := stats[`eventdetect_messages_total{tenant="demo"}`]; !ok || stats["eventdetect_pool_tenants"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
	if got := stats[`eventdetect_messages_total{tenant="demo"}`]; got != float64(len(msgs)) {
		t.Fatalf("stats messages = %v, want %d", got, len(msgs))
	}
	if stats[`eventdetect_akg_nodes{tenant="demo"}`] == 0 || stats[`eventdetect_quanta{tenant="demo"}`] != 16 {
		t.Fatalf("stats = %v", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeRestartBitIdentical is the acceptance scenario: serve part of
// a synthetic TW trace, shut down (final WAL snapshot), restart from the
// WAL directory, serve the rest, and require the event history to be
// bit-identical to an uninterrupted in-process run.
func TestServeRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 20010
	msgs, _ := tracegen.Generate(tracegen.TWConfig(42, n))
	cfg := detect.Config{} // paper nominal parameters
	dir := t.TempDir()

	// Phase 1: serve the first part, observing SSE, then shut down.
	pool1, err := NewPool(PoolConfig{Detector: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewHandler(pool1))
	cut := 12500 // deliberately not a multiple of Δ=160: the pending buffer is snapshotted
	resp := postJSON(t, ts1.URL+"/v1/tw/messages", msgs[:8000])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	events, cancel := sseSubscribe(t, ts1.URL+"/v1/tw/stream")
	defer cancel()
	resp = postJSON(t, ts1.URL+"/v1/tw/messages", msgs[8000:cut])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The second batch spans quanta 51..78; SSE must deliver them.
	sawQuantum := 0
	deadline := time.After(20 * time.Second)
	for sawQuantum < 78 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed early at quantum %d", sawQuantum)
			}
			sawQuantum = ev.Quantum
		case <-deadline:
			t.Fatalf("timed out at quantum %d", sawQuantum)
		}
	}
	// ≥1 event must be discoverable while the stream is still flowing.
	found := false
	for wait := 0; wait < 100 && !found; wait++ {
		if len(getEvents(t, ts1.URL, "tw", "?all=1").Events) > 0 {
			found = true
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !found {
		t.Fatalf("no events discovered mid-stream")
	}

	// Graceful shutdown snapshots the tenant and ends the SSE stream.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	if err := pool1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	for {
		if _, ok := <-events; !ok {
			break
		}
	}

	// Phase 2: a fresh pool restores the tenant from disk and continues.
	pool2, err := NewPool(PoolConfig{Detector: cfg, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	ts2 := httptest.NewServer(NewHandler(pool2))
	defer ts2.Close()

	var names struct {
		Tenants []string `json:"tenants"`
	}
	resp, err = http.Get(ts2.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &names)
	if !reflect.DeepEqual(names.Tenants, []string{"tw"}) {
		t.Fatalf("restored tenants = %v", names.Tenants)
	}

	resp = postJSON(t, ts2.URL+"/v1/tw/messages", msgs[cut:])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts2.URL+"/v1/tw/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	got := getEvents(t, ts2.URL, "tw", "?all=1")

	// Reference: one uninterrupted detector over the full trace.
	ref := detect.New(cfg)
	for _, m := range msgs {
		ref.IngestAll(m)
	}
	ref.Flush()
	want := viewsOf(ref.AllEvents())
	if len(want) == 0 {
		t.Fatalf("reference run found no events")
	}

	// JSON round-trip the reference so both sides saw the same encoding.
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var wantDecoded []EventView
	if err := json.Unmarshal(raw, &wantDecoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, wantDecoded) {
		t.Fatalf("served history diverges from uninterrupted run:\nserved %d events\nwant   %d events",
			len(got.Events), len(wantDecoded))
	}
}

// TestServerShutdownWithSSEClient regression-tests graceful shutdown
// while an SSE client is connected: http.Server.Shutdown waits for idle
// connections and an SSE stream never goes idle on its own, so the
// server must end the streams first or stall for the whole grace period
// (delaying the final snapshots behind a single connected client).
func TestServerShutdownWithSSEClient(t *testing.T) {
	srv, err := New(Config{
		Pool:          PoolConfig{Detector: testDetectConfig(), WALDir: t.TempDir()},
		ShutdownGrace: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.HTTP.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	base := "http://" + ln.Addr().String()

	resp := postJSON(t, base+"/v1/demo/messages", quantumOf(0, "earthquake struck eastern turkey"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	events, cancel := sseSubscribe(t, base+"/v1/demo/stream")
	defer cancel()

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("shutdown stalled behind SSE client: %v", took)
	}
	// The client observes end of stream rather than hanging.
	for {
		if _, ok := <-events; !ok {
			break
		}
	}
}

// TestBackpressure fills a depth-1 queue while the worker is blocked and
// requires ErrQueueFull rather than blocking or unbounded buffering.
func TestBackpressure(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("bp")
	if err != nil {
		t.Fatal(err)
	}

	// Hold the detector lock so the worker stalls mid-batch.
	tn.mu.Lock()
	batch := quantumOf(0, "some words here")
	if err := tn.Enqueue(batch); err != nil {
		t.Fatal(err)
	}
	// Wait until a scheduler worker has popped the batch off the queue.
	for i := 0; tn.queueLen() != 0; i++ {
		if i > 5000 {
			t.Fatal("worker never picked up batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tn.Enqueue(batch); err != nil { // fills the depth-1 buffer
		t.Fatal(err)
	}
	if err := tn.Enqueue(batch); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	tn.mu.Unlock()
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().Messages; got != uint64(2*len(batch)) {
		t.Fatalf("messages = %d, want %d", got, 2*len(batch))
	}
}

// TestBackpressureByMessages requires the message-count bound to reject a
// batch even when batch slots remain free.
func TestBackpressureByMessages(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), QueueMessages: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("bpm")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock() // stall the worker so the backlog cannot drain
	if err := tn.Enqueue(quantumOf(0, "eight message batch fits")); err != nil {
		t.Fatal(err)
	}
	if err := tn.Enqueue(quantumOf(8, "this one exceeds ten")); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	tn.mu.Unlock()
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := tn.Stats().QueuedMessages; got != 0 {
		t.Fatalf("queued messages after drain = %d", got)
	}
}

// TestRetention bounds the finished-event history of a long-lived
// tenant: two events die (earthquake, then flood), RetainEvents 1 keeps
// only the most recent of them alongside the live storm event.
func TestRetention(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), RetainEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("ret")
	if err != nil {
		t.Fatal(err)
	}
	var msgs []stream.Message
	for q := 0; q < 4; q++ {
		msgs = append(msgs, quantumOf(0, "earthquake struck eastern turkey")...)
	}
	for q := 0; q < 4; q++ {
		msgs = append(msgs, quantumOf(50, "flood river rising rapidly")...)
	}
	for q := 0; q < 14; q++ {
		msgs = append(msgs, quantumOf(100, "storm warning coast evacuation")...)
	}
	if err := tn.Enqueue(msgs); err != nil {
		t.Fatal(err)
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	all := viewsOf(tn.Snapshot().AllEvents())
	if len(all) != 2 {
		t.Fatalf("history = %d events (%+v), want 2 (1 retained finished + 1 live)", len(all), all)
	}
	finished := 0
	for _, ev := range all {
		if ev.State != "live" {
			finished++
		}
	}
	if finished != 1 {
		t.Fatalf("finished = %d, want exactly 1 retained", finished)
	}
}

// TestHandlerValidation covers the error surface.
func TestHandlerValidation(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), MaxTenants: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"POST", "/v1/bad%2Fname/messages", http.StatusBadRequest},
		{"GET", "/v1/nosuch/events", http.StatusNotFound},
		{"GET", "/v1/nosuch/stream", http.StatusNotFound},
		{"GET", "/v1/nosuch/related", http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("[]"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}

	// First tenant fits, the second exceeds MaxTenants.
	resp := postJSON(t, ts.URL+"/v1/one/messages", []stream.Message{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/two/messages", []stream.Message{})
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 507", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad event IDs and missing events.
	for _, path := range []string{"/v1/one/events/zzz", "/v1/one/events/999"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Trailing data after the JSON array is rejected, not dropped.
	resp, err = http.Post(ts.URL+"/v1/one/messages", "application/json",
		strings.NewReader(`[] [{"id":1,"user":1,"time":0,"text":"lost"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// NDJSON ingest path.
	var buf bytes.Buffer
	for _, m := range quantumOf(0, "ndjson ingest works fine") {
		raw, _ := json.Marshal(m)
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	resp, err = http.Post(ts.URL+"/v1/one/messages", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		Queued int `json:"queued"`
	}
	decodeBody(t, resp, &ack)
	if resp.StatusCode != http.StatusAccepted || ack.Queued != 8 {
		t.Fatalf("ndjson status = %d queued = %d", resp.StatusCode, ack.Queued)
	}
}
