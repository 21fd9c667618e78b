package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// Overload-protection tests: the token bucket and queue-depth admission
// gates, the unified retryable error shape every 429/503 is served in,
// the SSE drop policy against a genuinely stalled handler, the fairness
// bound admission buys the cold tenants, and the whole contract over
// HTTP under skewed traffic and a full disk.

// TestTokenBucketDeterministic drives the bucket on an injected clock:
// full at birth, empty after the burst, refilled by elapsed time,
// oversized batches clamped to the burst rather than starved forever.
func TestTokenBucketDeterministic(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := newTokenBucket(10, 5, func() time.Time { return now })
	if _, ok := tb.take(5); !ok {
		t.Fatal("a full bucket must admit its burst")
	}
	wait, ok := tb.take(1)
	if ok {
		t.Fatal("an empty bucket admitted a message")
	}
	if wait <= 0 {
		t.Fatalf("empty bucket returned no retry hint: %v", wait)
	}
	now = now.Add(time.Second) // refills 10, clamped to burst 5
	if _, ok := tb.take(5); !ok {
		t.Fatal("one second at rate 10 must refill burst 5")
	}
	now = now.Add(time.Second)
	// A batch larger than the bucket can ever hold is admitted when the
	// bucket is full — the alternative is starving it forever.
	if _, ok := tb.take(50); !ok {
		t.Fatal("oversized batch must be admitted against a full bucket")
	}
	if _, ok := tb.take(1); ok {
		t.Fatal("oversized batch must still drain the bucket")
	}
}

// assertRetryable checks the one response shape every retryable
// rejection must wear: the status, a Retry-After header of at least one
// second, and a JSON body whose retry_after_seconds mirrors the header.
func assertRetryable(t *testing.T, resp *http.Response, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatalf("%d response missing Retry-After header", wantStatus)
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", ra)
	}
	var body struct {
		Error             string `json:"error"`
		Status            int    `json:"status"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	decodeBody(t, resp, &body)
	if body.Status != wantStatus {
		t.Fatalf("body status = %d, want %d", body.Status, wantStatus)
	}
	if body.RetryAfterSeconds != secs {
		t.Fatalf("retry_after_seconds = %d disagrees with Retry-After header %d",
			body.RetryAfterSeconds, secs)
	}
	if body.Error == "" {
		t.Fatal("retryable response carries no error message")
	}
}

// TestRetryableResponseShape: a rate-limit 429 and a queue-full 503 must
// arrive in the identical retryable JSON shape — one contract for every
// backoff path a client has to implement.
func TestRetryableResponseShape(t *testing.T) {
	// 429 via the token bucket: 1 msg/s with a 1-message burst admits
	// the first batch and sheds the immediate second.
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), RateLimit: 1, RateBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	srv := httptest.NewServer(NewHandler(pool))
	defer srv.Close()

	batch := quantumOf(0, "rate limited batch of words")
	resp := postJSON(t, srv.URL+"/v1/rl/messages", batch)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch status = %d, want 202", resp.StatusCode)
	}
	assertRetryable(t, postJSON(t, srv.URL+"/v1/rl/messages", batch), http.StatusTooManyRequests)

	// The shed shows up on /metrics as a rate-limit shed with its
	// messages, and admission reports itself enabled.
	code, body := getBody(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	series := validatePromExposition(t, body)
	m := func(family string) float64 { return series[family+`{tenant="rl"}`] }
	if _, found := series[`eventdetect_admission_enabled{tenant="rl"}`]; !found {
		t.Fatal("tenant rl missing from /metrics")
	}
	if m("eventdetect_admission_enabled") != 1 {
		t.Fatal("eventdetect_admission_enabled = 0 with a rate limit configured")
	}
	if m("eventdetect_accepted_batches_total") < 1 || m("eventdetect_shed_rate_limit_total") < 1 || m("eventdetect_shed_messages_total") < float64(len(batch)) {
		t.Fatalf("shed counters did not move: %v", series)
	}
	if series["eventdetect_pool_shed_batches_total"] < 1 || series["eventdetect_pool_shed_messages_total"] < float64(len(batch)) {
		t.Fatalf("totals did not aggregate sheds: %v", series)
	}

	// 503 via a hard-full queue (no admission configured): stall the
	// worker mid-batch, fill the depth-1 queue, and POST once more.
	pool2, err := NewPool(PoolConfig{Detector: testDetectConfig(), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	srv2 := httptest.NewServer(NewHandler(pool2))
	defer srv2.Close()
	tn, err := pool2.GetOrCreate("qf")
	if err != nil {
		t.Fatal(err)
	}
	tn.mu.Lock()
	if err := tn.Enqueue(batch); err != nil {
		t.Fatal(err)
	}
	for i := 0; tn.queueLen() != 0; i++ {
		if i > 5000 {
			t.Fatal("worker never picked up the batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := tn.Enqueue(batch); err != nil { // fills the depth-1 queue
		t.Fatal(err)
	}
	assertRetryable(t, postJSON(t, srv2.URL+"/v1/qf/messages", batch), http.StatusServiceUnavailable)
	tn.mu.Unlock()
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// stallingWriter is an SSE sink whose quantum-event writes block until
// released — a client whose TCP window has collapsed, without the
// kernel buffering that makes real stalled sockets untestable.
type stallingWriter struct {
	hdr     http.Header
	stalled chan struct{} // closed when the first quantum write blocks
	release chan struct{} // closed by the test to unblock writes
	once    sync.Once
}

func (w *stallingWriter) Header() http.Header { return w.hdr }
func (w *stallingWriter) WriteHeader(int)     {}
func (w *stallingWriter) Flush()              {}
func (w *stallingWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("event: quantum")) {
		w.once.Do(func() { close(w.stalled) })
		<-w.release
	}
	return len(p), nil
}

// TestSSEStalledSubscriberDropped runs the real SSE handler against a
// writer that stalls mid-event while the broker publishes at full rate:
// the publisher must never block, the stalled subscriber must be
// dropped once it is subBuffer events behind, and the handler must
// return (freeing its goroutine) once the write unblocks.
func TestSSEStalledSubscriberDropped(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("stall")
	if err != nil {
		t.Fatal(err)
	}

	w := &stallingWriter{hdr: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodGet, "/v1/stall/stream", nil)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		serveSSE(w, req, tn)
	}()
	for i := 0; ; i++ {
		tn.broker.mu.Lock()
		subs := len(tn.broker.subs)
		tn.broker.mu.Unlock()
		if subs == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// First event: the handler picks it up and its write stalls.
	tn.broker.publish(&StreamEvent{Tenant: "stall", Quantum: 0})
	select {
	case <-w.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never attempted the first quantum write")
	}

	// Full publish rate against the stalled handler: subBuffer events
	// fill its channel, one more trips the drop policy. The publisher
	// must sail through all of them without blocking.
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 1; i <= subBuffer+1; i++ {
			tn.broker.publish(&StreamEvent{Tenant: "stall", Quantum: i})
		}
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a stalled SSE subscriber")
	}
	for i := 0; ; i++ {
		tn.broker.mu.Lock()
		subs := len(tn.broker.subs)
		tn.broker.mu.Unlock()
		if subs == 0 {
			break
		}
		if i > 5000 {
			t.Fatal("stalled subscriber never dropped")
		}
		time.Sleep(time.Millisecond)
	}

	// Unblock the stalled write: the handler drains its buffered backlog
	// and exits on the closed channel instead of leaking.
	close(w.release)
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE handler never returned after the drop")
	}
}

// TestAdmissionFairnessColdTenantBounded saturates one tenant through
// the queue-depth gate on a one-worker pool and then measures what a
// cold tenant pays: with the hot backlog capped at AdmissionFrac ×
// QueueDepth, round-robin bounds the cold tenant's wait by that cap —
// not by the hot tenant's offered load, which is 30× larger.
func TestAdmissionFairnessColdTenantBounded(t *testing.T) {
	const depth = 8
	pool, err := NewPool(PoolConfig{
		Detector:      testDetectConfig(),
		Workers:       1,
		QueueDepth:    depth,
		AdmissionFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())

	var mu sync.Mutex
	var order []string
	pool.sched.mu.Lock()
	pool.sched.onBatch = func(tenant string) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
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

	// Saturate: push until the admission gate has fired repeatedly. The
	// enqueue loop far outruns the single worker, so the backlog pins at
	// the shed threshold (frac × depth = 4) and everything beyond sheds.
	sheds, accepted := 0, 0
	for i := 0; i < 512 && sheds < 16; i++ {
		err := hot.Enqueue(quantumOf(i*8, "hot tenant saturating flood"))
		var se *ShedError
		switch {
		case errors.As(err, &se):
			if se.Reason != "queue-depth" {
				t.Fatalf("shed reason = %q, want queue-depth", se.Reason)
			}
			if se.RetryAfter <= 0 {
				t.Fatal("shed carries no retry hint")
			}
			sheds++
		case err != nil:
			t.Fatalf("unexpected enqueue error: %v", err)
		default:
			accepted++
		}
	}
	if sheds == 0 {
		t.Fatalf("admission gate never fired across %d accepted batches", accepted)
	}

	// The cold tenant arrives while the hot backlog sits at its cap.
	mu.Lock()
	hotAppliedBefore := len(order)
	mu.Unlock()
	start := time.Now()
	if err := cold.Enqueue(quantumOf(0, "cold tenant single batch")); err != nil {
		t.Fatalf("cold tenant shed by a hot tenant's backlog: %v", err)
	}
	if err := cold.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	coldLatency := time.Since(start)

	mu.Lock()
	defer mu.Unlock()
	coldPos := -1
	for i, name := range order {
		if name == "cold" {
			coldPos = i
			break
		}
	}
	if coldPos == -1 {
		t.Fatalf("cold batch never applied; order = %v", order)
	}
	hotBetween := 0
	for _, name := range order[hotAppliedBefore:coldPos] {
		if name == "hot" {
			hotBetween++
		}
	}
	// Admission caps the admitted hot backlog at frac×depth (4) plus the
	// in-flight batch; round-robin serves cold within that — far below
	// the hundreds of batches the hot tenant offered.
	if hotBetween > depth/2+1 {
		t.Fatalf("cold tenant waited behind %d hot batches; admission cap is %d", hotBetween, depth/2)
	}
	if coldLatency > 10*time.Second {
		t.Fatalf("cold tenant apply latency %v — not bounded", coldLatency)
	}

	if hm := tenantSamples(t, hot); hm["eventdetect_shed_queue_depth_total"] == 0 || hm["eventdetect_admission_enabled"] != 1 {
		t.Fatalf("hot tenant metrics missed the sheds: %v", hm)
	}
	if cm := tenantSamples(t, cold); cm["eventdetect_shed_queue_depth_total"] != 0 || cm["eventdetect_shed_rate_limit_total"] != 0 {
		t.Fatalf("cold tenant recorded sheds it never suffered: %v", cm)
	}
}

// overloadClient is one tenant's closed-loop HTTP client: it POSTs one
// quantum per batch, in order, reads /events and /query after every
// fourth, and records every status. A shed batch is not retried and its
// Retry-After is not honoured — the next batch goes straight out, so the
// server is shown to survive clients that ignore it. The client sends
// its batches and then keeps sending until four have gone out after the
// row's fault window closed, so a window always lands inside the traffic
// and healthy ingest follows it.
type overloadClient struct {
	base    string // http://host/v1/<tenant>
	batches int
	text    func(q int) string // the message text of quantum q
	probe   func(q int) string // the keyword /query asks for after quantum q

	statuses     []int // ingest status per batch; 0 is a transport error
	noRetryAfter int   // 429s and 503s without a Retry-After of at least 1s
	badReads     []string
}

func (c *overloadClient) run(window <-chan struct{}) {
	after := 0
	for q := 0; q < c.batches || after < 4; q++ {
		select {
		case <-window:
			after++
		default:
		}
		body, _ := json.Marshal(quantumOf(8*q, c.text(q))) // messages always marshal
		status := 0
		if resp, err := http.Post(c.base+"/messages", "application/json", bytes.NewReader(body)); err == nil {
			status = resp.StatusCode
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && (err != nil || secs < 1) {
				c.noRetryAfter++
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			resp.Body.Close()
		}
		c.statuses = append(c.statuses, status)
		if q%4 != 3 {
			continue
		}
		for _, read := range []string{"/events?k=8", "/query?limit=16&keyword=" + c.probe(q)} {
			resp, err := http.Get(c.base + read)
			if err != nil {
				c.badReads = append(c.badReads, fmt.Sprintf("GET %s after batch %d: %v", read, q, err))
				continue
			}
			if resp.StatusCode != http.StatusOK {
				c.badReads = append(c.badReads, fmt.Sprintf("GET %s after batch %d: HTTP %d", read, q, resp.StatusCode))
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			resp.Body.Close()
		}
	}
}

// TestOverloadContractsOverHTTP holds the serving contract over real HTTP,
// one row per traffic shape: overload sheds and never fails, every 429 and
// 503 carries Retry-After, every 202 is acknowledged by exactly one
// quantum event on the tenant's stream, and reads answer 200 throughout.
// Each tenant is created with [], subscribed to, and driven by one
// overloadClient; tenant 0 sends hot times the others' batches. Streams
// are counted once every accepted batch has applied and the pool's
// shutdown has ended them, so the counts are exact.
func TestOverloadContractsOverHTTP(t *testing.T) {
	// Tenant 0 of flash-flood speaks five fresh words every quantum, so
	// each of its events lives a quantum and retires; it asks /query for
	// words two quanta old.
	vocab := rand.New(rand.NewSource(1)).Perm(1 << 10)
	flood := func(q int) string {
		w := vocab[5*q:]
		return fmt.Sprintf("flood%d flood%d flood%d flood%d flood%d", w[0], w[1], w[2], w[3], w[4])
	}
	retired := func(q int) string { return fmt.Sprintf("flood%d", vocab[5*(q-2)]) }

	cases := []struct {
		name     string
		cfg      PoolConfig
		durable  bool // a WAL and an archive under a temp dir
		diskFull bool // faultPool, and an ENOSPC window under the WAL root mid-run
		tenants  int
		batches  int   // per tenant
		hot      int   // tenant 0 sends hot × batches (0: as many as the others)
		allowed  []int // the ingest statuses the row admits
		mustSee  int   // a status at least one batch must get (0: none)
		flood    bool  // tenant 0 speaks the churning vocabulary
	}{
		{name: "uniform", tenants: 3, batches: 24, allowed: []int{202}},
		{name: "rate-limit", cfg: PoolConfig{RateLimit: 1, RateBurst: 1}, tenants: 1, batches: 6, allowed: []int{202, 429}, mustSee: 429},
		{name: "zipf-hot", cfg: PoolConfig{Workers: 1, QueueDepth: 8, AdmissionFrac: 0.5}, tenants: 3, batches: 24, hot: 4,
			allowed: []int{202, 429}},
		{name: "flash-flood", cfg: PoolConfig{Workers: 1, QueueDepth: 16, AdmissionFrac: 0.8, RetainEvents: 16, SnapshotEvery: 8},
			durable: true, tenants: 3, batches: 24, hot: 4, allowed: []int{202, 429}, flood: true},
		{name: "disk-pressure", diskFull: true, tenants: 2, batches: 8, allowed: []int{202, 429, 503}, mustSee: 503},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var pool *Pool
			var ffs *vfs.FaultFS
			var dir string
			if tc.diskFull {
				pool, ffs, dir = faultPool(t, nil)
			} else {
				cfg := tc.cfg
				cfg.Detector = testDetectConfig()
				if tc.durable {
					dir = t.TempDir()
					cfg.WALDir, cfg.ArchiveDir = filepath.Join(dir, "wal"), filepath.Join(dir, "archive")
				}
				var err error
				if pool, err = NewPool(cfg); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { pool.Shutdown(context.Background()) }) //nolint:errcheck // a second shutdown
			}
			srv := httptest.NewServer(NewHandler(pool))
			t.Cleanup(srv.Close)

			names := make([]string, tc.tenants)
			streams := make([]<-chan StreamEvent, tc.tenants)
			clients := make([]*overloadClient, tc.tenants)
			for i := range clients {
				names[i] = fmt.Sprintf("t%d", i)
				resp := postJSON(t, srv.URL+"/v1/"+names[i]+"/messages", []stream.Message{})
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("create %s: HTTP %d", names[i], resp.StatusCode)
				}
				var stop func()
				streams[i], stop = sseSubscribe(t, srv.URL+"/v1/"+names[i]+"/stream")
				t.Cleanup(stop)
				clients[i] = &overloadClient{
					base: srv.URL + "/v1/" + names[i], batches: tc.batches,
					text:  func(int) string { return "earthquake struck harbour town" },
					probe: func(int) string { return "earthquake" },
				}
			}
			if tc.hot > 0 {
				clients[0].batches *= tc.hot
			}
			if tc.flood {
				clients[0].text, clients[0].probe = flood, retired
			}

			// On every way out the window closes first, so the clients
			// finish their last four batches and the test waits for them.
			var wg sync.WaitGroup
			defer wg.Wait()
			window := make(chan struct{})
			closeWindow := sync.OnceFunc(func() { close(window) })
			defer closeWindow()
			for _, c := range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.run(window)
				}()
			}
			if tc.diskFull {
				// Once every tenant has some accepted batches, fill the disk
				// under the WAL root — the supervisor's write probe too — until
				// a tenant degrades, then free it and wait for the in-process
				// recovery.
				waitFor(t, 10*time.Second, func() bool {
					for _, tn := range pool.tenantsSorted() {
						if tn.accepted.Load() < 2 {
							return false
						}
					}
					return true
				}, "healthy ingest on every tenant")
				rule := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: filepath.Join(dir, "wal"), Err: syscall.ENOSPC})
				waitFor(t, 10*time.Second, func() bool { return len(pool.DegradedTenants()) > 0 }, "a tenant to degrade")
				ffs.ClearRule(rule)
				waitFor(t, 10*time.Second, func() bool { return len(pool.DegradedTenants()) == 0 }, "in-process recovery")
			}
			closeWindow()
			wg.Wait()
			// Shutdown closes the streams before it drains the queues, so
			// let every accepted batch apply — and publish — first.
			for _, tn := range pool.tenantsSorted() {
				waitApplied(t, tn)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := pool.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}

			seen := make(map[int]int)
			for i, c := range clients {
				accepted, reported := 0, false
				for q, s := range c.statuses {
					seen[s]++
					switch {
					case s == http.StatusAccepted:
						accepted++
					case !slices.Contains(tc.allowed, s) && !reported: // the first is enough; the log has the counts
						reported = true
						t.Errorf("%s batch %d: HTTP %d, want one of %v", names[i], q, s, tc.allowed)
					}
				}
				if c.statuses[0] != http.StatusAccepted {
					t.Errorf("%s: first batch HTTP %d, want 202", names[i], c.statuses[0])
				}
				if c.noRetryAfter > 0 {
					t.Errorf("%s: %d sheds without a Retry-After of at least 1s", names[i], c.noRetryAfter)
				}
				for _, msg := range c.badReads {
					t.Errorf("%s: %s", names[i], msg)
				}
				events := 0
				for range streams[i] {
					events++
				}
				if events != accepted {
					t.Errorf("%s: %d quantum events on the stream for %d accepted batches", names[i], events, accepted)
				}
				if tc.diskFull {
					if got, want := replayCount(t, dir, names[i]), uint64(8*accepted); got != want {
						t.Errorf("%s: replay recovered %d messages, want the acked %d", names[i], got, want)
					}
				}
			}
			if tc.mustSee != 0 && seen[tc.mustSee] == 0 {
				t.Errorf("no batch got HTTP %d: %v", tc.mustSee, seen)
			}
			t.Logf("statuses: %v", seen)
		})
	}
}
