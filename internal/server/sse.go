package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/jsonw"
)

// StreamEvent is the payload pushed on the SSE stream, one per processed
// quantum: the reportable snapshot plus the lifecycle deltas, so clients
// can render births, evolutions, merges and deaths without polling.
type StreamEvent struct {
	Tenant   string             `json:"tenant"`
	Quantum  int                `json:"quantum"`
	Reports  []detect.Report    `json:"reports"`
	Born     []uint64           `json:"born,omitempty"`
	Ended    []uint64           `json:"ended,omitempty"`
	Merged   []detect.MergeNote `json:"merged,omitempty"`
	AKGNodes int                `json:"akg_nodes"`
	AKGEdges int                `json:"akg_edges"`
}

// subBuffer is the per-subscriber channel depth. A subscriber that falls
// further behind than this is dropped entirely (never the publisher
// blocked): the apply step must keep pace with the stream, not with the
// slowest client. A dropped client's channel is closed, so its SSE
// handler returns and the client can reconnect (with ?catchup=1 to
// resync from the latest epoch) instead of silently missing quanta.
// Sized for the ingest-overhaul apply rate (~1ms/quantum full-tilt): a
// client must be able to stall for a burst of a few hundred quanta —
// a few hundred milliseconds — before the drop policy concludes it is
// dead, at a cost of one pointer per slot.
const subBuffer = 256

// broker fans quantum notifications out to SSE subscribers of one tenant.
type broker struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

func newBroker() *broker {
	return &broker{subs: make(map[chan []byte]struct{})}
}

// subscribe registers a new subscriber. The returned cancel function is
// idempotent and safe to call after the broker is closed. The channel is
// closed when the broker shuts down.
func (b *broker) subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, subBuffer)
	b.mu.Lock()
	if b.closed {
		close(ch)
		b.mu.Unlock()
		return ch, func() {}
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.subs[ch]; ok {
				delete(b.subs, ch)
				close(ch)
			}
			b.mu.Unlock()
		})
	}
	return ch, cancel
}

// publish encodes ev once — the bytes json.Marshal would produce, through
// the typed writer, copied into the one allocation the subscribers'
// channels retain — and offers it to every subscriber without
// blocking. Drop-slowest-client policy: a subscriber whose buffer is
// full has stalled for subBuffer quanta — it is unsubscribed and its
// channel closed (ending its SSE handler) rather than allowed to shed
// events silently or, worse, stall the publisher. With no subscribers
// publish returns before encoding — this runs on the apply path under
// the detector lock, so idle-broker cost must be nil.
func (b *broker) publish(ev *StreamEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	jw := jsonw.Compact()
	encodeStreamEvent(jw, ev)
	payload := bytes.Clone(jw.Bytes())
	jw.Close()
	for ch := range b.subs { //repro:order-insensitive independent fan-out; every subscriber gets the same payload
		select {
		case ch <- payload:
		default:
			delete(b.subs, ch)
			close(ch)
		}
	}
}

// close shuts the broker down, closing every subscriber channel.
func (b *broker) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for ch := range b.subs { //repro:order-insensitive independent channel closes; order is immaterial
			delete(b.subs, ch)
			close(ch)
		}
	}
	b.mu.Unlock()
}

// serveSSE streams quantum events for one tenant until the client
// disconnects, falls irrecoverably behind (drop-slowest policy), or the
// tenant shuts down. With ?catchup=1 the newest quantum event is
// replayed first — resolved from the tenant's wait-free epoch state, so
// catch-up never touches the apply lock. Catch-up is at-least-once: the
// replayed quantum may also arrive through the live subscription.
func serveSSE(w http.ResponseWriter, r *http.Request, t *Tenant) {
	// Validate before the 200 + stream headers go out: a malformed
	// catchup value must 400, not silently stream without catch-up.
	catchup, ok := boolParam(w, r.URL.Query(), "catchup")
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch, cancel := t.broker.subscribe()
	defer cancel()

	// Per-write deadlines: a connected-but-not-reading client would
	// otherwise park this goroutine inside Fprintf once the kernel send
	// buffer fills, where neither the request context nor broker close
	// can reach it — and http.Server.Shutdown would wait out the whole
	// grace period on the never-idle connection. (The server deliberately
	// sets no global WriteTimeout; SSE streams are long-lived by design.)
	rc := http.NewResponseController(w)
	const writeBudget = 30 * time.Second

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Initial comment line so proxies and clients see bytes immediately.
	fmt.Fprintf(w, ": stream %s\n\n", t.name)
	if catchup {
		if ev := t.lastEvent.Load(); ev != nil {
			jw := jsonw.Compact()
			encodeStreamEvent(jw, ev)
			fmt.Fprintf(w, "event: quantum\ndata: %s\n\n", jw.Bytes())
			jw.Close()
		}
	}
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case payload, ok := <-ch:
			if !ok {
				return
			}
			rc.SetWriteDeadline(time.Now().Add(writeBudget)) //nolint:errcheck // unsupported writer → unbounded write, as before
			if _, err := fmt.Fprintf(w, "event: quantum\ndata: %s\n\n", payload); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
