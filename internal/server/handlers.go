package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/jsonw"
	"repro/internal/obs"
	"repro/internal/stream"
)

// maxBodyBytes bounds one ingest POST (64 MiB of JSON).
const maxBodyBytes = 64 << 20

// NewHandler returns the HTTP API over a pool:
//
//	POST /v1/{tenant}/messages   ingest a JSON array (or NDJSON) of messages
//	POST /v1/{tenant}/flush      process the buffered partial quantum
//	GET  /v1/{tenant}/events     live reported events (?k= top-k, ?all=1
//	                             history, ?keyword= current-keyword filter)
//	GET  /v1/{tenant}/events/{id} one event by ID
//	GET  /v1/{tenant}/related    correlated same-event pairs (?min= overlap)
//	GET  /v1/{tenant}/stream     SSE push of per-quantum reports + lifecycle
//	                             (?catchup=1 replays the newest quantum first)
//	GET  /v1/{tenant}/query      unified time-travel query across live
//	                             snapshot + archive (?from= ?to= quanta,
//	                             repeated ?keyword=, ?min_rank=, ?limit=,
//	                             ?cursor=) with skip/scan stats
//	GET  /v1/tenants             tenant names
//	GET  /healthz                liveness
//	GET  /readyz                 readiness: 503 with the degraded tenant
//	                             list while any tenant is storage-degraded
//	GET  /metrics                Prometheus text exposition: every tenant
//	                             counter, pool totals, stage histograms,
//	                             Go runtime (?tenant= filter)
//	GET  /debug/requests         slowest traced requests (?min_ms=, ?tenant=)
func NewHandler(p *Pool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{tenant}/messages", func(w http.ResponseWriter, r *http.Request) {
		handleIngest(w, r, p)
	})
	mux.HandleFunc("POST /v1/{tenant}/flush", func(w http.ResponseWriter, r *http.Request) {
		t, ok := getTenant(w, r, p)
		if !ok {
			return
		}
		if err := t.Flush(r.Context()); err != nil {
			retryableError(w, http.StatusServiceUnavailable, time.Second,
				fmt.Sprintf("flush abandoned: %v", err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
	})
	mux.HandleFunc("GET /v1/{tenant}/events", snapshotRead(p, func(w http.ResponseWriter, r *http.Request, t *Tenant) func(*jsonw.Writer) {
		q := r.URL.Query()
		k, ok := intParam(w, q, "k", 0)
		if !ok {
			return nil
		}
		all, ok := boolParam(w, q, "all")
		if !ok {
			return nil
		}
		keyword := q.Get("keyword")
		snap := t.Snapshot()
		var events []*detect.Event
		switch {
		case keyword != "" && all:
			httpError(w, http.StatusBadRequest, "keyword filter applies to live events; drop all=1")
			return nil
		case k > 0 && all:
			// all=1 is the whole history in birth order; there is no
			// top-k of it to serve, and ignoring k would be a quiet
			// default.
			httpError(w, http.StatusBadRequest, "k applies to live events; drop all=1 (page history with /query)")
			return nil
		case keyword != "":
			// The same live views as /events, filtered by keyword.
			events = snap.TopKKeyword(k, keyword)
		case all:
			events = snap.AllEvents()
		default:
			events = snap.TopK(k)
		}
		return func(jw *jsonw.Writer) { encodeEventsBody(jw, t.Name(), events) }
	}))
	mux.HandleFunc("GET /v1/{tenant}/events/{id}", snapshotRead(p, func(w http.ResponseWriter, r *http.Request, t *Tenant) func(*jsonw.Writer) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad event id")
			return nil
		}
		ev := t.Snapshot().Find(id)
		if ev == nil {
			httpError(w, http.StatusNotFound, "no such event")
			return nil
		}
		return func(jw *jsonw.Writer) { encodeEvent(jw, ev) }
	}))
	mux.HandleFunc("GET /v1/{tenant}/related", snapshotRead(p, func(w http.ResponseWriter, r *http.Request, t *Tenant) func(*jsonw.Writer) {
		min, ok := floatParam(w, r.URL.Query(), "min", 0.1, 0, 1)
		if !ok {
			return nil
		}
		related := t.Related(min)
		return func(jw *jsonw.Writer) { encodeRelatedBody(jw, t.Name(), related) }
	}))
	mux.HandleFunc("GET /v1/{tenant}/query", func(w http.ResponseWriter, r *http.Request) {
		t, ok := getTenant(w, r, p)
		if !ok {
			return
		}
		handleUnifiedQuery(w, r, t)
	})
	mux.HandleFunc("GET /v1/{tenant}/stream", func(w http.ResponseWriter, r *http.Request) {
		t, ok := getTenant(w, r, p)
		if !ok {
			return
		}
		serveSSE(w, r, t)
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tenants": p.Names()})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"tenants": p.TenantCount(),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness (/healthz) stays 200 through degradation — the process
		// is healthy and still serves reads. Readiness flips so a load
		// balancer can stop routing *writes* at a degraded replica while
		// operators see exactly which tenants are shedding and why.
		degraded := p.DegradedTenants()
		if len(degraded) == 0 {
			writeJSON(w, http.StatusOK, map[string]any{
				"status":  "ready",
				"tenants": p.TenantCount(),
			})
			return
		}
		//repro:retryable-exempt readiness probe; load balancers read the body, clients never retry /readyz with backoff
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "degraded",
			"tenants":  p.TenantCount(),
			"degraded": degraded,
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(w, r, p)
	})
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, r *http.Request) {
		handleDebugRequests(w, r, p)
	})
	return mux
}

// snapshotRead frames the three wait-free snapshot reads (/events,
// /events/{id}, /related): resolve the tenant, let answer parse the
// request and read the epoch snapshot — it returns the body's encoder, or
// nil after writing an error itself — then write the body and observe the
// whole as http_query. Histogram-only instrumentation: one clock read
// and a few atomic adds per request, no trace allocation.
func snapshotRead(p *Pool, answer func(http.ResponseWriter, *http.Request, *Tenant) func(*jsonw.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := getTenant(w, r, p)
		if !ok {
			return
		}
		t0 := time.Now()
		if body := answer(w, r, t); body != nil {
			writeBody(w, http.StatusOK, t.obs, body)
			t.obs.Observe(obs.StageHTTPQuery, time.Since(t0))
		}
	}
}

// tenantsFor resolves the tenant set of a /metrics or /debug/requests
// request: every published tenant, name-sorted, or the one ?tenant=
// names. ok is false when it names one the pool does not have.
func tenantsFor(q url.Values, p *Pool) ([]*Tenant, bool) {
	name := q.Get("tenant")
	if name == "" {
		return p.tenantsSorted(), true
	}
	if t, ok := p.Tenant(name); ok {
		return []*Tenant{t}, true
	}
	return nil, false
}

// handleMetrics serves GET /metrics: the Prometheus text exposition,
// narrowed by ?tenant=. ?format=prometheus names the same body, for
// scrapers that send it; any other format is a 400.
func handleMetrics(w http.ResponseWriter, r *http.Request, p *Pool) {
	q := r.URL.Query()
	if f := q.Get("format"); f != "" && f != "prometheus" {
		httpError(w, http.StatusBadRequest, "format must be prometheus or absent")
		return
	}
	tenants, ok := tenantsFor(q, p)
	if !ok {
		httpError(w, http.StatusNotFound, ErrNoTenant.Error())
		return
	}
	writePrometheus(w, tenants)
}

// handleIngest decodes the body — a JSON array by default, NDJSON when
// the Content-Type says so — and enqueues it as one batch. The body is
// decoded before the tenant is resolved so a malformed request cannot
// create a tenant as a side effect.
func handleIngest(w http.ResponseWriter, r *http.Request, p *Pool) {
	name := r.PathValue("tenant")
	if !tenantNameRE.MatchString(name) {
		httpError(w, http.StatusBadRequest, ErrBadTenant.Error())
		return
	}
	// One trace per ingest request. This endpoint allocates per request
	// anyway (body decode); the zero-alloc ingest path is
	// Tenant.Enqueue, which traces nothing.
	tr := obs.StartTrace("ingest", name, r.URL.Path)
	tr.Step("shed_check")
	// Shed guaranteed-rejected ingest before paying to decode the body:
	// a closed or tenant-full pool — or a tenant already past its
	// queue-depth admission threshold — would only refuse the batch
	// after a potentially 64 MiB parse. The gates inside Enqueue (and
	// GetOrCreate) remain authoritative.
	if t, ok := p.Tenant(name); !ok {
		if err := p.CanCreate(); err != nil {
			createError(w, err)
			return
		}
	} else if derr := t.DegradedCheck(); derr != nil {
		// Degraded tenants are read-only; shed before the body parse,
		// same as the admission gate below.
		retryableError(w, http.StatusServiceUnavailable, derr.RetryAfter, derr.Error())
		return
	} else if se := t.ShedCheck(); se != nil {
		retryableError(w, http.StatusTooManyRequests, se.RetryAfter, se.Error())
		return
	}
	tr.Step("decode")
	ndjson := strings.Contains(r.Header.Get("Content-Type"), "ndjson")
	msgs, fast, err := decodeMessages(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength, ndjson)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes; split the batch", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode messages: %v", err))
		return
	}
	t, err := p.GetOrCreate(name)
	if err != nil {
		createError(w, err)
		return
	}
	if fast {
		t.decodeFast.Add(1)
	} else {
		t.decodeFallback.Add(1)
	}
	tr.Step("enqueue")
	if err := t.Enqueue(msgs); err != nil {
		offerTrace(t, tr, obs.StageHTTPIngest)
		var shed *ShedError
		var deg *DegradedError
		switch {
		case errors.Is(err, ErrBatchTooLarge):
			// Retrying the same batch can never succeed; tell the
			// client to split it instead.
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		case errors.As(err, &deg):
			// Storage is sick; ingest is read-only until the supervisor's
			// probe clears it. Retry-After carries the probe cadence.
			retryableError(w, http.StatusServiceUnavailable, deg.RetryAfter, err.Error())
		case errors.As(err, &shed):
			// Admission control turned the batch away before the WAL or
			// the queue saw it: 429, with the server's own estimate of
			// when capacity returns.
			retryableError(w, http.StatusTooManyRequests, shed.RetryAfter, err.Error())
		case errors.Is(err, ErrQueueFull):
			retryableError(w, http.StatusServiceUnavailable, t.drainEstimate(), err.Error())
		default:
			retryableError(w, http.StatusServiceUnavailable, time.Second, err.Error())
		}
		return
	}
	offerTrace(t, tr, obs.StageHTTPIngest)
	writeBody(w, http.StatusAccepted, t.obs, func(jw *jsonw.Writer) { encodeIngestAck(jw, name, len(msgs)) })
}

// createError answers an ingest whose tenant could not be created: 507
// at the tenant limit, a retryable 503 otherwise (pool shutting down,
// storage failing to open).
func createError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrMaxTenants) {
		httpError(w, http.StatusInsufficientStorage, err.Error())
		return
	}
	retryableError(w, http.StatusServiceUnavailable, time.Second, err.Error())
}

// maxPooledBody is the largest request buffer bodyPool keeps: a rare
// huge batch must not pin its buffer for the life of the process.
const maxPooledBody = 4 << 20

// bodyPool recycles ingest request buffers; the decoded messages never
// point into one (decodeMessages copies the body into a string first).
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeMessages reads one ingest body — a JSON array, or NDJSON — and
// decodes it. The body is read whole into a pooled buffer sized from the
// declared length, then scanned by the stream package's reflection-free
// decoder (fast). Anything that decoder does not recognise as the
// canonical shape, and any read error, goes instead to the encoding/json
// path over a reader that replays the buffered bytes followed by the
// read's outcome, so it sees exactly what it would have seen reading the
// request itself: accept/reject decisions and error texts are its own.
func decodeMessages(body io.Reader, declared int64, ndjson bool) (msgs []stream.Message, fast bool, err error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	// ReadFrom wants MinRead spare bytes before every read, the one that
	// returns io.EOF included; with them a declared length never regrows.
	// The declaration is only trusted up to what the pool would keep
	// anyway: past that the buffer grows as bytes actually arrive, so a
	// client that declares 64 MiB and then stalls pins 4.
	buf.Grow(int(min(max(declared, 0), maxPooledBody-bytes.MinRead)) + bytes.MinRead)
	_, readErr := buf.ReadFrom(body)
	replay := io.Reader(bytes.NewReader(buf.Bytes()))
	if readErr != nil {
		replay = io.MultiReader(replay, errReader{readErr})
	} else {
		if ndjson {
			msgs, fast = stream.ScanMessageLines(buf.String())
		} else {
			msgs, fast = stream.ScanMessages(buf.String())
		}
		if fast {
			return msgs, true, nil
		}
	}
	if ndjson {
		msgs, err = stream.ReadAll(stream.NewJSONLReader(replay))
		return msgs, false, err
	}
	dec := json.NewDecoder(replay)
	if err = dec.Decode(&msgs); err == nil {
		// Reject trailing content: silently dropping a second batch
		// concatenated after the array would be invisible data loss.
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after JSON array")
		}
	}
	return msgs, false, err
}

// errReader is a reader that only ever fails with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// getTenant resolves the {tenant} path value to an existing tenant,
// writing the error response itself when absent or invalid.
func getTenant(w http.ResponseWriter, r *http.Request, p *Pool) (*Tenant, bool) {
	name := r.PathValue("tenant")
	if !tenantNameRE.MatchString(name) {
		httpError(w, http.StatusBadRequest, ErrBadTenant.Error())
		return nil, false
	}
	t, ok := p.Tenant(name)
	if !ok {
		httpError(w, http.StatusNotFound, ErrNoTenant.Error())
		return nil, false
	}
	return t, true
}

// writeJSON serves the cold shapes (errors, health, /tenants,
// /debug/requests) through encoding/json, in the compact form
// writeBody gives the hot ones.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]any{"error": msg, "status": status})
}

// retryableError is the one shape every retryable rejection (429 Too
// Many Requests, 503 Service Unavailable) is served in: the standard
// JSON error body extended with retry_after_seconds, mirrored in a
// Retry-After header. Hand-rolled header-plus-httpError combinations
// drifted once before — route every shed/unavailable response here.
func retryableError(w http.ResponseWriter, status int, retryAfter time.Duration, msg string) {
	secs := retryAfterSeconds(retryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, map[string]any{
		"error":               msg,
		"status":              status,
		"retry_after_seconds": secs,
	})
}
