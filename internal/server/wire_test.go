package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

// TestEveryBodyIsCompact drives every route NewHandler documents — the
// typed bodies, the cold writeJSON shapes and the error paths — and holds
// each body to the one wire form: what json.Encoder's Encode writes, the
// compact value (json.Compact leaves it unchanged) and one trailing
// newline. The Prometheus text and the SSE stream are not JSON bodies.
func TestEveryBodyIsCompact(t *testing.T) {
	pool, ffs, _ := faultPool(t, func(c *PoolConfig) {
		c.Detector = persistCfg()
		c.RetainEvents = 1
		c.ArchiveDir = filepath.Join(filepath.Dir(c.WALDir), "archive")
		c.archiveSegmentEvents = 2
		c.QueueMessages = 32
	})
	srv := httptest.NewServer(NewHandler(pool))
	defer srv.Close()
	// A second server sheds its tenant's second batch with a 429.
	limited, err := NewPool(PoolConfig{Detector: testDetectConfig(), RateLimit: 1, RateBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer limited.Shutdown(t.Context()) //nolint:errcheck // in-memory pool
	limitedSrv := httptest.NewServer(NewHandler(limited))
	defer limitedSrv.Close()

	statuses := map[int]bool{}
	check := func(what string, resp *http.Response, want int) []byte {
		t.Helper()
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s = %d %s, want %d", what, resp.StatusCode, body, want)
		}
		statuses[resp.StatusCode] = true
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", what, ct)
		}
		if want == http.StatusTooManyRequests || want == http.StatusServiceUnavailable && strings.HasPrefix(what, "POST") {
			if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
				t.Errorf("%s: Retry-After %q", what, resp.Header.Get("Retry-After"))
			}
		}
		if !json.Valid(body) {
			t.Fatalf("%s: body is not JSON: %.300q", what, body)
		}
		value, ok := bytes.CutSuffix(body, []byte("\n"))
		if !ok || bytes.HasSuffix(value, []byte("\n")) {
			t.Errorf("%s: body does not end in exactly one newline: %.300q", what, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, value); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), value) {
			t.Errorf("%s: body is not compact: %.300q", what, body)
		}
		return body
	}
	get := func(path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return check("GET "+path, resp, want)
	}
	post := func(base, path, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return check("POST "+path, resp, want)
	}
	asBody := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	get("/healthz", http.StatusOK)
	get("/readyz", http.StatusOK)
	get("/v1/tenants", http.StatusOK)
	for _, b := range burstBatches() {
		post(srv.URL, "/v1/acme/messages", asBody(b), http.StatusAccepted)
		tn, _ := pool.Tenant("acme")
		waitApplied(t, tn)
	}
	post(srv.URL, "/v1/acme/flush", "", http.StatusOK)

	// The typed bodies.
	var all struct {
		Events []struct {
			ID uint64 `json:"id"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/v1/acme/events?all=1", http.StatusOK), &all); err != nil || len(all.Events) == 0 {
		t.Fatalf("/events?all=1 holds no event to fetch by ID (%v)", err)
	}
	for _, path := range []string{
		"/v1/acme/events", "/v1/acme/events?k=1", "/v1/acme/events?keyword=wildfire",
		"/v1/acme/events/" + strconv.FormatUint(all.Events[0].ID, 10),
		"/v1/acme/related", "/v1/acme/related?min=0",
		"/v1/acme/query?debug=1", "/v1/acme/query?keyword=earthquake&min_rank=1", "/v1/acme/query?from=0&to=50",
	} {
		get(path, http.StatusOK)
	}
	var page struct {
		Cursor string `json:"cursor"`
		Stats  struct {
			ArchiveHits int `json:"archive_hits"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(get("/v1/acme/query", http.StatusOK), &page); err != nil || page.Stats.ArchiveHits == 0 {
		t.Fatalf("/query served no archive rows (%v)", err)
	}
	if err := json.Unmarshal(get("/v1/acme/query?limit=1", http.StatusOK), &page); err != nil || page.Cursor == "" {
		t.Fatalf("/query?limit=1 gave no cursor (%v)", err)
	}
	get("/v1/acme/query?limit=1&cursor="+url.QueryEscape(page.Cursor), http.StatusOK)

	// The cold shapes.
	for _, path := range []string{
		"/v1/tenants", "/debug/requests", "/debug/requests?tenant=acme&min_ms=0",
	} {
		get(path, http.StatusOK)
	}

	// The errors.
	for _, path := range []string{
		"/v1/acme/query?limit=minus-one", "/v1/acme/events?k=2&all=1", "/v1/acme/events/x",
		"/v1/-bad/events", "/metrics?format=xml", "/debug/requests?min_ms=x",
	} {
		get(path, http.StatusBadRequest)
	}
	for _, path := range []string{"/v1/nobody/events", "/v1/acme/events/987654321", "/v1/nobody/query", "/metrics?tenant=nobody"} {
		get(path, http.StatusNotFound)
	}
	post(srv.URL, "/v1/acme/messages", "[{", http.StatusBadRequest)
	var tooBig []any
	for q := 0; q < 5; q++ {
		for _, m := range quantumOf(0, "more than the queue holds") {
			tooBig = append(tooBig, m)
		}
	}
	post(srv.URL, "/v1/acme/messages", asBody(tooBig), http.StatusRequestEntityTooLarge)
	batch := asBody(quantumOf(0, "rate limited batch of words"))
	post(limitedSrv.URL, "/v1/rl/messages", batch, http.StatusAccepted)
	post(limitedSrv.URL, "/v1/rl/messages", batch, http.StatusTooManyRequests)

	// A storage-degraded tenant: ingest sheds 503, /readyz lists it.
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Err: syscall.ENOSPC})
	post(srv.URL, "/v1/acme/messages", batch, http.StatusServiceUnavailable)
	get("/readyz", http.StatusServiceUnavailable)
	post(srv.URL, "/v1/acme/messages", batch, http.StatusServiceUnavailable)

	for _, code := range []int{200, 202, 400, 404, 413, 429, 503} {
		if !statuses[code] {
			t.Errorf("no %d body was checked", code)
		}
	}
}
