package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"repro/internal/archive"
	"repro/internal/query"
)

type queryResponse struct {
	Tenant string           `json:"tenant"`
	Events []archive.Record `json:"events"`
	Stats  query.Stats      `json:"stats"`
	Cursor string           `json:"cursor"`
}

func getQuery(t *testing.T, base, tenant, params string) queryResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/" + tenant + "/query" + params)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q status = %d", params, resp.StatusCode)
	}
	var out queryResponse
	decodeBody(t, resp, &out)
	return out
}

// queryPool ingests the burst stream into a fresh pool with the given
// retention/archive setup and returns its HTTP test server.
func queryPool(t *testing.T, retain int, withArchive bool) (*Pool, *httptest.Server) {
	t.Helper()
	cfg := PoolConfig{Detector: persistCfg(), RetainEvents: retain}
	if withArchive {
		dir := t.TempDir()
		cfg.WALDir = filepath.Join(dir, "wal")
		cfg.ArchiveDir = filepath.Join(dir, "archive")
		cfg.archiveSegmentEvents = 1 // every eviction seals a segment
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Shutdown(context.Background()) })
	tn, err := pool.GetOrCreate("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range burstBatches() {
		if err := tn.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(pool))
	t.Cleanup(ts.Close)
	return pool, ts
}

// TestUnifiedQueryAcrossEvictionHTTP is the HTTP face of the
// acceptance criterion: the same /query request returns a
// byte-identical event set from a tenant that retained everything in
// memory (no archive) and from a tenant that evicted most finished
// events to disk — live, archived, or split, one answer.
func TestUnifiedQueryAcrossEvictionHTTP(t *testing.T) {
	_, allLive := queryPool(t, 0, false)
	_, split := queryPool(t, 1, true)

	for _, params := range []string{
		"",
		"?keyword=earthquake",
		"?from=3&to=9",
		"?min_rank=0.01",
		"?limit=4",
	} {
		live := getQuery(t, allLive.URL, "t", params)
		spl := getQuery(t, split.URL, "t", params)
		lj, _ := json.Marshal(live.Events)
		sj, _ := json.Marshal(spl.Events)
		if string(lj) != string(sj) {
			t.Fatalf("query %q diverges across eviction:\nlive  %s\nsplit %s", params, lj, sj)
		}
	}

	// The unbounded result really came from both sources on the
	// archiving tenant — and from the snapshot alone on the other.
	spl := getQuery(t, split.URL, "t", "")
	if spl.Stats.SnapshotHits == 0 || spl.Stats.ArchiveHits == 0 {
		t.Fatalf("split tenant stats not split: %+v", spl.Stats)
	}
	live := getQuery(t, allLive.URL, "t", "")
	if live.Stats.ArchiveHits != 0 || live.Stats.Segments != 0 {
		t.Fatalf("archive-less tenant touched an archive: %+v", live.Stats)
	}
	if len(live.Events) == 0 {
		t.Fatal("stream produced no queryable events; retune")
	}
}

// TestQueryCursorPaginationHTTP pages a query two events at a time and
// checks the concatenation equals the unpaginated answer.
func TestQueryCursorPaginationHTTP(t *testing.T) {
	_, ts := queryPool(t, 1, true)
	full := getQuery(t, ts.URL, "t", "?limit=10000")
	if len(full.Events) < 4 {
		t.Fatalf("only %d events; retune", len(full.Events))
	}
	var paged []archive.Record
	params := "?limit=2"
	for {
		page := getQuery(t, ts.URL, "t", params)
		paged = append(paged, page.Events...)
		if page.Cursor == "" {
			break
		}
		if len(page.Events) == 0 {
			t.Fatal("empty page with cursor")
		}
		params = "?limit=2&cursor=" + url.QueryEscape(page.Cursor)
	}
	pj, _ := json.Marshal(paged)
	fj, _ := json.Marshal(full.Events)
	if string(pj) != string(fj) {
		t.Fatalf("paged result diverges:\npaged %s\nfull  %s", pj, fj)
	}
}

// TestArchiveEndpointTruncatedSurface: /query over an archive-backed
// tenant surfaces the partial-stats flag of limit-stopped scans in its
// HTTP response.
func TestArchiveEndpointTruncatedSurface(t *testing.T) {
	_, ts := queryPool(t, 1, true)
	out := getQuery(t, ts.URL, "t", "?limit=1")
	if len(out.Events) != 1 || !out.Stats.Truncated || out.Cursor == "" {
		t.Fatalf("limit-stopped query: %d events, stats %+v, cursor %q — want truncated with cursor",
			len(out.Events), out.Stats, out.Cursor)
	}
}

// TestQueryParamValidation: every malformed numeric/boolean parameter
// across the read endpoints must produce a 400 with a JSON error body —
// no silent defaults, no 500s.
func TestQueryParamValidation(t *testing.T) {
	_, ts := queryPool(t, 1, true)
	cases := []string{
		"/v1/t/query?from=abc",
		"/v1/t/query?to=abc",
		"/v1/t/query?to=-2",
		"/v1/t/query?limit=-1",
		"/v1/t/query?limit=9e9",
		"/v1/t/query?min_rank=abc",
		"/v1/t/query?min_rank=-1",
		"/v1/t/query?min_rank=NaN",
		"/v1/t/query?cursor=@@not-base64@@",
		"/v1/t/query?limit=-5",
		"/v1/t/query?cursor=zzz.zzz",
		"/v1/t/events?k=abc",
		"/v1/t/events?k=-1",
		"/v1/t/events?all=maybe",
		"/v1/t/events?all=1&k=5",
		"/v1/t/events?all=1&keyword=quake",
		"/v1/t/related?min=abc",
		"/v1/t/related?min=2",
		"/v1/t/related?min=NaN",
		"/v1/t/stream?catchup=maybe",
	}
	for _, path := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, resp.StatusCode)
		}
		var body struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		decodeBody(t, resp, &body)
		if body.Error == "" || body.Status != http.StatusBadRequest {
			t.Errorf("%s: error body = %+v, want JSON error", path, body)
		}
	}
}

// TestQueryWithoutArchive: /query works on an archive-less tenant
// (snapshot only).
func TestQueryWithoutArchive(t *testing.T) {
	_, ts := queryPool(t, 0, false)
	if got := getQuery(t, ts.URL, "t", ""); len(got.Events) == 0 {
		t.Fatal("snapshot-only query served nothing")
	}
}

// FuzzQueryParams throws adversarial query strings at the shared
// request parser: it must never panic, never accept out-of-contract
// values, and reject with a JSON 400 — the fuzz face of the
// no-silent-defaults rule.
func FuzzQueryParams(f *testing.F) {
	f.Add("from=0&to=10&limit=5&keyword=quake&min_rank=0.5")
	f.Add("from=abc")
	f.Add("to=-2")
	f.Add("limit=-1")
	f.Add("limit=99999999999999999999")
	f.Add("min_rank=NaN")
	f.Add("min_rank=1e999")
	f.Add("cursor=%ff%fe")
	f.Add("cursor=djE6MTI6MzQ")
	f.Add("keyword=&keyword=a&from=00007")
	f.Add("from=\x00&to=\xff")
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{URL: &url.URL{RawQuery: raw}}
		w := httptest.NewRecorder()
		req, ok := parseQueryRequest(w, r.URL.Query())
		if !ok {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("rejected %q with status %d, want 400", raw, w.Code)
			}
			var body map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["error"] == "" {
				t.Fatalf("rejection body for %q is not a JSON error: %q", raw, w.Body.String())
			}
			return
		}
		if req.From < 0 || req.Limit <= 0 || req.Limit > maxQueryLimit {
			t.Fatalf("parser accepted out-of-contract request %+v from %q", req, raw)
		}
		if math.IsNaN(req.MinRank) || req.MinRank < 0 {
			t.Fatalf("parser accepted filter-disabling MinRank %v from %q", req.MinRank, raw)
		}
		if req.To < -1 {
			t.Fatalf("parser accepted negative To %+v from %q", req, raw)
		}
		for _, kw := range req.Keywords {
			if kw == "" {
				t.Fatalf("parser kept empty keyword from %q", raw)
			}
		}
	})
}
