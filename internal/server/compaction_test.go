package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// httpPage is the client-visible part of a /query response.
// Stats are deliberately dropped before comparison: segment and block
// counts legitimately change when the archive is compacted; the events
// and the cursor must not.
type httpPage struct {
	Events json.RawMessage `json:"events"`
	Cursor string          `json:"cursor"`
}

func fetchPage(t *testing.T, url string) httpPage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var page httpPage
	decodeBody(t, resp, &page)
	return page
}

// fetchWalk follows the cursor chain to exhaustion and returns every
// page as a byte-comparable string.
func fetchWalk(t *testing.T, base string) []string {
	t.Helper()
	var pages []string
	url := base
	for i := 0; ; i++ {
		page := fetchPage(t, url)
		pages = append(pages, string(page.Events)+"|"+page.Cursor)
		if page.Cursor == "" {
			return pages
		}
		if i > 100 {
			t.Fatal("cursor walk did not terminate")
		}
		url = base + "&cursor=" + page.Cursor
	}
}

// TestArchiveCompactionHTTPIdentity is the tentpole acceptance check at
// the HTTP layer: a server restarted with the background compactor
// enabled must keep serving byte-identical /query pages while (and
// after) its archive's small segments are merged, and the compactor's
// work must show up on /metrics in both JSON and Prometheus form.
func TestArchiveCompactionHTTPIdentity(t *testing.T) {
	dir := t.TempDir()
	pcfg := PoolConfig{
		Detector:             persistCfg(),
		RetainEvents:         1,
		WALDir:               filepath.Join(dir, "wal"),
		ArchiveDir:           filepath.Join(dir, "archive"),
		archiveSegmentEvents: 1, // every archived event seals a segment
	}
	pool1, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := pool1.GetOrCreate("t")
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
	if n := tn.Metrics().ArchiveSegments; n < 3 {
		t.Fatalf("stream too tame: only %d archive segments to compact", n)
	}

	endpoints := []string{
		"/v1/t/query?from=0&limit=500",
		"/v1/t/query?from=0&keyword=earthquake&limit=500",
		"/v1/t/query?from=0&limit=3", // cursor-walked
	}
	baseline := make([][]string, len(endpoints))
	ts1 := httptest.NewServer(NewHandler(pool1))
	for i, ep := range endpoints {
		baseline[i] = fetchWalk(t, ts1.URL+ep)
	}
	ts1.Close()
	if err := pool1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directories with merge-friendly bounds and a
	// fast background compactor. Queries race live compaction steps
	// here; the final comparison runs over the fully compacted archive.
	pcfg.archiveSegmentEvents = 64
	pcfg.archiveBucketQuanta = 1 << 20
	pcfg.archiveBlockEvents = 4
	pcfg.ArchiveCompactInterval = 2 * time.Millisecond
	pool2, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	ts2 := httptest.NewServer(NewHandler(pool2))
	defer ts2.Close()
	tn2, err := pool2.GetOrCreate("t")
	if err != nil {
		t.Fatal(err)
	}

	// The background loop must commit at least one step on its own ...
	deadline := time.Now().Add(10 * time.Second)
	for tn2.Metrics().ArchiveCompactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never committed a step")
		}
		fetchPage(t, ts2.URL+endpoints[0]) // exercise scans mid-compaction
		time.Sleep(2 * time.Millisecond)
	}
	// ... then converge deterministically (CompactAll serializes with the
	// loop on the archive's compaction mutex).
	if _, err := tn2.storage.arch.CompactAll(); err != nil {
		t.Fatal(err)
	}

	m := tn2.Metrics()
	if m.ArchiveColumnarSegments == 0 || m.ArchiveCompactions == 0 ||
		m.ArchiveSegmentsCompacted == 0 || m.ArchiveBytesReclaimed == 0 {
		t.Fatalf("compaction counters missing from metrics: %+v", m)
	}

	for i, ep := range endpoints {
		pages := fetchWalk(t, ts2.URL+ep)
		if len(pages) != len(baseline[i]) {
			t.Fatalf("%s paginates differently after compaction: %d pages vs %d",
				ep, len(pages), len(baseline[i]))
		}
		for p := range pages {
			if pages[p] != baseline[i][p] {
				t.Fatalf("%s page %d diverges after compaction:\n was %s\n now %s",
					ep, p, baseline[i][p], pages[p])
			}
		}
	}

	// The counters must surface through both exposition formats.
	var pm PoolMetrics
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &pm)
	if pm.Totals.ArchiveBytesReclaimed == 0 {
		t.Fatalf("totals missing reclaimed bytes: %+v", pm.Totals)
	}
	resp, err = http.Get(ts2.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(raw)
	for _, want := range []string{
		fmt.Sprintf(`eventdetect_archive_compactions_total{tenant="t"} %d`, m.ArchiveCompactions),
		`eventdetect_archive_columnar_segments{tenant="t"}`,
		`eventdetect_archive_bytes_reclaimed_total{tenant="t"}`,
		`eventdetect_pool_archive_bytes_reclaimed_total`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
}
