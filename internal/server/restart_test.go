package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// httpPage is the client-visible part of a /query response.
// Stats are deliberately dropped before comparison: segment and block
// counts legitimately change with the archive's physical layout; the
// events and the cursor must not.
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

// TestArchiveRestartHTTPIdentity is the seal policy's acceptance check
// at the HTTP layer: the same stream archived under three layouts —
// every eviction still in the buffer (carried by the shutdown snapshot),
// nearly all of them in segments sealed at a tiny bound, or that bound
// with a crash after a seal that overlaps the last snapshot's buffer —
// serves byte-identical /query pages before and after a restart, every
// ordinal exactly once, and the layout shows on /metrics in both JSON
// and Prometheus form.
func TestArchiveRestartHTTPIdentity(t *testing.T) {
	endpoints := []string{
		"/v1/t/query?from=0&limit=500",
		"/v1/t/query?from=0&keyword=earthquake&limit=500",
		"/v1/t/query?from=0&limit=3", // cursor-walked
	}
	walkAll := func(pool *Pool) [][]string {
		ts := httptest.NewServer(NewHandler(pool))
		defer ts.Close()
		out := make([][]string, len(endpoints))
		for i, ep := range endpoints {
			out[i] = fetchWalk(t, ts.URL+ep)
		}
		return out
	}
	var baseline [][]string
	for _, tc := range []struct {
		segEvents int
		crash     bool
	}{{1 << 20, false}, {2, false}, {2, true}} {
		dir := t.TempDir()
		pcfg := PoolConfig{
			Detector:             persistCfg(),
			RetainEvents:         1,
			WALDir:               filepath.Join(dir, "wal"),
			ArchiveDir:           filepath.Join(dir, "archive"),
			archiveSegmentEvents: tc.segEvents,
		}
		pool1, err := NewPool(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		tn, err := pool1.GetOrCreate("t")
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range burstBatches() {
			if err := tn.Enqueue(b); err != nil {
				t.Fatal(err)
			}
			if tc.crash && i == 6 {
				// The last snapshot before the crash carries eviction 1,
				// still buffered; eviction 2 then seals {1, 2}.
				waitApplied(t, tn)
				tn.mu.Lock()
				err := tn.storage.snapshot(tn.lastApplied.Load(), tn.det.Save)
				tn.mu.Unlock()
				if ar := tn.storage.arch; err != nil || ar.EventCount() != 1 || ar.ColumnarSegmentCount() != 0 {
					t.Fatalf("snapshot = %v with %d events, %d sealed; want one buffered eviction", err, ar.EventCount(), ar.ColumnarSegmentCount())
				}
			}
		}
		if err := tn.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		archived := sample(t, tn, "eventdetect_archive_events")
		if archived < 3 {
			t.Fatalf("stream too tame: only %v archived events", archived)
		}
		wantSealed := 0.0
		if tc.segEvents == 2 {
			wantSealed = float64(int(archived) / 2)
		}
		sealed := sample(t, tn, "eventdetect_archive_columnar_segments")
		if sealed != wantSealed {
			t.Fatalf("bound %d: %v sealed segments for %v events, want %v",
				tc.segEvents, sealed, archived, wantSealed)
		}
		before := walkAll(pool1)
		if baseline == nil {
			baseline = before
		}
		if tc.crash {
			// Abandoned, not shut down: nothing more reaches the disk
			// until the test is over.
			t.Cleanup(func() { pool1.Shutdown(context.Background()) }) //nolint:errcheck // after the restart under test
		} else if err := pool1.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		names, err := os.ReadDir(filepath.Join(pcfg.ArchiveDir, "t"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range names {
			if !strings.HasPrefix(e.Name(), "ev-") || !strings.HasSuffix(e.Name(), ".col") {
				t.Fatalf("bound %d: archive directory holds %s, want only ev-*.col", tc.segEvents, e.Name())
			}
		}

		pool2, err := NewPool(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		after := walkAll(pool2)
		for i, ep := range endpoints {
			for _, got := range [][]string{before[i], after[i]} {
				if !slices.Equal(got, baseline[i]) {
					t.Fatalf("bound %d: %s diverges:\n want %q\n have %q", tc.segEvents, ep, baseline[i], got)
				}
			}
		}
		tn2, _ := pool2.Tenant("t")
		for i, rec := range archivedRecords(t, tn2) {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("bound %d: archive record %d has ordinal %d: lost or duplicated", tc.segEvents, i, rec.Seq)
			}
		}
		if gaps := tn2.storage.arch.Gaps(); gaps != 0 {
			t.Fatalf("bound %d: %d ordinal gaps after the restart", tc.segEvents, gaps)
		}

		// The layout surfaces through the exposition.
		ts := httptest.NewServer(NewHandler(pool2))
		code, body := getBody(t, ts.URL+"/metrics")
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("/metrics = %d", code)
		}
		series := validatePromExposition(t, body)
		archived2, ok1 := series[`eventdetect_archive_events{tenant="t"}`]
		sealed2, ok2 := series[`eventdetect_archive_columnar_segments{tenant="t"}`]
		if !ok1 || !ok2 {
			t.Fatal("exposition missing eventdetect_archive_events or eventdetect_archive_columnar_segments")
		}
		if archived2 != archived || sealed2 != sealed {
			t.Fatalf("bound %d: after restart %v events, %v sealed; before %v, %v", tc.segEvents, archived2, sealed2, archived, sealed)
		}
		if err := pool2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
