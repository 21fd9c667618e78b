package server

import (
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// goldenMasked are the families whose samples measure time (or the Go
// runtime) rather than count what the run did: their sample values are
// masked, and the stage histograms' sample lines are dropped, since
// which log2 buckets fill depends on the machine.
var goldenMasked = regexp.MustCompile(`^(eventdetect_process_seconds_total|eventdetect_msgs_per_sec|eventdetect_http_encode_seconds_total|go_[a-z_]+)(\{[^}]*\})? `)

const goldenStageSample = "eventdetect_stage_duration_seconds_"

// TestPrometheusGolden pins the whole exposition of a two-tenant pool
// with a WAL and an archive: every HELP and TYPE line, the family order
// and every sample that counts what the run did. Tenant a evicts events
// into sealed archive segments and has one batch shed by the token
// bucket; tenant b ingests a shorter stream. Run with -update to rewrite
// testdata/metrics.golden.
func TestPrometheusGolden(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewPool(PoolConfig{
		Detector:             persistCfg(),
		WALDir:               filepath.Join(dir, "wal"),
		ArchiveDir:           filepath.Join(dir, "archive"),
		RetainEvents:         1,
		SnapshotEvery:        3,
		archiveSegmentEvents: 2,
		// Tenant a's 160 messages leave 4 tokens: its next 8-message
		// batch is shed. The refill is negligible over the test.
		RateLimit: 1e-6,
		RateBurst: 164,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	post := func(path string, body any, want int) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	batches := burstBatches()
	for _, b := range batches {
		post("/v1/a/messages", b, http.StatusAccepted)
	}
	post("/v1/a/messages", quantumOf(900, "one batch too many"), http.StatusTooManyRequests)
	for _, b := range batches[:6] {
		post("/v1/b/messages", b, http.StatusAccepted)
	}
	post("/v1/a/flush", nil, http.StatusOK)
	post("/v1/b/flush", nil, http.StatusOK)
	if code, body := getBody(t, ts.URL+"/v1/a/query?from=0"); code != http.StatusOK {
		t.Fatalf("query = %d: %s", code, body)
	}

	code, body := getBody(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("exposition status = %d", code)
	}
	series := validatePromExposition(t, body)
	for _, name := range []string{
		`eventdetect_archive_columnar_segments{tenant="a"}`,
		`eventdetect_archive_events{tenant="a"}`,
		`eventdetect_shed_rate_limit_total{tenant="a"}`,
		`eventdetect_wal_snapshot_seq{tenant="b"}`,
	} {
		if series[name] == 0 {
			t.Errorf("%s = 0: the run does not reach what the golden should pin", name)
		}
	}

	var masked strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		switch {
		case strings.HasPrefix(line, goldenStageSample):
			continue
		case goldenMasked.MatchString(line):
			line = goldenMasked.FindString(line) + "<masked>\n"
		}
		masked.WriteString(line)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil { //repro:vfs-exempt test fixture, not storage-layer I/O
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(masked.String()), 0o644); err != nil { //repro:vfs-exempt test fixture, not storage-layer I/O
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := masked.String(); got != string(want) {
		t.Errorf("exposition drifted from %s (run with -update to accept):\n%s", golden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side holds, in order, marked - (the
// golden) and + (this run).
func lineDiff(want, got string) string {
	in := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if g[l] == 0 {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if w[l] == 0 {
			b.WriteString("+ " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(same lines, different order)"
	}
	return b.String()
}
