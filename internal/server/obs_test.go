package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSnapshotAgeQuantaClamp is the regression test for the underflow:
// after recovery the snapshot cadence marker can sit ahead of the
// published epoch's quantum, and the age metric must clamp at zero
// instead of going negative.
func TestSnapshotAgeQuantaClamp(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("clamp")
	if err != nil {
		t.Fatal(err)
	}
	tn.lastSnapQuantum.Store(1 << 20) // snapshot "ahead" of the epoch
	if age := sample(t, tn, "eventdetect_snapshot_age_quanta"); age != 0 {
		t.Fatalf("eventdetect_snapshot_age_quanta = %v, want 0 (clamped)", age)
	}
}

// TestMetricsTotalsAggregation: every pool row equals the sum of the
// tenant samples the same scrape wrote — for the full scrape and the
// ?tenant= one — while a goroutine keeps ingesting into every tenant, so
// totals that re-read the counters would disagree with the samples.
func TestMetricsTotalsAggregation(t *testing.T) {
	cases := []struct {
		name    string
		tenants []string
		ingest  bool
	}{
		{"empty", nil, false},
		{"single", []string{"solo"}, true},
		{"pair", []string{"left", "right"}, true},
		{"zeros-are-counted", []string{"idle1", "idle2"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), WALDir: t.TempDir(), QueueDepth: 4, AdmissionFrac: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Shutdown(context.Background())
			ts := httptest.NewServer(NewHandler(pool))
			defer ts.Close()
			var tenants []*Tenant
			for _, name := range c.tenants {
				tn, err := pool.GetOrCreate(name)
				if err != nil {
					t.Fatal(err)
				}
				tenants = append(tenants, tn)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if c.ingest {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						for _, tn := range tenants {
							tn.Enqueue(quantumOf(8*(i%50), "steady chatter about the weather")) //nolint:errcheck // a full queue is fine here
						}
					}
				}()
			}
			scrapes := []string{""}
			for _, name := range c.tenants {
				scrapes = append(scrapes, "?tenant="+name)
			}
			for round := 0; round < 20; round++ {
				for _, query := range scrapes {
					code, body := getBody(t, ts.URL+"/metrics"+query)
					if code != http.StatusOK {
						t.Fatalf("/metrics%s = %d", query, code)
					}
					want := len(c.tenants)
					if query != "" {
						want = 1
					}
					checkPoolSums(t, query, validatePromExposition(t, body), want)
				}
			}
			close(stop)
			wg.Wait()
			if c.ingest && sample(t, tenants[0], "eventdetect_messages_total") == 0 {
				t.Fatal("the ingest goroutine never landed a batch; the scrapes raced nothing")
			}
		})
	}
}

// checkPoolSums asserts every pool row of one scrape against the tenant
// samples of that scrape, which must cover wantTenants tenants.
func checkPoolSums(t *testing.T, query string, series map[string]float64, wantTenants int) {
	t.Helper()
	tenantSum := func(family string) (sum float64, n int) {
		for id, v := range series {
			if strings.HasPrefix(id, family+`{tenant="`) {
				sum += v
				n++
			}
		}
		return sum, n
	}
	_, tenants := tenantSum("eventdetect_messages_total")
	if tenants != wantTenants {
		t.Fatalf("/metrics%s: samples for %d tenants, want %d", query, tenants, wantTenants)
	}
	for _, pm := range promPoolMetrics {
		want := float64(tenants)
		if pm.sums != nil {
			want = 0
			for _, family := range pm.sums {
				sum, n := tenantSum(family)
				if n != tenants {
					t.Fatalf("/metrics%s: %d %s samples for %d tenants", query, n, family, tenants)
				}
				want += sum
			}
		}
		if got, ok := series[pm.name]; !ok || got != want {
			t.Fatalf("/metrics%s: %s = %v (present %v), want %v from the scrape's tenant samples", query, pm.name, got, ok, want)
		}
	}
}

// promSampleRE matches one exposition sample line: name, optional
// label block, value.
var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
var promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$`)

// validatePromExposition is the golden-format validator: HELP and TYPE
// precede every family's samples, series are unique, labels are
// well-formed, histogram buckets are cumulative with +Inf == _count.
// Returns the parsed samples keyed by full series identity.
func validatePromExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	series := map[string]float64{}
	lastBucket := map[string]float64{}  // series-minus-le → last cumulative
	bucketTotal := map[string]float64{} // series-minus-le → +Inf value
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: bad TYPE %q", ln+1, parts[1])
			}
			if typed[parts[0]] != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "NaN" {
			t.Fatalf("line %d: bad value %q", ln+1, valStr)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if !helped[family] || typed[family] == "" {
			t.Fatalf("line %d: sample %s before HELP/TYPE of %s", ln+1, name, family)
		}
		if labels != "" {
			inner := labels[1 : len(labels)-1]
			for _, pair := range strings.Split(inner, ",") {
				if !promLabelRE.MatchString(pair) {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
			}
		}
		id := name + labels
		if _, dup := series[id]; dup {
			t.Fatalf("line %d: duplicate series %s", ln+1, id)
		}
		series[id] = val
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			key := family + stripLE(labels)
			if val < lastBucket[key] {
				t.Fatalf("line %d: bucket cumulative decreased for %s: %v < %v", ln+1, key, val, lastBucket[key])
			}
			lastBucket[key] = val
			if strings.Contains(labels, `le="+Inf"`) {
				bucketTotal[key] = val
			}
		}
	}
	for key, inf := range bucketTotal {
		countID := strings.Replace(key, "{", "_count{", 1)
		cnt, ok := series[countID]
		if !ok {
			t.Fatalf("histogram %s has buckets but no _count", key)
		}
		if cnt != inf {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", key, inf, cnt)
		}
	}
	return series
}

// stripLE removes the le="..." pair from a label block.
var leRE = regexp.MustCompile(`,le="[^"]*"`)

func stripLE(labels string) string { return leRE.ReplaceAllString(labels, "") }

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// tenantSamples scrapes one tenant's exposition and returns its
// per-tenant samples by family name.
func tenantSamples(t *testing.T, tn *Tenant) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	writePrometheus(rec, []*Tenant{tn})
	label := `{tenant="` + promEscape(tn.name) + `"}`
	out := map[string]float64{}
	for id, v := range validatePromExposition(t, rec.Body.String()) {
		if family, ok := strings.CutSuffix(id, label); ok {
			out[family] = v
		}
	}
	return out
}

// sample reads one per-tenant family off the tenant's exposition — the
// surface dashboards read.
func sample(t *testing.T, tn *Tenant, family string) float64 {
	t.Helper()
	v, ok := tenantSamples(t, tn)[family]
	if !ok {
		t.Fatalf("exposition has no %s sample for tenant %s", family, tn.name)
	}
	return v
}

// TestPrometheusExposition exercises the full pipeline (ingest →
// quantum → query) and validates the rendered exposition: every tenant
// and pool family present, at least 8 distinct stage histograms, all
// format invariants holding.
func TestPrometheusExposition(t *testing.T) {
	pool, err := NewPool(PoolConfig{
		Detector: testDetectConfig(),
		WALDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/exp/messages", quantumOf(i*8, "fire downtown"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/exp/flush", nil)
	resp.Body.Close()
	if code, _ := getBody(t, ts.URL+"/v1/exp/query?limit=10"); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/v1/exp/events?k=5"); code != http.StatusOK {
		t.Fatalf("events status = %d", code)
	}

	code, body := getBody(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("exposition status = %d", code)
	}
	series := validatePromExposition(t, body)

	// Every per-tenant family appears with the tenant label.
	for _, pm := range promTenantMetrics {
		if _, ok := series[pm.name+`{tenant="exp"}`]; !ok {
			t.Errorf("missing series %s{tenant=\"exp\"}", pm.name)
		}
	}
	for _, pm := range promPoolMetrics {
		if _, ok := series[pm.name]; !ok {
			t.Errorf("missing totals series %s", pm.name)
		}
	}
	// The graph-layer signals carry the detector's own numbers: three
	// quanta of two keywords used by the same users leave (keyword, user)
	// pairs in the window, rebuilt sketches and at least one screened pair.
	for _, name := range []string{"eventdetect_akg_window_user_entries", "eventdetect_akg_dirty_nodes",
		"eventdetect_akg_pairs_screened_total", "eventdetect_akg_pairs_passed_total", "eventdetect_akg_sketch_rebuilds_total",
		"eventdetect_akg_sketch_updates_total", "eventdetect_interner_words", "eventdetect_interner_first_sight_total"} {
		if v := series[name+`{tenant="exp"}`]; v <= 0 {
			t.Errorf("%s = %v after three bursty quanta, want > 0", name, v)
		}
	}
	// At least 8 distinct pipeline stages must have histogram data.
	stages := map[string]bool{}
	stageRE := regexp.MustCompile(`eventdetect_stage_duration_seconds_count\{tenant="exp",stage="([a-z_]+)"\}`)
	for id := range series {
		if m := stageRE.FindStringSubmatch(id); m != nil {
			stages[m[1]] = true
		}
	}
	if len(stages) < 8 {
		t.Fatalf("only %d stage histograms populated (%v), want >= 8", len(stages), stages)
	}
	// Runtime health is present.
	for _, name := range []string{"go_goroutines", "go_memstats_heap_alloc_bytes", "go_gc_pause_seconds_total"} {
		if _, ok := series[name]; !ok {
			t.Errorf("missing runtime series %s", name)
		}
	}
}

// TestMetricReferenceMatchesDocs pins docs/OPERATIONS.md's metric
// reference to the exposition in both directions: every family the
// server writes and every stage label is documented, and every
// eventdetect_ series the document names is written.
func TestMetricReferenceMatchesDocs(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	const stageFamily = "eventdetect_stage_duration_seconds"
	families := []string{stageFamily}
	for _, m := range promTenantMetrics {
		families = append(families, m.name)
	}
	for _, m := range promPoolMetrics {
		families = append(families, m.name)
	}
	named := regexp.MustCompile(`eventdetect_[a-z0-9_]+`).FindAllString(doc, -1)
	slices.Sort(named)
	named = slices.Compact(named)
	for _, name := range families {
		if _, found := slices.BinarySearch(named, name); !found {
			t.Errorf("docs/OPERATIONS.md does not name %s", name)
		}
	}
	for _, st := range obs.Stages() {
		if !strings.Contains(doc, "| `"+st.String()+"` |") {
			t.Errorf("docs/OPERATIONS.md's stage table has no row for %s", st)
		}
	}
	for _, name := range named {
		switch strings.TrimPrefix(name, stageFamily) {
		case "_bucket", "_sum", "_count":
			continue
		}
		if !slices.Contains(families, name) {
			t.Errorf("docs/OPERATIONS.md names %s, which the server does not write", name)
		}
	}

	// The go_* runtime families match the reference's Runtime line.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	writeRuntimeMetrics(bw)
	bw.Flush()
	var written []string
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (go_[a-z0-9_]+) `).FindAllStringSubmatch(buf.String(), -1) {
		written = append(written, m[1])
	}
	_, line, found := strings.Cut(doc, "**Runtime**:")
	if !found {
		t.Fatal("docs/OPERATIONS.md has no **Runtime**: line")
	}
	line, _, _ = strings.Cut(line, "\n\n")
	documented := regexp.MustCompile(`go_[a-z0-9_]+`).FindAllString(line, -1)
	slices.Sort(written)
	slices.Sort(documented)
	if len(written) == 0 || !slices.Equal(written, documented) {
		t.Errorf("runtime families written %v, documented on the Runtime line %v", written, documented)
	}
}

// TestMetricsFilterAndFormat covers the ?tenant= filter and the format
// parameter: /metrics is the text exposition with or without
// ?format=prometheus, and any other format is a 400.
func TestMetricsFilterAndFormat(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	for _, name := range []string{"alpha", "beta"} {
		resp := postJSON(t, ts.URL+"/v1/"+name+"/messages", quantumOf(0, "hello world"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s status = %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A 202 acknowledges the batch before it applies; the message
	// counter moves only once it has.
	for _, name := range []string{"alpha", "beta"} {
		tn, _ := pool.Tenant(name)
		waitApplied(t, tn)
	}

	scrape := func(query string) map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != promContentType {
			t.Fatalf("/metrics%s = %d, %q", query, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		return validatePromExposition(t, string(raw))
	}
	for _, query := range []string{"", "?format=prometheus"} {
		series := scrape(query)
		for _, name := range []string{"alpha", "beta"} {
			if series[`eventdetect_messages_total{tenant="`+name+`"}`] != 8 {
				t.Fatalf("/metrics%s: tenant %s missing or wrong", query, name)
			}
		}
		if series["eventdetect_pool_tenants"] != 2 {
			t.Fatalf("/metrics%s: pool_tenants = %v, want 2", query, series["eventdetect_pool_tenants"])
		}
	}
	// The filter narrows the tenant samples and the totals alike, with
	// or without the format parameter.
	for _, query := range []string{"?tenant=beta", "?format=prometheus&tenant=beta"} {
		series := scrape(query)
		for id := range series {
			if strings.Contains(id, `tenant="alpha"`) {
				t.Fatalf("/metrics%s leaks %s", query, id)
			}
		}
		if series[`eventdetect_messages_total{tenant="beta"}`] != 8 || series["eventdetect_pool_tenants"] != 1 {
			t.Fatalf("/metrics%s: beta's samples or the one-tenant totals missing", query)
		}
	}
	if code, _ := getBody(t, ts.URL+"/metrics?tenant=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown tenant filter status = %d, want 404", code)
	}
	for _, format := range []string{"json", "xml"} {
		if code, _ := getBody(t, ts.URL+"/metrics?format="+format); code != http.StatusBadRequest {
			t.Fatalf("format=%s status = %d, want 400", format, code)
		}
	}
}

// TestQueryDebugSpans checks the ?debug=1 span breakdown: spans are
// present, named, and sum to the reported total within 5%.
func TestQueryDebugSpans(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/dbg/messages", quantumOf(0, "storm coming"))
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/dbg/flush", nil)
	resp.Body.Close()

	code, body := getBody(t, ts.URL+"/v1/dbg/query?limit=10&debug=1")
	if code != http.StatusOK {
		t.Fatalf("debug query status = %d", code)
	}
	var out struct {
		Debug *traceJSON `json:"debug"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Debug == nil {
		t.Fatal("?debug=1 response has no debug block")
	}
	if out.Debug.Op != "query" || out.Debug.Tenant != "dbg" || len(out.Debug.Spans) < 3 {
		t.Fatalf("debug block = %+v", out.Debug)
	}
	var sum float64
	names := map[string]bool{}
	for _, s := range out.Debug.Spans {
		sum += s.Ms
		names[s.Stage] = true
	}
	for _, want := range []string{"parse", "plan", "snapshot_scan", "finalize"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, out.Debug.Spans)
		}
	}
	if out.Debug.TotalMs <= 0 {
		t.Fatalf("total_ms = %v", out.Debug.TotalMs)
	}
	if diff := math.Abs(sum-out.Debug.TotalMs) / out.Debug.TotalMs; diff > 0.05 {
		t.Fatalf("span sum %.4fms vs total %.4fms: off by %.1f%%", sum, out.Debug.TotalMs, diff*100)
	}
	// Without ?debug the response must not carry the block.
	_, body = getBody(t, ts.URL+"/v1/dbg/query?limit=10")
	if strings.Contains(body, `"debug"`) {
		t.Fatal("debug block leaked into a plain query response")
	}
}

// TestDebugRequestsUnderLoad hammers the query endpoint concurrently
// and checks the slow-request ring: bounded retention, slowest-first
// order, min_ms filtering.
func TestDebugRequestsUnderLoad(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/load/messages", quantumOf(0, "flood warning"))
	resp.Body.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				r, err := http.Get(ts.URL + "/v1/load/query?limit=5")
				if err == nil {
					io.Copy(io.Discard, r.Body) //nolint:errcheck
					r.Body.Close()
				}
			}
		}()
	}
	wg.Wait()

	code, body := getBody(t, ts.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("debug/requests status = %d", code)
	}
	var out struct {
		Traces []traceJSON `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// 201 requests were traced; the ring keeps its bound of them.
	if len(out.Traces) != obs.RingSize {
		t.Fatalf("retained %d traces, want the ring bound %d", len(out.Traces), obs.RingSize)
	}
	for i := 1; i < len(out.Traces); i++ {
		if out.Traces[i].TotalMs > out.Traces[i-1].TotalMs {
			t.Fatalf("traces not slowest-first at %d: %v > %v", i, out.Traces[i].TotalMs, out.Traces[i-1].TotalMs)
		}
	}
	for _, tr := range out.Traces {
		if tr.Tenant != "load" || (tr.Op != "query" && tr.Op != "ingest") {
			t.Fatalf("unexpected trace %+v", tr)
		}
	}
	// An absurd min_ms filters everything out but stays 200.
	code, body = getBody(t, ts.URL+"/debug/requests?min_ms=3600000")
	if code != http.StatusOK {
		t.Fatalf("filtered status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 0 {
		t.Fatalf("min_ms filter retained %d traces", len(out.Traces))
	}
}

// TestDebugRequestsMergesTenantsSlowestFirst: three tenants whose trace
// durations interleave come back as one list, slowest first across
// tenants, a tie in tenant order.
func TestDebugRequestsMergesTenantsSlowestFirst(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	type trace struct {
		Tenant  string  `json:"tenant"`
		TotalMs float64 `json:"total_ms"`
	}
	for name, totals := range map[string][]time.Duration{"a": {9, 6, 1}, "b": {8, 5, 2}, "c": {7, 6, 3}} {
		tn, err := pool.GetOrCreate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ms := range totals {
			tn.Obs().OfferTrace(&obs.TraceRecord{Tenant: name, Op: "query", Total: ms * time.Millisecond})
		}
	}
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("debug/requests status = %d", code)
	}
	var out struct {
		Traces []trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	want := []trace{{"a", 9}, {"b", 8}, {"c", 7}, {"a", 6}, {"c", 6}, {"b", 5}, {"c", 3}, {"b", 2}, {"a", 1}}
	if !reflect.DeepEqual(out.Traces, want) {
		t.Fatalf("merged traces = %v, want %v", out.Traces, want)
	}
}

// TestTelemetryAlwaysOn: there is no off switch, so the debug surface
// answers 200 — an empty list — on a pool that has served nothing, and
// the exposition carries the stage histograms as soon as a stage ran.
func TestTelemetryAlwaysOn(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("debug/requests on a fresh pool = %d, want 200", code)
	}
	var out struct {
		Traces []traceJSON `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || out.Traces == nil || len(out.Traces) != 0 {
		t.Fatalf("fresh debug/requests body = %s (err %v), want an empty traces list", body, err)
	}
	resp := postJSON(t, ts.URL+"/v1/on/messages", quantumOf(0, "hi there"))
	resp.Body.Close()
	code, body = getBody(t, ts.URL+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("exposition status = %d", code)
	}
	validatePromExposition(t, body)
	if !strings.Contains(body, `eventdetect_stage_duration_seconds_count{tenant="on",stage="http_ingest"}`) {
		t.Fatal("stage histograms missing from the exposition")
	}
}

// TestIngestToSSEHistogramPath sanity-checks that a full ingest→flush
// round populates the quantum-side stage histograms (the SSE fan-out
// and snapshot publish stages), via the tenant's own telemetry handle.
func TestIngestToSSEHistogramPath(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("sse")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Enqueue(quantumOf(0, "quake reported")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tn.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	o := tn.Obs()
	want := map[string]bool{
		"snapshot_publish": true, "sse_fanout": true, "detect_quantum": true,
		"queue_wait": true, "sched_wait": true, "admission": true,
	}
	for _, st := range obs.Stages() {
		if !want[st.String()] {
			continue
		}
		if o.Snapshot(st).Count == 0 {
			t.Errorf("stage %s has no observations after ingest+flush", st)
		}
	}
}

// TestSnapshotReadsObserveHTTPQuery: each of the three snapshot-read
// routes — /events, /events/{id}, /related — adds exactly one http_query
// observation per request, visible in the exposition.
func TestSnapshotReadsObserveHTTPQuery(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/v1/reads/messages", quantumOf(0, "earthquake struck eastern turkey"))
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/reads/flush", nil) // returns once all four quanta are applied
	resp.Body.Close()
	events := getEvents(t, ts.URL, "reads", "?all=1")
	if len(events.Events) == 0 {
		t.Fatal("no live event to read by id")
	}
	httpQueryCount := func() float64 {
		_, body := getBody(t, ts.URL+"/metrics?format=prometheus")
		return validatePromExposition(t, body)[`eventdetect_stage_duration_seconds_count{tenant="reads",stage="http_query"}`]
	}
	for _, path := range []string{
		"/v1/reads/events?k=5",
		"/v1/reads/events/" + strconv.FormatUint(events.Events[0].ID, 10),
		"/v1/reads/related",
	} {
		before := httpQueryCount()
		if code, body := getBody(t, ts.URL+path); code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		if got := httpQueryCount(); got != before+1 {
			t.Errorf("GET %s moved the http_query count %v → %v, want +1", path, before, got)
		}
	}
}

// TestTelemetryEnumeratesPublishedTenants: /debug/requests and the stage
// histograms list exactly the tenants the pool has published — no
// registry beside it that could hold more — in name order, and ?tenant=
// narrows both to one.
func TestTelemetryEnumeratesPublishedTenants(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: testDetectConfig(), MaxTenants: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	for _, name := range []string{"mid", "zed", "abe"} {
		resp := postJSON(t, ts.URL+"/v1/"+name+"/messages", quantumOf(0, "hello world"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s status = %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A tenant the pool refuses (limit reached) and one it never heard of
	// leave no telemetry behind.
	resp := postJSON(t, ts.URL+"/v1/extra/messages", quantumOf(0, "hello world"))
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("ingest past the tenant limit = %d, want 507", resp.StatusCode)
	}
	resp.Body.Close()

	traced := func(query string) []string {
		code, body := getBody(t, ts.URL+"/debug/requests"+query)
		if code != http.StatusOK {
			t.Fatalf("debug/requests%s = %d", query, code)
		}
		var out struct {
			Traces []traceJSON `json:"traces"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, tr := range out.Traces {
			seen[tr.Tenant] = true
		}
		names := []string{}
		for name := range seen {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	stageRE := regexp.MustCompile(`(?m)^eventdetect_stage_duration_seconds_count\{tenant="([^"]+)",stage="http_ingest"\}`)
	histogrammed := func(query string) []string {
		code, body := getBody(t, ts.URL+"/metrics?format=prometheus"+query)
		if code != http.StatusOK {
			t.Fatalf("exposition%s = %d", query, code)
		}
		validatePromExposition(t, body)
		names := []string{} // in exposition order
		for _, m := range stageRE.FindAllStringSubmatch(body, -1) {
			names = append(names, m[1])
		}
		return names
	}
	all, one := []string{"abe", "mid", "zed"}, []string{"mid"}
	if got := traced(""); !reflect.DeepEqual(got, all) {
		t.Errorf("/debug/requests tenants = %v, want %v", got, all)
	}
	if got := histogrammed(""); !reflect.DeepEqual(got, all) {
		t.Errorf("stage histogram tenants = %v, want %v in that order", got, all)
	}
	if got := traced("?tenant=mid"); !reflect.DeepEqual(got, one) {
		t.Errorf("/debug/requests?tenant=mid tenants = %v, want %v", got, one)
	}
	if got := histogrammed("&tenant=mid"); !reflect.DeepEqual(got, one) {
		t.Errorf("stage histogram tenants with ?tenant=mid = %v, want %v", got, one)
	}
	if got := traced("?tenant=extra"); len(got) != 0 {
		t.Errorf("/debug/requests?tenant=extra tenants = %v, want none", got)
	}
}
