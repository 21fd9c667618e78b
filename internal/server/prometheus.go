package server

import (
	"bufio"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// promContentType is the Prometheus text exposition format version the
// endpoint speaks.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promMetric describes one per-tenant series family: its exposition
// name, TYPE, HELP line and the projection from the JSON metrics shape.
// The Prometheus surface is derived from TenantMetrics so the two
// endpoints can never drift apart: every counter the JSON body carries
// has exactly one row here (enforced by a test).
type promMetric struct {
	name  string
	typ   string // "gauge" or "counter"
	help  string
	value func(m *TenantMetrics) float64
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promTenantMetrics is the per-tenant series table, in exposition order.
var promTenantMetrics = []promMetric{
	{"eventdetect_messages_total", "counter", "Messages ingested over the tenant's lifetime.",
		func(m *TenantMetrics) float64 { return float64(m.Messages) }},
	{"eventdetect_quanta", "gauge", "Index of the last processed quantum.",
		func(m *TenantMetrics) float64 { return float64(m.Quanta) }},
	{"eventdetect_queue_depth_batches", "gauge", "Ingest batches accepted but not yet applied.",
		func(m *TenantMetrics) float64 { return float64(m.QueueDepth) }},
	{"eventdetect_queue_capacity_batches", "gauge", "Ingest queue bound in batches.",
		func(m *TenantMetrics) float64 { return float64(m.QueueCap) }},
	{"eventdetect_queued_messages", "gauge", "Ingest backlog in messages.",
		func(m *TenantMetrics) float64 { return float64(m.QueuedMessages) }},
	{"eventdetect_live_events", "gauge", "Currently live detected events.",
		func(m *TenantMetrics) float64 { return float64(m.LiveEvents) }},
	{"eventdetect_events", "gauge", "Retained event lifecycles (live + finished).",
		func(m *TenantMetrics) float64 { return float64(m.TotalEvents) }},
	{"eventdetect_akg_nodes", "gauge", "Active keyword graph nodes.",
		func(m *TenantMetrics) float64 { return float64(m.AKGNodes) }},
	{"eventdetect_akg_edges", "gauge", "Active keyword graph edges.",
		func(m *TenantMetrics) float64 { return float64(m.AKGEdges) }},
	{"eventdetect_process_seconds_total", "counter", "Cumulative detector processing time this process.",
		func(m *TenantMetrics) float64 { return m.ProcessMillis / 1000 }},
	{"eventdetect_msgs_per_sec", "gauge", "Pipeline rate: messages per detector-second this process.",
		func(m *TenantMetrics) float64 { return m.MsgsPerSec }},
	{"eventdetect_wal_enabled", "gauge", "1 when the write-ahead log backs this tenant.",
		func(m *TenantMetrics) float64 { return b2f(m.WALEnabled) }},
	{"eventdetect_archive_enabled", "gauge", "1 when the evicted-event archive backs this tenant.",
		func(m *TenantMetrics) float64 { return b2f(m.ArchiveEnabled) }},
	{"eventdetect_admission_enabled", "gauge", "1 when admission control guards this tenant.",
		func(m *TenantMetrics) float64 { return b2f(m.AdmissionEnabled) }},
	{"eventdetect_wal_segments", "gauge", "On-disk WAL segment files.",
		func(m *TenantMetrics) float64 { return float64(m.WALSegments) }},
	{"eventdetect_wal_last_seq", "gauge", "Newest appended WAL record sequence.",
		func(m *TenantMetrics) float64 { return float64(m.WALLastSeq) }},
	{"eventdetect_wal_snapshot_seq", "gauge", "WAL sequence of the newest snapshot.",
		func(m *TenantMetrics) float64 { return float64(m.WALSnapshotSeq) }},
	{"eventdetect_snapshot_age_quanta", "gauge", "Quanta processed since the newest WAL snapshot.",
		func(m *TenantMetrics) float64 { return float64(m.SnapshotAgeQuanta) }},
	{"eventdetect_wal_errors_total", "counter", "Failed WAL snapshot/compaction passes.",
		func(m *TenantMetrics) float64 { return float64(m.WALErrors) }},
	{"eventdetect_archive_segments", "gauge", "Archive segments: sealed files plus the in-memory buffer when it holds records.",
		func(m *TenantMetrics) float64 { return float64(m.ArchiveSegments) }},
	{"eventdetect_archive_events", "gauge", "Events held by the archive.",
		func(m *TenantMetrics) float64 { return float64(m.ArchiveEvents) }},
	{"eventdetect_archive_errors_total", "counter", "Failed archive seals; no record is lost (the records stay buffered for the next attempt).",
		func(m *TenantMetrics) float64 { return float64(m.ArchiveErrors) }},
	{"eventdetect_archive_gaps_total", "counter", "Archive ordinal holes skipped (records lost to a crash).",
		func(m *TenantMetrics) float64 { return float64(m.ArchiveGaps) }},
	{"eventdetect_archive_columnar_segments", "gauge", "Columnar archive segments sealed on disk.",
		func(m *TenantMetrics) float64 { return float64(m.ArchiveColumnarSegments) }},
	{"eventdetect_accepted_batches_total", "counter", "Batches (and flush markers) admitted to the queue.",
		func(m *TenantMetrics) float64 { return float64(m.AcceptedBatches) }},
	{"eventdetect_shed_rate_limit_total", "counter", "Batches shed by the token bucket.",
		func(m *TenantMetrics) float64 { return float64(m.ShedRateLimit) }},
	{"eventdetect_shed_queue_depth_total", "counter", "Batches shed by the queue-depth admission gate.",
		func(m *TenantMetrics) float64 { return float64(m.ShedQueueDepth) }},
	{"eventdetect_shed_messages_total", "counter", "Messages across all shed batches.",
		func(m *TenantMetrics) float64 { return float64(m.ShedMessages) }},
	{"eventdetect_degraded", "gauge", "1 while the tenant is in read-only storage-degraded mode.",
		func(m *TenantMetrics) float64 { return b2f(m.Degraded) }},
	{"eventdetect_wal_reopens_total", "counter", "Supervised reopens of a fail-stopped WAL.",
		func(m *TenantMetrics) float64 { return float64(m.WALReopens) }},
	{"eventdetect_quarantined_segments", "gauge", "Archive segments quarantined for structural corruption.",
		func(m *TenantMetrics) float64 { return float64(m.QuarantinedSegments) }},
	{"eventdetect_snapshot_views_reused_total", "counter", "Live-event views published for clean clusters (shared with the previous epoch).",
		func(m *TenantMetrics) float64 { return float64(m.SnapshotViewsReused) }},
	{"eventdetect_snapshot_views_rebuilt_total", "counter", "Live-event views published for new or dirty clusters.",
		func(m *TenantMetrics) float64 { return float64(m.SnapshotViewsRebuilt) }},
	{"eventdetect_related_builds_total", "counter", "Epochs whose related-pair list a reader demanded.",
		func(m *TenantMetrics) float64 { return float64(m.RelatedBuilds) }},
	{"eventdetect_ingest_decode_fast_total", "counter", "Accepted ingest bodies decoded by the reflection-free scanner.",
		func(m *TenantMetrics) float64 { return float64(m.IngestDecodeFast) }},
	{"eventdetect_ingest_decode_fallback_total", "counter", "Accepted ingest bodies decoded by encoding/json.",
		func(m *TenantMetrics) float64 { return float64(m.IngestDecodeFallback) }},
	{"eventdetect_http_encode_total", "counter", "Response bodies served by the typed writer (the http_encode stage's count).",
		func(m *TenantMetrics) float64 { return float64(m.HTTPEncodeBodies) }},
	{"eventdetect_http_encode_seconds_total", "counter", "Time spent encoding and writing those bodies (the http_encode stage's sum).",
		func(m *TenantMetrics) float64 { return m.HTTPEncodeSeconds }},
	{"eventdetect_akg_pairs_screened_total", "counter", "Candidate pairs of bursty keywords examined for a new edge.",
		func(m *TenantMetrics) float64 { return float64(m.AKGPairsScreened) }},
	{"eventdetect_akg_pairs_passed_total", "counter", "Candidate pairs that passed the Min-Hash screen.",
		func(m *TenantMetrics) float64 { return float64(m.AKGPairsPassed) }},
	{"eventdetect_akg_sketch_rebuilds_total", "counter", "Min-Hash sketches recomputed from the keyword's whole user set.",
		func(m *TenantMetrics) float64 { return float64(m.AKGSketchRebuilds) }},
	{"eventdetect_akg_sketch_updates_total", "counter", "User-set changes a current Min-Hash sketch absorbed without a rebuild.",
		func(m *TenantMetrics) float64 { return float64(m.AKGSketchUpdates) }},
	{"eventdetect_akg_jaccard_bails_total", "counter", "Exact correlations settled without a full merge (size-ratio rejections and early exits).",
		func(m *TenantMetrics) float64 { return float64(m.AKGJaccardBails) }},
	{"eventdetect_akg_dirty_nodes", "gauge", "Keywords whose windowed user support changed in the last quantum.",
		func(m *TenantMetrics) float64 { return float64(m.AKGDirtyNodes) }},
	{"eventdetect_akg_window_user_entries", "gauge", "(keyword, distinct user) pairs held by the window's id sets.",
		func(m *TenantMetrics) float64 { return float64(m.AKGWindowUserEntries) }},
	{"eventdetect_interner_words", "gauge", "Keywords the tenant has interned (its vocabulary; never shrinks).",
		func(m *TenantMetrics) float64 { return float64(m.InternerWords) }},
	{"eventdetect_interner_first_sight_total", "counter", "Keywords interned live by this process (vocabulary churn).",
		func(m *TenantMetrics) float64 { return float64(m.InternerFirstSight) }},
}

// promPoolMetrics is the pool-totals series table.
var promPoolMetrics = []struct {
	name  string
	typ   string
	help  string
	value func(t *MetricsTotals) float64
}{
	{"eventdetect_pool_tenants", "gauge", "Tenants in the pool.",
		func(t *MetricsTotals) float64 { return float64(t.Tenants) }},
	{"eventdetect_pool_messages_total", "counter", "Messages ingested across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.Messages) }},
	{"eventdetect_pool_quanta", "gauge", "Sum of per-tenant quantum indexes.",
		func(t *MetricsTotals) float64 { return float64(t.Quanta) }},
	{"eventdetect_pool_queued_messages", "gauge", "Ingest backlog in messages across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.QueuedMessages) }},
	{"eventdetect_pool_wal_segments", "gauge", "WAL segment files across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.WALSegments) }},
	{"eventdetect_pool_archive_segments", "gauge", "Archive segment files across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.ArchiveSegments) }},
	{"eventdetect_pool_archive_events", "gauge", "Archived events across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.ArchiveEvents) }},
	{"eventdetect_pool_shed_batches_total", "counter", "Batches shed across all tenants and gates.",
		func(t *MetricsTotals) float64 { return float64(t.ShedBatches) }},
	{"eventdetect_pool_shed_messages_total", "counter", "Messages shed across all tenants.",
		func(t *MetricsTotals) float64 { return float64(t.ShedMessages) }},
	{"eventdetect_pool_degraded_tenants", "gauge", "Tenants currently in read-only storage-degraded mode.",
		func(t *MetricsTotals) float64 { return float64(t.DegradedTenants) }},
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// promFloat formats a sample value. Prometheus accepts Go's shortest
// round-trip representation; NaN/Inf spell out per the format.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePrometheus renders the full exposition for the given tenants
// (every one, or the ?tenant= filter's): every JSON counter with tenant
// labels, the pool totals, the per-tenant stage-latency histograms, and
// Go runtime health.
func writePrometheus(w http.ResponseWriter, tenants []*Tenant) {
	pm := metricsOf(tenants)
	w.Header().Set("Content-Type", promContentType)
	bw := bufio.NewWriterSize(w, 32<<10)
	defer bw.Flush() //nolint:errcheck // client gone; nothing to do

	for i := range promTenantMetrics {
		pmx := &promTenantMetrics[i]
		writeHelpType(bw, pmx.name, pmx.typ, pmx.help)
		for j := range pm.Tenants {
			m := &pm.Tenants[j]
			bw.WriteString(pmx.name)
			bw.WriteString(`{tenant="`)
			bw.WriteString(promEscape(m.Tenant))
			bw.WriteString(`"} `)
			bw.WriteString(promFloat(pmx.value(m)))
			bw.WriteByte('\n')
		}
	}
	for _, pmx := range promPoolMetrics {
		writeHelpType(bw, pmx.name, pmx.typ, pmx.help)
		bw.WriteString(pmx.name)
		bw.WriteByte(' ')
		bw.WriteString(promFloat(pmx.value(&pm.Totals)))
		bw.WriteByte('\n')
	}
	writeStageHistograms(bw, tenants)
	writeRuntimeMetrics(bw)
}

func writeHelpType(bw *bufio.Writer, name, typ, help string) {
	bw.WriteString("# HELP ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(help)
	bw.WriteString("\n# TYPE ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

// writeStageHistograms renders eventdetect_stage_duration_seconds: one
// native Prometheus histogram per (tenant, stage) with observations,
// with le bounds in seconds at the obs package's power-of-two
// resolution. Zero-delta buckets are skipped (cumulative counts carry
// forward), which keeps the exposition a few hundred lines instead of
// 64 × stages × tenants.
func writeStageHistograms(bw *bufio.Writer, tenants []*Tenant) {
	const name = "eventdetect_stage_duration_seconds"
	wroteHeader := false
	for _, t := range tenants {
		for _, st := range obs.Stages() {
			snap := t.obs.Snapshot(st)
			if snap.Count == 0 {
				continue
			}
			if !wroteHeader {
				writeHelpType(bw, name, "histogram", "Stage latency by pipeline stage (log2 buckets).")
				wroteHeader = true
			}
			labels := `{tenant="` + promEscape(t.name) + `",stage="` + st.String() + `"`
			// total is derived from the bucket counts (not snap.Count)
			// so the cumulative buckets, +Inf and _count agree exactly
			// even when concurrent observes tear the snapshot slightly.
			var cum, total uint64
			for _, c := range snap.Buckets {
				total += c
			}
			for i, c := range snap.Buckets {
				// Zero-delta buckets are skipped; the top bucket is
				// covered by the explicit +Inf sample below.
				if c == 0 || i >= obs.NumBuckets-1 {
					continue
				}
				cum += c
				bw.WriteString(name)
				bw.WriteString("_bucket")
				bw.WriteString(labels)
				bw.WriteString(`,le="`)
				bw.WriteString(promFloat(float64(obs.BucketUpper(i)) / 1e9))
				bw.WriteString(`"} `)
				bw.WriteString(strconv.FormatUint(cum, 10))
				bw.WriteByte('\n')
			}
			bw.WriteString(name)
			bw.WriteString("_bucket")
			bw.WriteString(labels)
			bw.WriteString(`,le="+Inf"} `)
			bw.WriteString(strconv.FormatUint(total, 10))
			bw.WriteByte('\n')
			bw.WriteString(name)
			bw.WriteString("_sum")
			bw.WriteString(labels)
			bw.WriteString("} ")
			bw.WriteString(promFloat(float64(snap.SumNs) / 1e9))
			bw.WriteByte('\n')
			bw.WriteString(name)
			bw.WriteString("_count")
			bw.WriteString(labels)
			bw.WriteString("} ")
			bw.WriteString(strconv.FormatUint(total, 10))
			bw.WriteByte('\n')
		}
	}
}

// writeRuntimeMetrics renders process health: goroutines, heap, and GC
// work, under the conventional go_* names.
func writeRuntimeMetrics(bw *bufio.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	simple := []struct {
		name, typ, help string
		value           float64
	}{
		{"go_goroutines", "gauge", "Live goroutines.", float64(runtime.NumGoroutine())},
		{"go_memstats_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", float64(ms.HeapAlloc)},
		{"go_memstats_heap_objects", "gauge", "Allocated heap objects.", float64(ms.HeapObjects)},
		{"go_memstats_alloc_bytes_total", "counter", "Cumulative bytes allocated.", float64(ms.TotalAlloc)},
		{"go_gc_cycles_total", "counter", "Completed GC cycles.", float64(ms.NumGC)},
		{"go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause.", float64(ms.PauseTotalNs) / 1e9},
	}
	for _, s := range simple {
		writeHelpType(bw, s.name, s.typ, s.help)
		bw.WriteString(s.name)
		bw.WriteByte(' ')
		bw.WriteString(promFloat(s.value))
		bw.WriteByte('\n')
	}
}
