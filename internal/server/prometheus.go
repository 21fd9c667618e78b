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

// tenantView is one tenant as one scrape sees it: the tenant, one Stats
// read (so every row derived from the epoch snapshot comes from the same
// epoch) and one http_encode histogram snapshot (so the encode count and
// sum agree).
type tenantView struct {
	t   *Tenant
	st  TenantStats
	enc obs.HistSnap
}

// promMetric is one per-tenant series family — the only declaration of
// a tenant counter: its exposition name, TYPE, HELP line and reader.
type promMetric struct {
	name  string
	typ   string // "gauge" or "counter"
	help  string
	value func(v *tenantView) float64
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func one(*tenantView) float64 { return 1 }

// promTenantMetrics is the per-tenant series table, in exposition order.
var promTenantMetrics = []promMetric{
	{"eventdetect_messages_total", "counter", "Messages ingested over the tenant's lifetime.",
		func(v *tenantView) float64 { return float64(v.st.Messages) }},
	{"eventdetect_quanta", "gauge", "Index of the last processed quantum.",
		func(v *tenantView) float64 { return float64(v.st.Quanta) }},
	{"eventdetect_queue_depth_batches", "gauge", "Ingest batches accepted but not yet applied.",
		func(v *tenantView) float64 { return float64(v.st.QueueDepth) }},
	{"eventdetect_queue_capacity_batches", "gauge", "Ingest queue bound in batches.",
		func(v *tenantView) float64 { return float64(v.st.QueueCap) }},
	{"eventdetect_queued_messages", "gauge", "Ingest backlog in messages.",
		func(v *tenantView) float64 { return float64(v.st.QueuedMessages) }},
	{"eventdetect_live_events", "gauge", "Currently live detected events.",
		func(v *tenantView) float64 { return float64(v.st.LiveEvents) }},
	{"eventdetect_events", "gauge", "Retained event lifecycles (live + finished).",
		func(v *tenantView) float64 { return float64(v.st.TotalEvents) }},
	{"eventdetect_akg_nodes", "gauge", "Active keyword graph nodes.",
		func(v *tenantView) float64 { return float64(v.st.AKGNodes) }},
	{"eventdetect_akg_edges", "gauge", "Active keyword graph edges.",
		func(v *tenantView) float64 { return float64(v.st.AKGEdges) }},
	{"eventdetect_process_seconds_total", "counter", "Cumulative detector processing time this process.",
		func(v *tenantView) float64 { return v.st.ProcessMillis / 1000 }},
	{"eventdetect_msgs_per_sec", "gauge", "Pipeline rate: messages per detector-second this process.",
		func(v *tenantView) float64 { return v.st.MsgsPerSec }},
	{"eventdetect_wal_enabled", "gauge", "1 when the write-ahead log backs this tenant.",
		withWAL(one)},
	{"eventdetect_archive_enabled", "gauge", "1 when the evicted-event archive backs this tenant.",
		withArchive(one)},
	{"eventdetect_admission_enabled", "gauge", "1 when admission control guards this tenant.",
		func(v *tenantView) float64 { return b2f(v.t.admit != nil) }},
	{"eventdetect_wal_segments", "gauge", "On-disk WAL segment files.",
		withWAL(func(v *tenantView) float64 { return float64(v.t.storage.wal.SegmentCount()) })},
	{"eventdetect_wal_last_seq", "gauge", "Newest appended WAL record sequence.",
		withWAL(func(v *tenantView) float64 { return float64(v.t.storage.wal.LastSeq()) })},
	{"eventdetect_wal_snapshot_seq", "gauge", "WAL sequence of the newest snapshot.",
		withWAL(func(v *tenantView) float64 { return float64(v.t.storage.wal.SnapshotSeq()) })},
	// Clamped at zero: after recovery the snapshot can be ahead of the
	// published epoch (lastSnapQuantum seeds from the snapshotted quantum
	// while Quanta starts from the replayed snapshot).
	{"eventdetect_snapshot_age_quanta", "gauge", "Quanta processed since the newest WAL snapshot.",
		withWAL(func(v *tenantView) float64 { return float64(max(0, v.st.Quanta-int(v.t.lastSnapQuantum.Load()))) })},
	{"eventdetect_wal_errors_total", "counter", "Failed WAL snapshot/compaction passes.",
		withWAL(func(v *tenantView) float64 { return float64(v.t.storage.walErrs.Load()) })},
	{"eventdetect_archive_segments", "gauge", "Archive segments: sealed files plus the in-memory buffer when it holds records.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.SegmentCount()) })},
	{"eventdetect_archive_events", "gauge", "Events held by the archive.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.EventCount()) })},
	{"eventdetect_archive_errors_total", "counter", "Failed archive seals; no record is lost (the records stay buffered for the next attempt).",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.archErrs.Load()) })},
	{"eventdetect_archive_gaps_total", "counter", "Archive ordinal holes skipped (records lost to a crash).",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.Gaps()) })},
	{"eventdetect_archive_columnar_segments", "gauge", "Columnar archive segments sealed on disk.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.ColumnarSegmentCount()) })},
	{"eventdetect_archive_block_cache_hits_total", "counter", "Sealed archive blocks queries found in the block cache.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.BlockCacheStats().Hits) })},
	{"eventdetect_archive_block_cache_misses_total", "counter", "Sealed archive blocks read, verified and decoded from disk into the block cache.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.BlockCacheStats().Misses) })},
	{"eventdetect_archive_block_cache_evictions_total", "counter", "Cached archive blocks the block cache's byte budget pushed out.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.BlockCacheStats().Evictions) })},
	{"eventdetect_archive_block_cache_resident_bytes", "gauge", "Bytes the tenant's cached archive blocks hold: columns, dictionary and rendered rows.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.BlockCacheStats().ResidentBytes) })},
	{"eventdetect_accepted_batches_total", "counter", "Batches (and flush markers) admitted to the queue.",
		func(v *tenantView) float64 { return float64(v.t.accepted.Load()) }},
	{"eventdetect_shed_rate_limit_total", "counter", "Batches shed by the token bucket.",
		func(v *tenantView) float64 { return float64(v.t.shedRateLimit.Load()) }},
	{"eventdetect_shed_queue_depth_total", "counter", "Batches shed by the queue-depth admission gate.",
		func(v *tenantView) float64 { return float64(v.t.shedQueue.Load()) }},
	{"eventdetect_shed_messages_total", "counter", "Messages across all shed batches.",
		func(v *tenantView) float64 { return float64(v.t.shedMsgs.Load()) }},
	{"eventdetect_degraded", "gauge", "1 while the tenant is in read-only storage-degraded mode.",
		func(v *tenantView) float64 { return b2f(v.t.health.degraded.Load() != nil) }},
	{"eventdetect_wal_reopens_total", "counter", "Supervised reopens of a fail-stopped WAL.",
		func(v *tenantView) float64 { return float64(v.t.health.walReopens.Load()) }},
	{"eventdetect_quarantined_segments", "gauge", "Archive segments quarantined for structural corruption.",
		withArchive(func(v *tenantView) float64 { return float64(v.t.storage.arch.QuarantinedSegments()) })},
	{"eventdetect_snapshot_views_reused_total", "counter", "Live-event views published for clean clusters (shared with the previous epoch).",
		func(v *tenantView) float64 { n, _, _ := v.t.det.SnapshotCounters(); return float64(n) }},
	{"eventdetect_snapshot_views_rebuilt_total", "counter", "Live-event views published for new or dirty clusters.",
		func(v *tenantView) float64 { _, n, _ := v.t.det.SnapshotCounters(); return float64(n) }},
	{"eventdetect_related_builds_total", "counter", "Epochs whose related-pair list a reader demanded.",
		func(v *tenantView) float64 { _, _, n := v.t.det.SnapshotCounters(); return float64(n) }},
	{"eventdetect_ingest_decode_fast_total", "counter", "Accepted ingest bodies decoded by the reflection-free scanner.",
		func(v *tenantView) float64 { return float64(v.t.decodeFast.Load()) }},
	{"eventdetect_ingest_decode_fallback_total", "counter", "Accepted ingest bodies decoded by encoding/json.",
		func(v *tenantView) float64 { return float64(v.t.decodeFallback.Load()) }},
	{"eventdetect_http_encode_total", "counter", "Response bodies served by the typed writer (the http_encode stage's count).",
		func(v *tenantView) float64 { return float64(v.enc.Count) }},
	{"eventdetect_http_encode_seconds_total", "counter", "Time spent encoding and writing those bodies (the http_encode stage's sum).",
		func(v *tenantView) float64 { return float64(v.enc.SumNs) / 1e9 }},
	{"eventdetect_akg_pairs_screened_total", "counter", "Candidate pairs of bursty keywords examined for a new edge.",
		func(v *tenantView) float64 { return float64(v.t.akg.pairsScreened.Load()) }},
	{"eventdetect_akg_pairs_passed_total", "counter", "Candidate pairs that passed the Min-Hash screen.",
		func(v *tenantView) float64 { return float64(v.t.akg.pairsPassed.Load()) }},
	{"eventdetect_akg_sketch_rebuilds_total", "counter", "Min-Hash sketches recomputed from the keyword's whole user set.",
		func(v *tenantView) float64 { return float64(v.t.akg.sketchRebuilds.Load()) }},
	{"eventdetect_akg_sketch_updates_total", "counter", "User-set changes a current Min-Hash sketch absorbed without a rebuild.",
		func(v *tenantView) float64 { return float64(v.t.akg.sketchUpdates.Load()) }},
	{"eventdetect_akg_jaccard_bails_total", "counter", "Exact correlations settled without a full merge (size-ratio rejections and early exits).",
		func(v *tenantView) float64 { return float64(v.t.akg.jaccardBails.Load()) }},
	{"eventdetect_akg_dirty_nodes", "gauge", "Tracked keywords whose windowed user support changed in the last quantum.",
		func(v *tenantView) float64 { return float64(v.t.akg.dirtyNodes.Load()) }},
	{"eventdetect_akg_window_user_entries", "gauge", "(keyword, distinct user) pairs held by the tracked keywords' id sets.",
		func(v *tenantView) float64 { return float64(v.t.akg.windowEntries.Load()) }},
	{"eventdetect_akg_tracked_keywords", "gauge", "Keywords holding an id set and a sketch (those that turned bursty and are still in the window).",
		func(v *tenantView) float64 { return float64(v.t.akg.tracked.Load()) }},
	{"eventdetect_akg_tracks_total", "counter", "Keywords whose id set was built from the window ring on turning bursty.",
		func(v *tenantView) float64 { return float64(v.t.akg.tracks.Load()) }},
	{"eventdetect_interner_words", "gauge", "Keywords the tenant has interned (its vocabulary; never shrinks).",
		func(v *tenantView) float64 { return float64(v.t.words.Load()) }},
	{"eventdetect_interner_bytes", "gauge", "Bytes the tenant's interner holds, counted by capacity (word arena, offsets, lookup tables).",
		func(v *tenantView) float64 { return float64(v.t.internerBytes.Load()) }},
	{"eventdetect_interner_first_sight_total", "counter", "Keywords interned live by this process (vocabulary churn).",
		func(v *tenantView) float64 { return float64(v.t.firstSight.Load()) }},
}

// promPoolMetrics is the pool-totals series table. Each row sums the
// named tenant families over the samples the same scrape wrote; a row
// naming none counts the tenants.
var promPoolMetrics = []struct {
	name string
	typ  string
	help string
	sums []string
}{
	{"eventdetect_pool_tenants", "gauge", "Tenants in the pool.", nil},
	{"eventdetect_pool_messages_total", "counter", "Messages ingested across all tenants.",
		[]string{"eventdetect_messages_total"}},
	{"eventdetect_pool_quanta", "gauge", "Sum of per-tenant quantum indexes.",
		[]string{"eventdetect_quanta"}},
	{"eventdetect_pool_queued_messages", "gauge", "Ingest backlog in messages across all tenants.",
		[]string{"eventdetect_queued_messages"}},
	{"eventdetect_pool_wal_segments", "gauge", "WAL segment files across all tenants.",
		[]string{"eventdetect_wal_segments"}},
	{"eventdetect_pool_archive_segments", "gauge", "Archive segments across all tenants: sealed files plus each non-empty in-memory buffer.",
		[]string{"eventdetect_archive_segments"}},
	{"eventdetect_pool_archive_events", "gauge", "Archived events across all tenants.",
		[]string{"eventdetect_archive_events"}},
	{"eventdetect_pool_archive_block_cache_hits_total", "counter", "Block-cache hits across all tenants.",
		[]string{"eventdetect_archive_block_cache_hits_total"}},
	{"eventdetect_pool_archive_block_cache_misses_total", "counter", "Block-cache misses across all tenants.",
		[]string{"eventdetect_archive_block_cache_misses_total"}},
	{"eventdetect_pool_archive_block_cache_evictions_total", "counter", "Block-cache evictions across all tenants.",
		[]string{"eventdetect_archive_block_cache_evictions_total"}},
	{"eventdetect_pool_archive_block_cache_resident_bytes", "gauge", "Bytes the block cache holds for all tenants (the cache's budget is shared by the process).",
		[]string{"eventdetect_archive_block_cache_resident_bytes"}},
	{"eventdetect_pool_shed_batches_total", "counter", "Batches shed across all tenants and gates.",
		[]string{"eventdetect_shed_rate_limit_total", "eventdetect_shed_queue_depth_total"}},
	{"eventdetect_pool_shed_messages_total", "counter", "Messages shed across all tenants.",
		[]string{"eventdetect_shed_messages_total"}},
	{"eventdetect_pool_degraded_tenants", "gauge", "Tenants currently in read-only storage-degraded mode.",
		[]string{"eventdetect_degraded"}},
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
// (every one, or the ?tenant= filter's): the per-tenant families with
// tenant labels, the pool totals, the per-tenant stage-latency
// histograms, and Go runtime health.
func writePrometheus(w http.ResponseWriter, tenants []*Tenant) {
	views := make([]tenantView, len(tenants))
	for i, t := range tenants {
		views[i] = tenantView{t: t, st: t.Stats(), enc: t.obs.Snapshot(obs.StageHTTPEncode)}
	}
	w.Header().Set("Content-Type", promContentType)
	bw := bufio.NewWriterSize(w, 32<<10)
	defer bw.Flush() //nolint:errcheck // client gone; nothing to do

	totals := make(map[string]float64, len(promTenantMetrics))
	for i := range promTenantMetrics {
		pmx := &promTenantMetrics[i]
		writeHelpType(bw, pmx.name, pmx.typ, pmx.help)
		for j := range views {
			val := pmx.value(&views[j])
			totals[pmx.name] += val
			bw.WriteString(pmx.name)
			bw.WriteString(`{tenant="`)
			bw.WriteString(promEscape(views[j].t.name))
			bw.WriteString(`"} `)
			bw.WriteString(promFloat(val))
			bw.WriteByte('\n')
		}
	}
	for _, pmx := range promPoolMetrics {
		val := float64(len(views))
		if pmx.sums != nil {
			val = 0
			for _, name := range pmx.sums {
				val += totals[name]
			}
		}
		writeHelpType(bw, pmx.name, pmx.typ, pmx.help)
		bw.WriteString(pmx.name)
		bw.WriteByte(' ')
		bw.WriteString(promFloat(val))
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
		{"go_memstats_mallocs_total", "counter", "Cumulative heap objects allocated.", float64(ms.Mallocs)},
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
