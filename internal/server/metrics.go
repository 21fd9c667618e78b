package server

import (
	"sync/atomic"

	"repro/internal/akg"
	"repro/internal/obs"
)

// TenantMetrics extends the monitoring snapshot with the durability
// layer's counters — the observability surface behind GET /metrics.
type TenantMetrics struct {
	TenantStats
	// WALEnabled/ArchiveEnabled say which durability subsystems back the
	// tenant, so a zero segment count is distinguishable from "off".
	WALEnabled     bool `json:"wal_enabled"`
	ArchiveEnabled bool `json:"archive_enabled"`
	// WALSegments is the on-disk segment file count (compaction keeps it
	// near 1 when snapshots keep pace with ingest). WALLastSeq /
	// WALSnapshotSeq are the newest appended record and the newest
	// snapshot position; their gap is the replay a crash would cost.
	WALSegments    int    `json:"wal_segments,omitempty"`
	WALLastSeq     uint64 `json:"wal_last_seq,omitempty"`
	WALSnapshotSeq uint64 `json:"wal_snapshot_seq,omitempty"`
	// SnapshotAgeQuanta is how many quanta the tenant has processed
	// since its newest snapshot (bounded by the SnapshotEvery cadence).
	SnapshotAgeQuanta int `json:"snapshot_age_quanta,omitempty"`
	// WALErrors counts failed snapshot/compaction passes.
	WALErrors uint64 `json:"wal_errors,omitempty"`
	// ArchiveSegments / ArchiveEvents size the evicted-event history;
	// ArchiveErrors counts failed syncs and seals, none of which loses a
	// record (the records stay buffered for the next attempt), and
	// ArchiveGaps ordinal holes skipped over (records lost to a crash
	// that replay could not regenerate).
	ArchiveSegments int    `json:"archive_segments,omitempty"`
	ArchiveEvents   int    `json:"archive_events,omitempty"`
	ArchiveErrors   uint64 `json:"archive_errors,omitempty"`
	ArchiveGaps     uint64 `json:"archive_gaps,omitempty"`
	// ArchiveColumnarSegments counts the columnar segments sealed on
	// disk (ArchiveSegments also counts the in-memory buffer while it
	// holds records).
	ArchiveColumnarSegments int `json:"archive_columnar_segments,omitempty"`

	// SLO / admission-control counters. AcceptedBatches counts batches
	// (and flush markers) admitted to the queue; ShedRateLimit and
	// ShedQueueDepth count batches turned away by the token bucket and
	// the queue-depth gate respectively (each rejected HTTP request bumps
	// exactly one), with ShedMessages the message total across both.
	// Always emitted — a dashboard must distinguish "zero sheds" from
	// "admission off" via AdmissionEnabled.
	AdmissionEnabled bool   `json:"admission_enabled"`
	AcceptedBatches  uint64 `json:"accepted_batches"`
	ShedRateLimit    uint64 `json:"shed_rate_limit"`
	ShedQueueDepth   uint64 `json:"shed_queue_depth"`
	ShedMessages     uint64 `json:"shed_messages"`

	// Storage-degradation surface. Degraded says whether ingest is
	// currently shed read-only (the reason is on /readyz); WALReopens is
	// the lifetime count of supervised reopens of a fail-stopped WAL;
	// QuarantinedSegments counts archive segments sidelined for
	// structural corruption.
	Degraded            bool   `json:"degraded"`
	WALReopens          uint64 `json:"wal_reopens,omitempty"`
	QuarantinedSegments uint64 `json:"quarantined_segments,omitempty"`

	// Write-path sharing counters — what shows that the per-quantum
	// serving cost follows what changed. SnapshotViewsReused /
	// SnapshotViewsRebuilt split the live-event views published so far
	// into clean clusters (everything but the header shared with the
	// previous epoch) and new or dirty ones; RelatedBuilds counts epochs
	// whose related-pair list a reader demanded (the rest never built
	// it); IngestDecodeFast / IngestDecodeFallback split accepted ingest
	// bodies by decoder (reflection-free scanner vs encoding/json).
	SnapshotViewsReused  uint64 `json:"snapshot_views_reused_total"`
	SnapshotViewsRebuilt uint64 `json:"snapshot_views_rebuilt_total"`
	RelatedBuilds        uint64 `json:"related_builds_total"`
	IngestDecodeFast     uint64 `json:"ingest_decode_fast_total"`
	IngestDecodeFallback uint64 `json:"ingest_decode_fallback_total"`

	// HTTPEncodeBodies / HTTPEncodeSeconds are the http_encode stage's
	// count and summed time: response bodies the typed writer served
	// (/query, /events, /related, the ingest ack) and what encoding them
	// and writing them to the connection took. /query's trace and its
	// http_query observation end before the body, so this is the part of
	// a query the other stages do not see.
	HTTPEncodeBodies  uint64  `json:"http_encode_total"`
	HTTPEncodeSeconds float64 `json:"http_encode_seconds_total"`

	// Graph-layer signals (akg.QuantumStats), summed over the quanta this
	// process applied: candidate pairs of bursty keywords examined and
	// how many passed the Min-Hash screen, sketches recomputed from the
	// keyword's whole user set and membership changes a current sketch
	// absorbed instead, and exact correlations settled without a full
	// merge (size-ratio rejections + early exits).
	// AKGDirtyNodes / AKGWindowUserEntries are the last quantum's
	// support-dirty vertex count and Σ|users| over the window's id sets.
	AKGPairsScreened     uint64 `json:"akg_pairs_screened_total"`
	AKGPairsPassed       uint64 `json:"akg_pairs_passed_total"`
	AKGSketchRebuilds    uint64 `json:"akg_sketch_rebuilds_total"`
	AKGSketchUpdates     uint64 `json:"akg_sketch_updates_total"`
	AKGJaccardBails      uint64 `json:"akg_jaccard_bails_total"`
	AKGDirtyNodes        int64  `json:"akg_dirty_nodes"`
	AKGWindowUserEntries int64  `json:"akg_window_user_entries"`

	// Vocabulary: InternerWords is the number of keywords the tenant has
	// ever interned (IDs are never reused, so it only grows — and the
	// ID-indexed tables of the detector grow with it);
	// InternerFirstSight counts the words this process interned live,
	// i.e. the vocabulary churn that takes ingest's slow path.
	InternerWords      int64  `json:"interner_words"`
	InternerFirstSight uint64 `json:"interner_first_sight_total"`
}

// akgCounters is the tenant-side accumulator behind the akg_* metrics:
// written by the apply step once per quantum, read by /metrics.
type akgCounters struct {
	pairsScreened, pairsPassed, sketchRebuilds, sketchUpdates, jaccardBails atomic.Uint64
	dirtyNodes, windowEntries                                               atomic.Int64
}

func (c *akgCounters) add(st *akg.QuantumStats) {
	c.pairsScreened.Add(uint64(st.PairsScreened))
	c.pairsPassed.Add(uint64(st.PairsPassed))
	c.sketchRebuilds.Add(uint64(st.SketchRebuilds))
	c.sketchUpdates.Add(uint64(st.SketchUpdates))
	c.jaccardBails.Add(uint64(st.JaccardBails))
	c.dirtyNodes.Store(int64(st.DirtyNodes))
	c.windowEntries.Store(int64(st.WindowEntries))
}

// MetricsTotals aggregates the per-tenant metrics for dashboards that
// only want one line per process.
type MetricsTotals struct {
	Tenants         int    `json:"tenants"`
	Messages        uint64 `json:"messages"`
	Quanta          int    `json:"quanta"`
	QueuedMessages  int64  `json:"queued_messages"`
	WALSegments     int    `json:"wal_segments"`
	ArchiveSegments int    `json:"archive_segments"`
	ArchiveEvents   int    `json:"archive_events"`
	ShedBatches     uint64 `json:"shed_batches"`
	ShedMessages    uint64 `json:"shed_messages"`
	// DegradedTenants counts tenants currently in read-only degraded
	// mode — the pool-level "is storage sick anywhere" alert line.
	DegradedTenants int `json:"degraded_tenants"`
}

// PoolMetrics is the GET /metrics response body.
type PoolMetrics struct {
	Tenants []TenantMetrics `json:"tenants"`
	Totals  MetricsTotals   `json:"totals"`
}

// Metrics returns the tenant's monitoring + durability snapshot.
func (t *Tenant) Metrics() TenantMetrics {
	m := TenantMetrics{TenantStats: t.Stats()}
	m.AdmissionEnabled = t.admit != nil
	m.AcceptedBatches = t.accepted.Load()
	m.ShedRateLimit = t.shedRateLimit.Load()
	m.ShedQueueDepth = t.shedQueue.Load()
	m.ShedMessages = t.shedMsgs.Load()
	m.SnapshotViewsReused, m.SnapshotViewsRebuilt, m.RelatedBuilds = t.det.SnapshotCounters()
	m.IngestDecodeFast = t.decodeFast.Load()
	m.IngestDecodeFallback = t.decodeFallback.Load()
	enc := t.obs.Snapshot(obs.StageHTTPEncode)
	m.HTTPEncodeBodies, m.HTTPEncodeSeconds = enc.Count, float64(enc.SumNs)/1e9
	m.AKGPairsScreened = t.akg.pairsScreened.Load()
	m.AKGPairsPassed = t.akg.pairsPassed.Load()
	m.AKGSketchRebuilds = t.akg.sketchRebuilds.Load()
	m.AKGSketchUpdates = t.akg.sketchUpdates.Load()
	m.AKGJaccardBails = t.akg.jaccardBails.Load()
	m.AKGDirtyNodes = t.akg.dirtyNodes.Load()
	m.AKGWindowUserEntries = t.akg.windowEntries.Load()
	m.InternerWords = t.words.Load()
	m.InternerFirstSight = t.firstSight.Load()
	t.storage.fillMetrics(&m)
	// Clamp at zero: after recovery the snapshot can be ahead of the
	// published epoch (lastSnapQuantum seeds from the snapshotted
	// quantum while Quanta starts from the replayed snapshot), and a
	// negative age would read as a uint underflow on dashboards.
	if age := m.Quanta - int(t.lastSnapQuantum.Load()); m.WALEnabled && age > 0 {
		m.SnapshotAgeQuanta = age
	}
	return m
}

// totalsOf folds per-tenant metrics into the one-line process summary.
func totalsOf(tenants []TenantMetrics) MetricsTotals {
	var tot MetricsTotals
	for i := range tenants {
		m := &tenants[i]
		tot.Tenants++
		tot.Messages += m.Messages
		tot.Quanta += m.Quanta
		tot.QueuedMessages += m.QueuedMessages
		tot.WALSegments += m.WALSegments
		tot.ArchiveSegments += m.ArchiveSegments
		tot.ArchiveEvents += m.ArchiveEvents
		tot.ShedBatches += m.ShedRateLimit + m.ShedQueueDepth
		tot.ShedMessages += m.ShedMessages
		if m.Degraded {
			tot.DegradedTenants++
		}
	}
	return tot
}

// metricsOf assembles the /metrics body for an explicit tenant set.
func metricsOf(tenants []*Tenant) PoolMetrics {
	out := PoolMetrics{Tenants: make([]TenantMetrics, 0, len(tenants))}
	for _, t := range tenants {
		out.Tenants = append(out.Tenants, t.Metrics())
	}
	out.Totals = totalsOf(out.Tenants)
	return out
}
