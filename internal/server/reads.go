package server

import (
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/query"
)

// This file is the tenant's read side: every accessor resolves against
// the latest published epoch snapshot (plus the archive, for Query) and
// takes no lock shared with ingest.

// TenantStats is the monitoring snapshot of one tenant.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Messages is the number of messages ingested over the tenant's
	// lifetime (it survives restarts).
	Messages uint64 `json:"messages"`
	// Quanta is the index of the last processed quantum.
	Quanta int `json:"quanta"`
	// QueueDepth and QueueCap measure quantum lag: batches accepted but
	// not yet applied to the graph; QueuedMessages is the same backlog
	// in messages.
	QueueDepth     int   `json:"queue_depth"`
	QueueCap       int   `json:"queue_cap"`
	QueuedMessages int64 `json:"queued_messages"`
	// LiveEvents / TotalEvents count currently retained event
	// lifecycles; with RetainEvents set, TotalEvents is not monotonic
	// (trimmed finished events leave the count).
	LiveEvents  int `json:"live_events"`
	TotalEvents int `json:"total_events"`
	// AKGNodes / AKGEdges give the active graph size.
	AKGNodes int `json:"akg_nodes"`
	AKGEdges int `json:"akg_edges"`
	// ProcessMillis is the cumulative detector processing time this
	// process spent on the tenant; MsgsPerSec is Messages ingested this
	// process divided by that time — the pipeline rate of Section 7.2.
	ProcessMillis float64 `json:"process_millis"`
	MsgsPerSec    float64 `json:"msgs_per_sec"`
}

// Query runs one unified time-travel query across the tenant's live
// epoch snapshot and its on-disk archive (when enabled), merged in
// deterministic (LastQuantum, ID) order with LIMIT pushdown into both
// sources. Wait-free against ingest on the snapshot side; the archive
// side snapshots segment metadata under the archive's own lock and
// scans immutable files without it.
func (t *Tenant) Query(req query.Request) (query.Result, error) {
	req.Obs = t.obs
	t0 := time.Now()
	res, err := query.Run(t.snap.Load(), t.storage.archive(), req)
	t.obs.Observe(obs.StageQueryExec, time.Since(t0))
	return res, err
}

// Obs returns the tenant's telemetry handle.
func (t *Tenant) Obs() *obs.TenantObs { return t.obs }

// Snapshot returns the tenant's latest published epoch snapshot. Reads
// against it are wait-free; the contents are immutable. /events,
// /events?keyword= and /events/{id} are its AllEvents / TopK,
// TopKKeyword and Find, encoded as they stand.
func (t *Tenant) Snapshot() *detect.Snapshot { return t.snap.Load() }

// Related returns live event pairs whose user communities overlap by at
// least minOverlap (the paper's same-event correlation post-processing).
// The pairwise overlaps were computed when the epoch snapshot was
// published, so this is a wait-free filter. Never nil, so the API serves
// [] rather than null.
func (t *Tenant) Related(minOverlap float64) []detect.RelatedPair {
	return t.snap.Load().Related(minOverlap)
}

// Stats returns the tenant's monitoring snapshot, assembled from the
// epoch snapshot and atomic counters — no lock shared with ingest.
func (t *Tenant) Stats() TenantStats {
	snap := t.snap.Load()
	s := TenantStats{
		Tenant:         t.name,
		Messages:       t.msgs.Load(),
		LiveEvents:     snap.LiveCount(),
		TotalEvents:    snap.TotalCount(),
		AKGNodes:       snap.AKGNodes,
		AKGEdges:       snap.AKGEdges,
		QueueDepth:     t.queueLen(),
		QueuedMessages: t.queuedMsgs.Load(),
		QueueCap:       t.cfg.QueueDepth,
		Quanta:         snap.Quantum,
		ProcessMillis:  float64(t.elapsed.Load()) / float64(time.Millisecond),
	}
	if e := time.Duration(t.elapsed.Load()); e > 0 {
		s.MsgsPerSec = float64(t.since.Load()) / e.Seconds()
	}
	return s
}
