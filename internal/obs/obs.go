// Package obs is the serving pipeline's telemetry layer: lock-free
// log-bucketed latency histograms for every pipeline stage, and
// bounded slow-request trace rings, both designed so the ingest and
// query hot paths pay only a clock read and a handful of atomic adds —
// zero allocations, no locks.
//
// The package deliberately imports nothing from the rest of the repo,
// so any layer (server, wal, query) can observe into it
// without import cycles. Telemetry has no off switch; the two handles a
// caller may legitimately leave nil — a query run outside a tenant has
// no *TenantObs to Observe into and no *ReqTrace — are nil-receiver safe.
package obs

import "time"

// Stage identifies one instrumented pipeline stage. The values index
// a fixed per-tenant histogram array, so observing is an array load —
// no map, no lock.
type Stage uint8

const (
	// StageHTTPIngest is the ingest handler's wall time (decode +
	// admission + WAL + ack).
	StageHTTPIngest Stage = iota
	// StageHTTPQuery is a read endpoint's wall time (/events, /related,
	// /events/{id}, /query).
	StageHTTPQuery
	// StageHTTPEncode is writing a response body through the typed
	// writer: encoding plus the writes to the connection. On /events and
	// /related it lies inside StageHTTPQuery; on /query and the ingest
	// ack it follows the request's own stage, which ends before the body.
	StageHTTPEncode
	// StageAdmission is the admission gate: queue-bound checks and the
	// token bucket, including the ingest-queue lock acquisition.
	StageAdmission
	// StageWALAppend is the WAL append under the queue lock: a memory
	// copy of the framed record into the log's pending buffer.
	StageWALAppend
	// StageWALCommit is the durability wait after the queue lock is
	// released: for the flush covering the record, which the waiter may
	// lead itself.
	StageWALCommit
	// StageWALFsync is one WAL flush (write + fsync of a log's pending
	// records, plus the directory fsyncs a new segment needs), observed
	// from inside the WAL.
	StageWALFsync
	// StageQueueWait is a batch's time in the ingest queue: accepted
	// (pushed) to picked up by the apply step.
	StageQueueWait
	// StageSchedWait is the tenant's wait in the shared scheduler's
	// runnable queue: submitted to first worker turn.
	StageSchedWait
	// StageDetectQuantum is one full detector quantum (tokenize + graph
	// + reconcile).
	StageDetectQuantum
	// StageTokenize is the quantum's tokenization + vocabulary
	// interning sub-phase.
	StageTokenize
	// StageGraphMaintain is the AKG/CKG graph and dense-cluster
	// maintenance sub-phase (window slide, observation, classification,
	// edge refresh, cluster upkeep).
	StageGraphMaintain
	// StageReconcile is the dirty-set event-lifecycle reconciliation
	// sub-phase.
	StageReconcile
	// StageSnapshotPublish is building + publishing the immutable epoch
	// snapshot after a quantum.
	StageSnapshotPublish
	// StageSSEFanout is marshalling the quantum's stream event and
	// handing it to every SSE subscriber.
	StageSSEFanout
	// StageQueryExec is one unified query execution (query.Run).
	StageQueryExec
	// StageQueryPlan is the query planner: cursor decode, bounds, index
	// selection.
	StageQueryPlan
	// StageQuerySnapshotScan is the live epoch-snapshot scan.
	StageQuerySnapshotScan
	// StageQueryArchiveScan is the archive segment scan (including the
	// segment-index skip decisions).
	StageQueryArchiveScan
	// StageArchiveBlockScan is the columnar (v2) portion of an archive
	// scan: zone-map evaluation plus block decode of the survivors.
	StageArchiveBlockScan
	// StageWALReopen is one supervised reopen of a fail-stopped WAL (cut
	// the newest segment back to the acked prefix, resume past the
	// discarded records).
	StageWALReopen
	// StageArchiveSeal is making the archive's in-memory buffer durable
	// ahead of a WAL snapshot: rewriting its one buffer file (a no-op
	// when nothing was appended since the last one).
	StageArchiveSeal
	// StageWALSnapshot is writing one WAL snapshot — encoding the
	// detector state, fsync, rename — plus the segment compaction it
	// allows.
	StageWALSnapshot

	numStages
)

var stageNames = [numStages]string{
	"http_ingest",
	"http_query",
	"http_encode",
	"admission",
	"wal_append",
	"wal_commit",
	"wal_fsync",
	"queue_wait",
	"sched_wait",
	"detect_quantum",
	"tokenize",
	"graph_maintain",
	"reconcile",
	"snapshot_publish",
	"sse_fanout",
	"query_exec",
	"query_plan",
	"query_snapshot_scan",
	"query_archive_scan",
	"archive_block_scan",
	"wal_reopen",
	"archive_seal",
	"wal_snapshot",
}

// String returns the stage's exposition label (snake_case).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every defined stage in declaration order, for
// exposition layers that enumerate the histogram set.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// RingSize is how many traced requests each tenant's slow-request
// ring retains: the N slowest, for GET /debug/requests.
const RingSize = 64

// TenantObs is one tenant's telemetry: a fixed stage-indexed histogram
// array and the slow-request ring.
type TenantObs struct {
	hists [numStages]Histogram
	ring  *SlowRing
}

// NewTenantObs builds one tenant's telemetry handle.
func NewTenantObs() *TenantObs { return &TenantObs{ring: NewSlowRing(RingSize)} }

// Observe records one stage latency. Zero-alloc, lock-free: a bucket
// index computation and three atomic adds. A nil receiver observes
// nothing.
func (t *TenantObs) Observe(st Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.hists[st].Observe(d)
}

// Snapshot returns a consistent-enough copy of one stage's histogram
// (bucket sums race benignly with concurrent observes).
func (t *TenantObs) Snapshot(st Stage) HistSnap { return t.hists[st].Snapshot() }

// Ring returns the tenant's slow-request ring.
func (t *TenantObs) Ring() *SlowRing { return t.ring }

// OfferTrace offers a finished trace record to the slow-request ring.
func (t *TenantObs) OfferTrace(rec *TraceRecord) { t.ring.Offer(rec) }
