// Package server is the HTTP/JSON serving subsystem: a multi-tenant pool
// of streaming detectors behind ingest, query, and SSE push endpoints,
// with write-ahead-log persistence so restarts — clean or kill -9 —
// resume the stream bit-identically. See docs/ARCHITECTURE.md for the
// design.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Errors surfaced to handlers (mapped onto HTTP status codes there).
var (
	ErrQueueFull     = errors.New("server: ingest queue full")
	ErrBatchTooLarge = errors.New("server: batch exceeds the queue's message bound; split it")
	ErrClosed        = errors.New("server: pool shut down")
	ErrBadTenant     = errors.New("server: invalid tenant name")
	ErrNoTenant      = errors.New("server: unknown tenant")
	ErrMaxTenants    = errors.New("server: tenant limit reached")
)

// tenantNameRE keeps tenant names URL- and filename-safe.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// storageRetries bounds the inline retry turns Enqueue spends on a
// transient device IO error before degrading the tenant: each turn
// backs off, repairs the WAL in place, and re-appends.
const storageRetries = 3

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

// EventView is the immutable JSON projection of a detect.Event. Its
// slices alias the source event's, so callers must pass events that are
// themselves immutable — epoch-snapshot views, or a detector that will
// not be mutated again (test references).
type EventView struct {
	ID            uint64    `json:"id"`
	State         string    `json:"state"`
	Keywords      []string  `json:"keywords"`
	Rank          float64   `json:"rank"`
	PeakRank      float64   `json:"peak_rank"`
	RankHistory   []float64 `json:"rank_history,omitempty"`
	BornQuantum   int       `json:"born_quantum"`
	LastQuantum   int       `json:"last_quantum"`
	Evolved       bool      `json:"evolved"`
	Size          int       `json:"size"`
	Support       int       `json:"support"`
	Reported      bool      `json:"reported"`
	FirstReported int       `json:"first_reported,omitempty"`
	MergedInto    uint64    `json:"merged_into,omitempty"`
	SplitFrom     uint64    `json:"split_from,omitempty"`
	Spurious      bool      `json:"spurious"`
}

func viewOf(ev *detect.Event) EventView {
	return EventView{
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      ev.Keywords,
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		RankHistory:   ev.RankHistory,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

func viewsOf(evs []*detect.Event) []EventView {
	out := make([]EventView, len(evs))
	for i, ev := range evs {
		out[i] = viewOf(ev)
	}
	return out
}

// walBatch is one queued work item — an ingest batch or a stream-flush
// marker — with its WAL sequence number (0 when the WAL is disabled).
// Flushes ride the queue so their order relative to batches matches
// the WAL's record order exactly; replay depends on that.
type walBatch struct {
	seq   uint64
	msgs  []stream.Message
	flush bool
	// enq is when the batch entered the queue, for the queue-wait
	// histogram.
	enq time.Time
}

// tenantStorage bundles one tenant's durability handles; fields are nil
// when the corresponding subsystem is disabled.
type tenantStorage struct {
	wal      *wal.Log
	arch     *archive.Log
	archErrs *atomic.Uint64 // archive seal/compaction failures (records stay buffered)
	walErrs  *atomic.Uint64 // snapshot/compaction failures
}

// attachEvict routes events evicted by detect.TrimFinished into the
// archive. The detector's cumulative trim counter is the record's
// eviction ordinal; the archive drops ordinals it already holds, which
// makes the hook idempotent across WAL replays. Must be registered
// before any replay so pre-crash evictions the archive lost (buffered,
// never sealed) self-heal. An Append error is a failed seal: the record
// is still buffered, and failed says who accounts for it.
func (s *tenantStorage) attachEvict(det *detect.Detector, failed func(error)) {
	if s == nil || s.arch == nil {
		return
	}
	arch := s.arch
	det.SetOnEvict(func(ev *detect.Event) {
		if err := arch.Append(archiveRecord(det.Trimmed(), ev)); err != nil {
			failed(err)
		}
	})
}

// archiveRecord projects an evicted event onto the archive's record
// shape, with seq as its eviction ordinal.
func archiveRecord(seq uint64, ev *detect.Event) archive.Record {
	return archive.Record{
		Seq:           seq,
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      append([]string(nil), ev.Keywords...),
		AllKeywords:   append(make([]string, 0, len(ev.AllKeywords)), ev.KeywordHistory()...),
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

// Tenant is one isolated detector: a bounded ingest queue drained by the
// pool's shared scheduler, the (single-threaded) detector it feeds, and
// an SSE broker for push notification.
//
// Reads are wait-free: after every quantum the apply step publishes an
// immutable epoch snapshot (detect.Snapshot) through an atomic pointer,
// and every query endpoint resolves against the latest snapshot without
// touching t.mu. The mutex has shrunk to the APPLY lock — it serialises
// batch application and WAL snapshot capture against each other, never
// against queries.
type Tenant struct {
	name   string
	cfg    PoolConfig // the pool's resolved configuration
	broker *broker
	sched  *scheduler

	// obs is the tenant's telemetry handle: stage histograms plus the
	// slow-request ring.
	obs *obs.TenantObs

	// qmu guards the pending-batch queue, the closed flag, and WAL
	// appends (so WAL record order is queue order). It is never held
	// while a batch is applying, and is always acquired before the
	// scheduler's lock, never after. The WAL append under it is one
	// write (or, under group commit, a memory copy) and never an fsync:
	// the durability wait (Log.Commit) happens after qmu is released.
	qmu      sync.Mutex
	pending  []walBatch // FIFO; pendHead is the ring start
	pendHead int
	// inflightSeq is the WAL seq of the batch currently mid-apply (0 =
	// none); qmu held to read or write. A supervised reopen must not
	// discard a record whose batch is between pop and Commit — the
	// Commit has to observe the fail-stop, or a fresh record reusing
	// the seq could commit it spuriously.
	inflightSeq uint64
	scheduled   bool // t is in the scheduler's runnable queue or mid-apply
	closed      bool
	drainDone   bool
	drained     chan struct{} // closed when closed and fully drained
	// runnableAt is when the tenant last entered the scheduler's
	// runnable queue; the delta to its worker turn feeds the sched-wait
	// histogram.
	runnableAt time.Time

	// accepted counts batches admitted to the queue, applied counts
	// batches fully ingested; equal means the tenant is idle. queuedMsgs
	// tracks the backlog in messages, bounded by maxQueuedMsgs.
	accepted      atomic.Uint64
	applied       atomic.Uint64
	queuedMsgs    atomic.Int64
	maxQueuedMsgs int64

	// admit is the overload-protection state (nil when admission control
	// is off); the shed counters below feed the /metrics SLO surface.
	admit         *admission
	shedRateLimit atomic.Uint64 // batches shed by the token bucket
	shedQueue     atomic.Uint64 // batches shed by the queue-depth gate
	shedMsgs      atomic.Uint64 // messages across all shed batches

	// decodeFast / decodeFallback count accepted ingest bodies by the
	// decoder that produced their messages (see decodeMessages).
	decodeFast     atomic.Uint64
	decodeFallback atomic.Uint64

	// akg sums the graph layer's per-quantum screening statistics over
	// the quanta this process applied, and keeps the last quantum's
	// dirty-set and window sizes (see akgCounters.add). words mirrors the
	// interner's size as of the last applied quantum; firstSight sums its
	// growth over the quanta this process applied live.
	akg        akgCounters
	words      atomic.Int64
	firstSight atomic.Uint64

	// Durability. lastApplied is the WAL seq of the last fully applied
	// batch — the only safe snapshot position; lastSnapQuantum tracks the
	// quantum of the newest snapshot for cadence and the snapshot-age
	// metric (written only by the apply step, read by /metrics).
	storage         *tenantStorage
	lastApplied     atomic.Uint64
	lastSnapQuantum atomic.Int64

	// Storage-degradation state (see supervisor.go): health carries the
	// read-only degraded flag plus recovery counters; kick nudges the
	// pool supervisor to probe now.
	health tenantHealth
	kick   func()

	// Wait-free read state. snap is the latest epoch snapshot; lastEvent
	// the newest SSE payload (for catch-up); msgs mirrors det.Processed()
	// per applied batch; elapsed/since feed the throughput stats.
	snap      atomic.Pointer[detect.Snapshot]
	lastEvent atomic.Pointer[StreamEvent]
	msgs      atomic.Uint64
	elapsed   atomic.Int64 // ns of detector time spent this process
	since     atomic.Uint64

	mu  sync.Mutex // the apply lock: guards det during apply/snapshot
	det *detect.Detector
}

func newTenant(name string, det *detect.Detector, cfg PoolConfig, st *tenantStorage, sched *scheduler, tob *obs.TenantObs, kick func()) *Tenant {
	t := &Tenant{
		name:          name,
		cfg:           cfg,
		broker:        newBroker(),
		sched:         sched,
		drained:       make(chan struct{}),
		det:           det,
		maxQueuedMsgs: int64(cfg.QueueMessages),
		storage:       st,
		admit:         newAdmission(cfg, nil),
		obs:           tob,
		kick:          kick,
	}
	st.attachEvict(det, func(err error) { t.storageWriteFailed(st.archErrs, err) })
	det.SetOnQuantum(func(res *detect.QuantumResult) {
		t.elapsed.Add(int64(res.Elapsed))
		t.akg.add(&res.Stats)
		words := int64(det.Interner().Size())
		t.firstSight.Add(uint64(words - t.words.Swap(words)))
		// The quantum's wall time and its three sub-phases: tokenization
		// with keyword-ID resolution, graph maintenance, and event
		// reconciliation.
		tob.Observe(obs.StageDetectQuantum, res.PrepElapsed+res.Elapsed)
		tob.Observe(obs.StageTokenize, res.PrepElapsed)
		tob.Observe(obs.StageGraphMaintain, res.GraphElapsed)
		tob.Observe(obs.StageReconcile, res.ReconcileElapsed)
		// Publish the epoch snapshot before announcing the quantum over
		// SSE: a subscriber that reacts to the notification with a query
		// must observe at least this quantum.
		t0 := time.Now()
		t.snap.Store(det.Snapshot(res))
		ev := &StreamEvent{
			Tenant:   name,
			Quantum:  res.Quantum,
			Reports:  res.Reports,
			Born:     res.Born,
			Ended:    res.Ended,
			Merged:   res.Merged,
			AKGNodes: res.AKGNodes,
			AKGEdges: res.AKGEdges,
		}
		t.lastEvent.Store(ev)
		t1 := time.Now()
		tob.Observe(obs.StageSnapshotPublish, t1.Sub(t0))
		t.broker.publish(ev)
		tob.Observe(obs.StageSSEFanout, time.Since(t1))
	})
	t.msgs.Store(det.Processed())
	t.words.Store(int64(det.Interner().Size()))
	// Queries may arrive before the first quantum (or right after a
	// restart): seed the snapshot from the detector's recovered state.
	t.snap.Store(det.Snapshot(nil))
	return t
}

// queueLenLocked returns the accepted-but-unapplied batch count; qmu held.
func (t *Tenant) queueLenLocked() int { return len(t.pending) - t.pendHead }

// queueLen is queueLenLocked for callers not holding qmu.
func (t *Tenant) queueLen() int {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	return t.queueLenLocked()
}

// pushLocked appends a batch and marks the tenant runnable; qmu held.
func (t *Tenant) pushLocked(b walBatch) {
	t.pending = append(t.pending, b)
	if !t.scheduled {
		t.scheduled = true
		t.runnableAt = time.Now()
		t.sched.submit(t)
	}
}

// popLocked removes and returns the head batch; qmu held, queue non-empty.
func (t *Tenant) popLocked() walBatch {
	b := t.pending[t.pendHead]
	t.pending[t.pendHead] = walBatch{} // release the msgs for GC
	t.pendHead++
	if t.pendHead == len(t.pending) {
		t.pending = t.pending[:0]
		t.pendHead = 0
	}
	return b
}

// finishDrainLocked closes drained once the tenant is closed, idle and
// empty; qmu held. Safe to call any number of times.
func (t *Tenant) finishDrainLocked() {
	if t.closed && !t.scheduled && t.queueLenLocked() == 0 && !t.drainDone {
		t.drainDone = true
		close(t.drained)
	}
}

// walLog / archLog are nil-safe storage accessors.
func (t *Tenant) walLog() *wal.Log {
	if t.storage == nil {
		return nil
	}
	return t.storage.wal
}

func (t *Tenant) archLog() *archive.Log {
	if t.storage == nil {
		return nil
	}
	return t.storage.arch
}

// runOne applies the tenant's next pending batch. Called by exactly one
// scheduler worker at a time (the scheduled flag guarantees it), so
// batches apply strictly in arrival order — which is WAL append order;
// replay depends on that. After the batch the tenant requeues itself at
// the scheduler's tail if more work is pending: one batch per turn is
// the round-robin fairness unit.
func (t *Tenant) runOne() {
	t.qmu.Lock()
	// Every path here went through a submit, which stamped runnableAt.
	t.obs.Observe(obs.StageSchedWait, time.Since(t.runnableAt))
	if t.queueLenLocked() == 0 {
		t.scheduled = false
		t.finishDrainLocked()
		t.qmu.Unlock()
		return
	}
	batch := t.popLocked()
	t.inflightSeq = batch.seq
	t.qmu.Unlock()

	t.apply(batch)

	t.qmu.Lock()
	t.inflightSeq = 0
	if t.queueLenLocked() > 0 {
		t.runnableAt = time.Now()
		t.sched.submit(t) // back of the line: other tenants go first
	} else {
		t.scheduled = false
		t.finishDrainLocked()
	}
	t.qmu.Unlock()
}

// applyRecord performs the detector mutation one WAL record stands for:
// a flush marker forces the buffered partial quantum through; a batch is
// ingested message by message and the finished history then trimmed to
// retain (0 = keep everything). This is the only definition of that
// mutation — the live worker (Tenant.apply) and WAL replay
// (recoverTenant) both call it, so what recovery rebuilds cannot drift
// from what was served. mu is held for the whole record: readers never
// take it (they load the epoch snapshot), and its two other takers cannot
// be waiting — maybeSnapshot runs on this goroutine between records,
// Shutdown's final snapshot after the drain. The hooks run under mu:
// applied once with the record's message count, trimmed after a trim
// that evicted events; replay passes nil for both.
func applyRecord(det *detect.Detector, mu *sync.Mutex, retain int, msgs []stream.Message, flush bool, applied func(n int), trimmed func()) {
	mu.Lock()
	defer mu.Unlock()
	if flush {
		det.Flush()
		return
	}
	for _, m := range msgs {
		det.IngestAll(m)
	}
	if applied != nil {
		applied(len(msgs))
	}
	if retain > 0 && det.TrimFinished(retain) > 0 && trimmed != nil {
		trimmed()
	}
}

// recordApplied is applyRecord's hook on the live path, run once per
// batch with the apply lock held.
func (t *Tenant) recordApplied(n int) {
	t.msgs.Store(t.det.Processed())
	t.since.Add(uint64(n))
}

// republishTrimmed is applyRecord's post-trim hook on the live path
// (apply lock held): trimming changed the retained history, so
// republish for reads to observe it before the next quantum boundary.
// The quantum has not advanced, so carry the previous epoch's lifecycle
// deltas forward instead of wiping them.
func (t *Tenant) republishTrimmed() {
	next := t.det.Snapshot(nil)
	if prev := t.snap.Load(); prev != nil && prev.Quantum == next.Quantum {
		next.Born, next.Ended, next.Merged = prev.Born, prev.Ended, prev.Merged
	}
	t.snap.Store(next)
}

// apply ingests one batch (or flush marker) into the detector. Queries
// don't take the apply lock at all — they read the epoch snapshot the
// quantum hook publishes.
func (t *Tenant) apply(batch walBatch) {
	// Queue wait: accepted (pushed) to picked up by a worker, measured
	// before the group-commit wait below — durability time has its own
	// histograms.
	t.obs.Observe(obs.StageQueueWait, time.Since(batch.enq))
	if batch.seq > 0 {
		// Never apply a batch before its WAL record is durable. The
		// synchronous append path guarantees this by construction; under
		// group commit the record may still be in the in-process buffer,
		// and applying early would let side effects of the batch (archive
		// writes keyed by eviction ordinal, snapshots) reach disk for a
		// record a crash can still lose — recovery would then disagree
		// with the on-disk artifacts. If the commit failed (log
		// fail-stopped), the batch was never acknowledged: drop it
		// without touching the detector, keeping memory consistent with
		// what recovery will rebuild.
		if err := t.walLog().Commit(batch.seq); err != nil {
			t.queuedMsgs.Add(-int64(len(batch.msgs)))
			t.applied.Add(1)
			return
		}
	}
	applyRecord(t.det, &t.mu, t.cfg.RetainEvents, batch.msgs, batch.flush, t.recordApplied, t.republishTrimmed)
	if batch.seq > 0 {
		t.lastApplied.Store(batch.seq)
	}
	t.maybeSnapshot()
	t.queuedMsgs.Add(-int64(len(batch.msgs)))
	t.applied.Add(1)
}

// maybeSnapshot checkpoints the detector into the WAL once enough quanta
// have passed since the last snapshot, then compaction (inside
// wal.Snapshot) drops the covered segments. It runs synchronously on
// the worker between batches — that is what makes lastApplied exactly
// name the state captured, and it deliberately paces ingest to
// snapshot IO at the cadence point. The state is deep-copied under the
// detector lock but encoded and written outside it, so *queries* (and
// WAL appends from Enqueue) proceed during the write; only this
// tenant's batch application waits.
func (t *Tenant) maybeSnapshot() {
	if t.walLog() == nil {
		return
	}
	t.mu.Lock()
	q := t.det.AKG().Quantum()
	if q-int(t.lastSnapQuantum.Load()) < t.cfg.SnapshotEvery {
		t.mu.Unlock()
		return
	}
	st := t.det.State()
	t.mu.Unlock()
	err := t.sealThenSnapshot(func(w io.Writer) error {
		return detect.EncodeState(&st, w)
	})
	if err == nil && q > int(t.lastSnapQuantum.Load()) {
		t.lastSnapQuantum.Store(int64(q))
	}
}

// sealThenSnapshot is the one way a WAL snapshot gets written: the
// archive's buffer is sealed to disk first, because the snapshot
// persists the detector's eviction counter and replay from it never
// regenerates the evictions it covers — a record still only in memory
// would be lost to the next crash for good. A failed seal therefore
// skips the snapshot; the records stay buffered and the WAL keeps the
// tail that can re-evict them. Runs on the goroutine that applies the
// tenant's batches (or after its drain), so no eviction can land
// between the state save captures and the seal.
func (t *Tenant) sealThenSnapshot(save func(io.Writer) error) error {
	if ar := t.archLog(); ar != nil {
		if err := ar.Seal(); err != nil {
			t.storageWriteFailed(t.storage.archErrs, err)
			return err
		}
	}
	err := t.walLog().Snapshot(t.lastApplied.Load(), save)
	if err != nil {
		t.storageWriteFailed(t.storage.walErrs, err)
	}
	return err
}

// storageWriteFailed accounts a failed archive seal or WAL snapshot.
// Neither is fatal — the WAL still holds the full history — but ENOSPC
// means the device is out of space and the next append will fail too.
// Degrade proactively so ingest sheds instead of burning retry budgets,
// and let the supervisor's write probe decide when space is back.
func (t *Tenant) storageWriteFailed(errs *atomic.Uint64, err error) {
	errs.Add(1)
	if vfs.Classify(err) == vfs.ClassNoSpace {
		t.enterDegraded(degradedNoSpace)
		if t.kick != nil {
			t.kick()
		}
	}
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Enqueue hands a batch to the tenant's worker. It never blocks on
// other tenants: a full queue returns ErrQueueFull (the client should
// retry), a batch that could never fit even in an empty queue returns
// ErrBatchTooLarge (retrying is futile — the client must split it), and
// a shut-down tenant returns ErrClosed. With the WAL enabled the batch
// is durable before Enqueue returns: synchronously appended, or — under
// group commit — buffered and then awaited past the committer's next
// flush+fsync, which many concurrent Enqueues share. A group-commit
// flush failure fail-stops the tenant's log and the failed batch is
// dropped unapplied (see Tenant.apply), so a client retry can never
// double-log or double-apply it.
func (t *Tenant) Enqueue(msgs []stream.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	t0 := time.Now()
	t.qmu.Lock()
	if t.closed {
		t.qmu.Unlock()
		return ErrClosed
	}
	// Degraded tenants are read-only: shed before the admission gates so
	// a sick device never sees another write and the client gets the
	// supervisor's probe cadence as its Retry-After.
	if derr := t.DegradedCheck(); derr != nil {
		t.qmu.Unlock()
		return derr
	}
	if int64(len(msgs)) > t.maxQueuedMsgs {
		t.qmu.Unlock()
		return ErrBatchTooLarge
	}
	// Overload protection fires before the hard bounds and before the
	// WAL append — a shed batch must leave no trace anywhere. The
	// queue-depth gate turns load away while the queue still has
	// headroom (Retry-After estimated from the tenant's observed apply
	// rate); the token bucket caps the tenant's sustained message rate
	// and is checked last so a batch the queue would reject anyway never
	// burns tokens.
	if se := t.admit.checkQueueLocked(len(msgs), t.queueLenLocked(), t.cfg.QueueDepth,
		t.queuedMsgs.Load(), t.maxQueuedMsgs); se != nil {
		se.RetryAfter = t.drainEstimate()
		t.shedQueue.Add(1)
		t.shedMsgs.Add(uint64(len(msgs)))
		t.qmu.Unlock()
		return se
	}
	if t.queuedMsgs.Load()+int64(len(msgs)) > t.maxQueuedMsgs {
		t.qmu.Unlock()
		return ErrQueueFull
	}
	// Admission must be decided before the WAL append: a batch logged
	// but then rejected would reappear at recovery as data the client
	// was told to retry. Only a scheduler worker pops, and only under
	// qmu, so a free slot observed here stays free until our push.
	if t.queueLenLocked() >= t.cfg.QueueDepth {
		t.qmu.Unlock()
		return ErrQueueFull
	}
	if se := t.admit.checkRate(len(msgs)); se != nil {
		t.shedRateLimit.Add(1)
		t.shedMsgs.Add(uint64(len(msgs)))
		t.qmu.Unlock()
		return se
	}
	t1 := time.Now()
	t.obs.Observe(obs.StageAdmission, t1.Sub(t0))
	var seq uint64
	wl := t.walLog()
	if wl != nil {
		var err error
		if seq, err = wl.Append(msgs); err != nil {
			seq, err = t.retryAppend(wl, msgs, err)
		}
		if err != nil {
			t.qmu.Unlock()
			return t.failStorage(err)
		}
		now := time.Now()
		t.obs.Observe(obs.StageWALAppend, now.Sub(t1))
		t1 = now
	}
	t.pushLocked(walBatch{seq: seq, msgs: msgs, enq: t1})
	t.queuedMsgs.Add(int64(len(msgs)))
	t.accepted.Add(1)
	t.qmu.Unlock()
	// The durability wait happens outside qmu: it must not delay other
	// producers or this tenant's scheduler pop, and under group commit
	// the whole point is that many Enqueues wait on one fsync together.
	if wl != nil {
		if err := wl.Commit(seq); err != nil {
			// A commit failure fail-stopped the log; the batch was never
			// acked and will be dropped unapplied. The supervisor owns the
			// reopen — degrade now so the client's retry sheds cheaply
			// instead of fail-stopping again.
			return t.failStorage(err)
		}
		t.obs.Observe(obs.StageWALCommit, time.Since(t1))
	}
	return nil
}

// retryAppend is the inline storage-retry loop for transient device IO
// errors on the WAL append path: back off (capped exponential), repair
// the log in place (Reopen is a no-op when the failed append already
// rolled back cleanly), and re-append. A controller hiccup or a
// transient path error thus recovers without shedding a single request.
// Runs under qmu — the sleeps briefly hold up this tenant's producers,
// never another tenant's; with the default backoff (storageRetries
// turns from 5ms) the worst case is ~35ms. Only ClassIO errors are retried: ENOSPC
// cannot succeed until space frees, and logic errors never will.
func (t *Tenant) retryAppend(wl *wal.Log, msgs []stream.Message, err error) (uint64, error) {
	backoff := t.cfg.StorageRetryBackoff
	maxBackoff := 32 * t.cfg.StorageRetryBackoff
	for turn := 0; turn < storageRetries; turn++ {
		if vfs.Classify(err) != vfs.ClassIO {
			return 0, err
		}
		t0 := time.Now()
		t.health.storageRetries.Add(1)
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		var seq uint64
		if rerr := t.reopenWALLocked(wl); rerr != nil {
			err = rerr
		} else {
			seq, err = wl.Append(msgs)
		}
		t.obs.Observe(obs.StageStorageRetry, time.Since(t0))
		if err == nil {
			return seq, nil
		}
	}
	return 0, err
}

// failStorage is the terminal storage-error path for an ingest request:
// device conditions flip the tenant into read-only degraded mode (the
// supervisor is kicked to begin probing for recovery) and the request is
// shed with the DegradedError; anything else surfaces as a plain error.
func (t *Tenant) failStorage(err error) error {
	if derr := t.storageFailed(err); derr != err {
		if t.kick != nil {
			t.kick()
		}
		return derr
	}
	return fmt.Errorf("server: tenant %s: %w", t.name, err)
}

// drainEstimate estimates how long the tenant's current backlog takes
// to drain at its observed per-message apply rate — the Retry-After
// hint for queue-depth sheds. With no history yet (or an idle tenant)
// it falls back to one second, the header's floor anyway.
func (t *Tenant) drainEstimate() time.Duration {
	queued := t.queuedMsgs.Load()
	n := t.since.Load()
	if queued <= 0 || n == 0 {
		return time.Second
	}
	d := time.Duration(queued * (t.elapsed.Load() / int64(n)))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// ShedCheck applies the queue-depth admission gate without a batch in
// hand. The ingest handler calls it before decoding the request body,
// so an overloaded tenant sheds a flood at the cost of a map lookup and
// a mutex, not a 64 MiB JSON parse. Returns nil when ingest would
// currently be admitted (the gates in Enqueue remain authoritative).
func (t *Tenant) ShedCheck() *ShedError {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	se := t.admit.checkQueueLocked(0, t.queueLenLocked(), t.cfg.QueueDepth,
		t.queuedMsgs.Load(), t.maxQueuedMsgs)
	if se != nil {
		se.RetryAfter = t.drainEstimate()
		t.shedQueue.Add(1)
	}
	return se
}

// Query runs one unified time-travel query across the tenant's live
// epoch snapshot and its on-disk archive (when enabled), merged in
// deterministic (LastQuantum, ID) order with LIMIT pushdown into both
// sources. Wait-free against ingest on the snapshot side; the archive
// side snapshots segment metadata under the archive's own lock and
// scans immutable files without it.
func (t *Tenant) Query(req query.Request) (query.Result, error) {
	var arch query.Archive
	if l := t.archLog(); l != nil {
		arch = l
	}
	req.Obs = t.obs
	t0 := time.Now()
	res, err := query.Run(t.snap.Load(), arch, req)
	t.obs.Observe(obs.StageQueryExec, time.Since(t0))
	return res, err
}

// Obs returns the tenant's telemetry handle.
func (t *Tenant) Obs() *obs.TenantObs { return t.obs }

// Flush forces processing of the tenant's buffered partial quantum (end
// of stream). A flush mutates the detector exactly like ingest does, so
// it is WAL-logged and queued behind every batch accepted before the
// call — order in the log is order of application, which replay relies
// on. Flush returns once the marker has been applied; ctx abandons the
// wait (e.g. the HTTP client disconnected), though an enqueued flush
// still executes.
func (t *Tenant) Flush(ctx context.Context) error {
	var target uint64
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		t.qmu.Lock()
		if t.closed {
			t.qmu.Unlock()
			return ErrClosed
		}
		if derr := t.DegradedCheck(); derr != nil {
			t.qmu.Unlock()
			return derr
		}
		if t.queueLenLocked() < t.cfg.QueueDepth {
			var seq uint64
			wl := t.walLog()
			if wl != nil {
				s, err := wl.AppendFlush()
				if err != nil {
					t.qmu.Unlock()
					return t.failStorage(err)
				}
				seq = s
			}
			t.pushLocked(walBatch{seq: seq, flush: true, enq: time.Now()})
			t.accepted.Add(1)
			target = t.accepted.Load()
			t.qmu.Unlock()
			if wl != nil {
				// Same durability contract as Enqueue under group commit.
				if err := wl.Commit(seq); err != nil {
					return t.failStorage(err)
				}
			}
			break
		}
		t.qmu.Unlock()
		// Queue full: wait for the apply step to make room rather than
		// failing — Flush's contract is to block until done.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	for t.applied.Load() < target {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// Snapshot returns the tenant's latest published epoch snapshot. Reads
// against it are wait-free; the contents are immutable.
func (t *Tenant) Snapshot() *detect.Snapshot { return t.snap.Load() }

// Events returns the tenant's events: the top-k live reported events by
// rank (k ≤ 0 means all) or, when all is set, every event ever tracked in
// birth order. Wait-free: resolved against the latest epoch snapshot.
func (t *Tenant) Events(k int, all bool) []EventView {
	snap := t.snap.Load()
	if all {
		return viewsOf(snap.AllEvents())
	}
	return viewsOf(snap.TopK(k))
}

// EventsKeyword returns the top-k live reported events whose current
// keyword set contains kw, resolved through the snapshot's inverted
// index.
func (t *Tenant) EventsKeyword(k int, kw string) []EventView {
	return viewsOf(t.snap.Load().TopKKeyword(k, kw))
}

// Event returns one event by ID.
func (t *Tenant) Event(id uint64) (EventView, bool) {
	if ev := t.snap.Load().Find(id); ev != nil {
		return viewOf(ev), true
	}
	return EventView{}, false
}

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

// shutdown stops ingest, waits (bounded by ctx) for the scheduler to
// drain the tenant's pending batches, and closes the broker. Safe to
// call more than once.
func (t *Tenant) shutdown(ctx context.Context) error {
	t.qmu.Lock()
	t.closed = true
	t.finishDrainLocked()
	t.qmu.Unlock()
	var err error
	select {
	case <-t.drained:
	case <-ctx.Done():
		err = fmt.Errorf("server: tenant %s: drain: %w", t.name, ctx.Err())
	}
	t.broker.close()
	return err
}

// Pool manages the tenants of one serving process.
type Pool struct {
	cfg   PoolConfig
	sched *scheduler          // shared worker pool applying every tenant's batches
	gc    *wal.GroupCommitter // nil unless WALGroupCommitInterval is set
	tel   *obs.Telemetry      // per-tenant stage histograms + slow-request rings
	fs    vfs.FS              // the storage layers' filesystem (never nil)

	mu      sync.RWMutex
	tenants map[string]*Tenant
	// creating holds an in-flight latch per tenant name being built
	// outside the lock (WAL recovery can be slow); the channel closes
	// when the build finishes, successfully or not.
	creating map[string]chan struct{}
	closed   bool // refuses new tenants (set by BeginShutdown)

	// shutdownOnce guards the drain+snapshot pass; shutdownDone is
	// closed when it finishes so concurrent Shutdown callers wait for
	// completion instead of returning success early.
	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error

	// Background archive compactor lifecycle: nil channels when the
	// compactor is disabled; compactOff makes stopCompactor idempotent.
	compactStop chan struct{}
	compactDone chan struct{}
	compactOff  sync.Once

	// Degradation supervisor lifecycle (see supervisor.go): nil channels
	// when the supervisor never started (no WAL); superviseKick nudges it
	// to probe now; superviseOff makes stopSupervisor idempotent.
	superviseStop chan struct{}
	superviseKick chan struct{}
	superviseDone chan struct{}
	superviseOff  sync.Once
}

// NewPool validates cfg, builds a pool and restores every tenant found
// under WALDir by WAL recovery (snapshot + tail replay).
func NewPool(cfg PoolConfig) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid pool configuration:\n%w", err)
	}
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:          cfg,
		sched:        newScheduler(cfg.Workers),
		tel:          obs.New(),
		tenants:      make(map[string]*Tenant),
		creating:     make(map[string]chan struct{}),
		shutdownDone: make(chan struct{}),
		fs:           cfg.FS,
	}
	if cfg.WALGroupCommitInterval > 0 {
		p.gc = wal.NewGroupCommitter(cfg.WALGroupCommitInterval)
	}
	abandon := func() {
		// Don't leak scheduler workers, the group committer, or tenants
		// already restored. (The compactor and supervisor start only
		// after restore succeeds, so stopping them here is a no-op
		// safety net.)
		p.stopSupervisor()
		p.stopCompactor()
		//repro:order-insensitive independent per-tenant shutdowns during abandoned startup; order is immaterial
		for _, t := range p.tenants {
			t.shutdown(context.Background()) //nolint:errcheck // empty queues drain instantly
		}
		p.sched.stop(true)
		p.gc.Stop()
	}
	if cfg.WALDir != "" {
		if err := p.fs.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
		entries, err := p.fs.ReadDir(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: list wal dir: %w", err)
		}
		for _, e := range entries {
			if !e.IsDir() || !tenantNameRE.MatchString(e.Name()) {
				continue
			}
			t, err := p.recoverTenant(e.Name())
			if err != nil {
				abandon()
				return nil, err
			}
			p.tenants[e.Name()] = t
		}
	}
	if cfg.ArchiveDir != "" && cfg.ArchiveCompactInterval > 0 {
		p.compactStop = make(chan struct{})
		p.compactDone = make(chan struct{})
		go p.compactLoop()
	}
	if cfg.WALDir != "" {
		// The degradation supervisor only has work when a WAL exists to
		// reopen and a device to probe; without one, storage errors are
		// limited to the archive and stay on its error path.
		p.superviseStop = make(chan struct{})
		p.superviseKick = make(chan struct{}, 1)
		p.superviseDone = make(chan struct{})
		go p.superviseLoop()
	}
	return p, nil
}

// compactLoop is the background archive compactor: each tick it takes
// one compaction step per tenant (merge a run of small sealed
// segments). One step
// per tick bounds the IO burst a tick can cause; an idle archive makes
// the step a no-op. Failures count into the tenant's archive error
// counter and the loop moves on — compaction is an optimization, never
// a correctness requirement.
func (p *Pool) compactLoop() {
	defer close(p.compactDone)
	tick := time.NewTicker(p.cfg.ArchiveCompactInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.compactStop:
			return
		case <-tick.C:
		}
		for _, t := range p.tenantsSorted() {
			select {
			case <-p.compactStop:
				return
			default:
			}
			ar := t.archLog()
			if ar == nil {
				continue
			}
			start := time.Now()
			_, worked, err := ar.CompactOnce()
			if err != nil {
				t.storage.archErrs.Add(1)
				continue
			}
			if worked {
				t.obs.Observe(obs.StageArchiveCompact, time.Since(start))
			}
		}
	}
}

// stopCompactor halts the background compactor and waits for any
// in-flight step to finish; safe to call multiple times and when the
// compactor was never started. Must run before tenant archives close so
// a step never races a Close.
func (p *Pool) stopCompactor() {
	if p.compactStop == nil {
		return
	}
	p.compactOff.Do(func() { close(p.compactStop) })
	<-p.compactDone
}

// openStorage opens (creating as needed) one tenant's WAL and archive
// handles; disabled subsystems yield nil fields.
func (p *Pool) openStorage(name string) (*tenantStorage, error) {
	st := &tenantStorage{archErrs: new(atomic.Uint64), walErrs: new(atomic.Uint64)}
	if p.cfg.WALDir != "" {
		tob := p.tel.Tenant(name)
		wl, err := wal.Open(filepath.Join(p.cfg.WALDir, name), wal.Options{
			SegmentBytes: p.cfg.WALSegmentBytes,
			GroupCommit:  p.gc,
			OnFlush:      func(d time.Duration) { tob.Observe(obs.StageWALFsync, d) },
			FS:           p.fs,
		})
		if err != nil {
			return nil, fmt.Errorf("server: tenant %s: %w", name, err)
		}
		st.wal = wl
	}
	if p.cfg.ArchiveDir != "" {
		ar, err := archive.Open(filepath.Join(p.cfg.ArchiveDir, name), archive.Options{
			SegmentEvents: p.cfg.ArchiveSegmentEvents,
			BucketQuanta:  p.cfg.ArchiveBucketQuanta,
			BlockEvents:   p.cfg.ArchiveBlockEvents,
			FS:            p.fs,
		})
		if err != nil {
			if st.wal != nil {
				st.wal.Close() //nolint:errcheck // already failing
			}
			return nil, fmt.Errorf("server: tenant %s: %w", name, err)
		}
		st.arch = ar
	}
	return st, nil
}

// close releases the storage handles (error-path cleanup).
func (s *tenantStorage) close() {
	if s.wal != nil {
		s.wal.Close() //nolint:errcheck // best effort
	}
	if s.arch != nil {
		s.arch.Close() //nolint:errcheck // best effort
	}
}

// recoverTenant rebuilds one tenant from its WAL directory: load the
// latest snapshot (or start empty), then replay the segment tail
// through applyRecord, the function the worker applied it with.
// Determinism makes the result bit-identical to the pre-crash state;
// the eviction hook is attached before replay so events the archive
// already holds are deduplicated by ordinal while any it lost with its
// unsealed buffer are re-archived.
func (p *Pool) recoverTenant(name string) (*Tenant, error) {
	st, err := p.openStorage(name)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Tenant, error) {
		st.close()
		return nil, fmt.Errorf("server: recover tenant %s: %w", name, err)
	}
	var det *detect.Detector
	r, snapSeq, err := st.wal.LatestSnapshot()
	if err != nil {
		return fail(err)
	}
	if r != nil {
		det, err = detect.Load(r)
		r.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		det = detect.New(p.cfg.Detector)
	}
	baseQuantum := det.AKG().Quantum()
	st.attachEvict(det, func(error) { st.archErrs.Add(1) })
	var mu sync.Mutex // applyRecord's lock; nothing else can reach det yet
	if err := st.wal.Replay(snapSeq, func(seq uint64, msgs []stream.Message, flush bool) error {
		applyRecord(det, &mu, p.cfg.RetainEvents, msgs, flush, nil, nil)
		return nil
	}); err != nil {
		return fail(err)
	}
	t := newTenant(name, det, p.cfg, st, p.sched, p.tel.Tenant(name), p.kickSupervisor)
	t.lastApplied.Store(st.wal.LastSeq())
	t.lastSnapQuantum.Store(int64(baseQuantum))
	// If the tail replay crossed a snapshot cadence, snapshot now so a
	// crash loop cannot make recovery cost grow without bound.
	t.maybeSnapshot()
	return t, nil
}

// Tenant returns an existing tenant.
func (p *Pool) Tenant(name string) (*Tenant, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.tenants[name]
	return t, ok
}

// TenantCount returns the number of tenants without copying names.
func (p *Pool) TenantCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tenants)
}

// CanCreate cheaply pre-checks whether a new tenant could be admitted
// right now. Racy by nature (the answer can change before GetOrCreate),
// but lets handlers shed guaranteed-rejected ingest before paying to
// decode a large body; GetOrCreate remains the authoritative gate.
func (p *Pool) CanCreate() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if len(p.tenants) >= p.cfg.MaxTenants {
		return ErrMaxTenants
	}
	return nil
}

// GetOrCreate returns the named tenant, creating it with the pool's
// detector configuration on first use. The build itself — which with a
// WAL configured may mean recovering leftovers of a pool that died
// mid-create, snapshot load and tail replay included — runs outside the
// pool lock behind a per-name latch, so one tenant's recovery never
// freezes every other tenant's requests.
func (p *Pool) GetOrCreate(name string) (*Tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, ErrBadTenant
	}
	for {
		p.mu.RLock()
		t, ok := p.tenants[name]
		closed := p.closed
		p.mu.RUnlock()
		if ok {
			return t, nil
		}
		if closed {
			return nil, ErrClosed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		if t, ok := p.tenants[name]; ok {
			p.mu.Unlock()
			return t, nil
		}
		if wait, busy := p.creating[name]; busy {
			// Another request is already building this tenant: wait for
			// it to finish either way, then retry the lookup.
			p.mu.Unlock()
			<-wait
			continue
		}
		if len(p.tenants)+len(p.creating) >= p.cfg.MaxTenants {
			p.mu.Unlock()
			return nil, ErrMaxTenants
		}
		done := make(chan struct{})
		p.creating[name] = done
		p.mu.Unlock()

		t, err := p.buildTenant(name)

		p.mu.Lock()
		delete(p.creating, name)
		close(done)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if p.closed {
			// Shutdown began while we were building: the new tenant was
			// never published, so BeginShutdown could not reach it.
			p.mu.Unlock()
			t.shutdown(context.Background()) //nolint:errcheck // empty queue drains instantly
			t.storage.close()
			return nil, ErrClosed
		}
		p.tenants[name] = t
		p.mu.Unlock()
		return t, nil
	}
}

// buildTenant constructs one tenant without holding the pool lock.
func (p *Pool) buildTenant(name string) (*Tenant, error) {
	if p.cfg.WALDir != "" {
		// recoverTenant handles both a genuinely new tenant (empty WAL
		// directory) and leftovers of one whose pool died mid-create.
		return p.recoverTenant(name)
	}
	st, err := p.openStorage(name)
	if err != nil {
		return nil, err
	}
	return newTenant(name, detect.New(p.cfg.Detector), p.cfg, st, p.sched, p.tel.Tenant(name), p.kickSupervisor), nil
}

// Names returns the tenant names, sorted.
func (p *Pool) Names() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	names := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortTenants(tenants []*Tenant) {
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
}

// Stats returns every tenant's monitoring snapshot, sorted by name.
func (p *Pool) Stats() []TenantStats {
	tenants := p.tenantsSorted()
	out := make([]TenantStats, len(tenants))
	for i, t := range tenants {
		out[i] = t.Stats()
	}
	return out
}

// BeginShutdown makes the pool refuse new tenants and ends every
// tenant's SSE stream, without draining anything yet. Server.Shutdown
// calls it before draining HTTP: http.Server.Shutdown waits for
// connections to go idle, and an SSE subscriber never goes idle on its
// own — without this the drain (and therefore the final snapshot) stalls
// for the whole grace period behind a single connected client. Refusing new
// tenants first closes the race where a tenant created mid-drain gets a
// fresh broker that a late subscriber could hang the drain on.
// Idempotent; returns the tenants present at shutdown, name-sorted.
func (p *Pool) BeginShutdown() []*Tenant {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	// Once closed is set no tenant is ever published (GetOrCreate
	// re-checks it under p.mu), so the set read here is final.
	tenants := p.tenantsSorted()
	for _, t := range tenants {
		t.broker.close()
	}
	return tenants
}

// Shutdown stops ingest on every tenant, drains their queues (bounded by
// ctx), seals each archive and — only after a successful seal — writes
// each WAL's final snapshot, so a restart replays nothing. The first
// error is returned, but every tenant is still processed.
// Concurrent calls block until the shutdown pass completes (bounded by
// their own ctx) rather than reporting success while it is in flight.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.shutdownOnce.Do(func() {
		defer close(p.shutdownDone)
		// Stop the supervisor before anything closes: a probe's Reopen
		// racing a WAL Close would resurrect file handles Shutdown just
		// released. Then the compactor, before any archive closes: a
		// compaction step racing ar.Close would splice segments into a
		// log whose files are gone.
		p.stopSupervisor()
		p.stopCompactor()
		tenants := p.BeginShutdown()
		var first error
		drainFailed := false
		for _, t := range tenants {
			if derr := t.shutdown(ctx); derr != nil {
				drainFailed = true
				if first == nil {
					first = derr
				}
				// The worker may still be applying a batch; touching the
				// WAL now could pair partially-applied state with a
				// pre-batch log position. Leave the log as-is — that is
				// exactly the crash case recovery replays correctly.
				continue
			}
			var err error
			if wl := t.walLog(); wl != nil {
				t.mu.Lock()
				err = t.sealThenSnapshot(t.det.Save)
				t.mu.Unlock()
				if cerr := wl.Close(); err == nil {
					err = cerr
				}
			} else if ar := t.archLog(); ar != nil {
				err = ar.Close()
			}
			if err != nil && first == nil {
				first = err
			}
		}
		// Every tenant is closed, so the runnable queue stays empty; stop
		// the shared workers. If a drain timed out, a worker may be wedged
		// inside its apply step — don't wait on it, exactly as the old
		// per-tenant goroutine was abandoned in that case. The group
		// committer stops last: every log was flushed on Close above, and
		// a straggler append after Stop degrades to a synchronous flush.
		p.sched.stop(!drainFailed)
		p.gc.Stop()
		p.shutdownErr = first
	})
	// Completed-shutdown fast path first: with both channels ready the
	// select below picks randomly, which would report a spurious
	// in-progress error to a caller arriving with an expired ctx.
	select {
	case <-p.shutdownDone:
		return p.shutdownErr
	default:
	}
	select {
	case <-p.shutdownDone:
		return p.shutdownErr
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown in progress: %w", ctx.Err())
	}
}
