package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/stream"
)

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

// Tenant is one isolated detector: a bounded ingest queue drained by the
// pool's shared scheduler, the (single-threaded) detector it feeds, and
// an SSE broker for push notification.
//
// Reads are wait-free: after every quantum the apply step publishes an
// immutable epoch snapshot (detect.Snapshot) through an atomic pointer,
// and every query endpoint resolves against the latest snapshot without
// touching t.mu. The mutex has shrunk to the APPLY lock — it serialises
// batch application and WAL snapshot writes against each other, never
// against queries.
type Tenant struct {
	name   string
	cfg    PoolConfig // the pool's resolved configuration
	broker *broker
	sched  *scheduler

	// obs is the tenant's telemetry handle: stage histograms plus the
	// slow-request ring.
	obs *obs.TenantObs

	// qmu guards sends to and receives from the batch queue, the
	// scheduled and closed flags, and WAL appends (so WAL record order
	// is queue order). It is never held while a batch is applying. The
	// WAL append under it is a memory copy: the durability wait
	// (Log.Commit) happens after qmu is released. Admission keeps a slot
	// of queue free for every send, so no send under qmu blocks.
	qmu       sync.Mutex
	queue     chan walBatch // capacity QueueDepth
	scheduled bool          // t is in the scheduler's runnable queue or mid-apply
	closed    bool
	drainDone bool
	drained   chan struct{} // closed when closed and fully drained
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

	// Durability. storage owns the WAL and archive handles (see
	// storage.go); health is its degradation record — the read-only flag
	// plus recovery counters (see supervisor.go). lastApplied is the WAL
	// seq of the last fully applied batch — the only safe snapshot
	// position; lastSnapQuantum tracks the quantum of the newest snapshot
	// for cadence and the snapshot-age metric (written only by the apply
	// step, read by /metrics).
	storage         *tenantStorage
	health          *tenantHealth
	lastApplied     atomic.Uint64
	lastSnapQuantum atomic.Int64

	// Wait-free read state. snap is the latest epoch snapshot; lastEvent
	// the newest SSE payload (for catch-up); msgs mirrors det.Processed()
	// per quantum and per applied batch; elapsed/since feed the throughput
	// stats.
	snap      atomic.Pointer[detect.Snapshot]
	lastEvent atomic.Pointer[StreamEvent]
	msgs      atomic.Uint64
	elapsed   atomic.Int64 // ns of detector time spent this process
	since     atomic.Uint64

	mu  sync.Mutex // the apply lock: guards det during apply/snapshot
	det *detect.Detector
}

// akgCounters is the tenant-side accumulator behind the akg_* metrics:
// written by the apply step once per quantum, read by /metrics.
type akgCounters struct {
	pairsScreened, pairsPassed, sketchRebuilds, sketchUpdates, jaccardBails, tracks atomic.Uint64
	dirtyNodes, windowEntries, tracked                                              atomic.Int64
}

func (c *akgCounters) add(st *akg.QuantumStats) {
	c.pairsScreened.Add(uint64(st.PairsScreened))
	c.pairsPassed.Add(uint64(st.PairsPassed))
	c.sketchRebuilds.Add(uint64(st.SketchRebuilds))
	c.sketchUpdates.Add(uint64(st.SketchUpdates))
	c.jaccardBails.Add(uint64(st.JaccardBails))
	c.tracks.Add(uint64(st.Tracks))
	c.dirtyNodes.Store(int64(st.DirtyNodes))
	c.windowEntries.Store(int64(st.WindowEntries))
	c.tracked.Store(int64(st.Tracked))
}

// newTenant wraps a detector — fresh or restored, its retention cap and
// eviction hook already attached by st — in its queue, broker and read
// state.
func newTenant(det *detect.Detector, st *tenantStorage, sched *scheduler) *Tenant {
	name, cfg, tob := st.name, st.cfg, st.obs
	t := &Tenant{
		name:          name,
		cfg:           cfg,
		broker:        newBroker(),
		sched:         sched,
		queue:         make(chan walBatch, cfg.QueueDepth),
		drained:       make(chan struct{}),
		det:           det,
		maxQueuedMsgs: int64(cfg.QueueMessages),
		storage:       st,
		health:        &st.health,
		admit:         newAdmission(cfg),
		obs:           tob,
	}
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
		// Publish the message count and the epoch snapshot before
		// announcing the quantum over SSE: a subscriber that reacts to the
		// notification with /metrics or a query must observe at least this
		// quantum.
		t.msgs.Store(det.Processed())
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

// queueLen returns the accepted-but-unapplied batch count.
func (t *Tenant) queueLen() int { return len(t.queue) }

// pushLocked queues a batch and marks the tenant runnable; qmu held and
// a slot free.
func (t *Tenant) pushLocked(b walBatch) {
	t.queue <- b
	if !t.scheduled {
		t.scheduled = true
		t.runnableAt = time.Now()
		t.sched.submit(t)
	}
}

// finishDrainLocked closes drained once the tenant is closed, idle and
// empty; qmu held. Safe to call any number of times.
func (t *Tenant) finishDrainLocked() {
	if t.closed && !t.scheduled && len(t.queue) == 0 && !t.drainDone {
		t.drainDone = true
		close(t.drained)
	}
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
	if len(t.queue) == 0 {
		t.scheduled = false
		t.finishDrainLocked()
		t.qmu.Unlock()
		return
	}
	batch := <-t.queue
	t.qmu.Unlock()

	t.apply(batch)

	t.qmu.Lock()
	if len(t.queue) > 0 {
		t.runnableAt = time.Now()
		t.sched.submit(t) // back of the line: other tenants go first
	} else {
		t.scheduled = false
		t.finishDrainLocked()
	}
	t.qmu.Unlock()
}

// recordApplied is applyRecord's hook on the live path, run once per
// batch with the apply lock held.
func (t *Tenant) recordApplied(n int) {
	t.msgs.Store(t.det.Processed())
	t.since.Add(uint64(n))
}

// apply ingests one batch (or flush marker) into the detector. Queries
// don't take the apply lock at all — they read the epoch snapshot the
// quantum hook publishes.
func (t *Tenant) apply(batch walBatch) {
	// Queue wait: accepted (pushed) to picked up by a worker, measured
	// before the commit below — durability time has its own histograms.
	t.obs.Observe(obs.StageQueueWait, time.Since(batch.enq))
	// Never apply a batch before its WAL record is durable. The producer
	// may still be committing it (or not yet have started), and applying
	// early would let side effects of the batch (archive writes keyed by
	// eviction ordinal, snapshots) reach disk for a record a crash can
	// still lose — recovery would then disagree with the on-disk
	// artifacts. If the commit fails — the flush carrying the record
	// failed, or a supervised reopen has since discarded it — the batch
	// was never acknowledged: drop it without touching the detector,
	// keeping memory consistent with what recovery will rebuild.
	if err := t.storage.commit(batch.seq); err != nil {
		t.queuedMsgs.Add(-int64(len(batch.msgs)))
		t.applied.Add(1)
		return
	}
	applyRecord(t.det, &t.mu, batch.msgs, batch.flush, t.recordApplied)
	t.lastApplied.Store(batch.seq)
	t.maybeSnapshot()
	t.queuedMsgs.Add(-int64(len(batch.msgs)))
	t.applied.Add(1)
}

// maybeSnapshot checkpoints the detector through the storage owner's
// snapshot path once enough quanta have passed since the last snapshot.
// It runs synchronously on the worker between batches — that is what
// makes lastApplied exactly name the state captured, and it deliberately
// paces ingest to snapshot IO at the cadence point. Detector.Save writes
// under the apply lock, as Pool.Shutdown's final snapshot does: queries
// never take that lock and WAL appends from Enqueue take qmu, so both
// proceed during the write; only this tenant's batch application, which
// runs on this same goroutine, waits.
func (t *Tenant) maybeSnapshot() {
	if !t.storage.durable() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.det.AKG().Quantum()
	if q-int(t.lastSnapQuantum.Load()) < t.cfg.SnapshotEvery {
		return
	}
	err := t.storage.snapshot(t.lastApplied.Load(), t.det.Save)
	if err == nil && q > int(t.lastSnapQuantum.Load()) {
		t.lastSnapQuantum.Store(int64(q))
	}
}

// Name returns the tenant name.
func (t *Tenant) Name() string { return t.name }

// Enqueue hands a batch to the tenant's worker. It never blocks on
// other tenants: a full queue returns ErrQueueFull (the client should
// retry), a batch that could never fit even in an empty queue returns
// ErrBatchTooLarge (retrying is futile — the client must split it), and
// a shut-down tenant returns ErrClosed. With the WAL enabled the batch
// is durable before Enqueue returns: appended to the log's pending
// buffer, then committed — written and fsynced by the flush that covers
// it, which concurrent Enqueues on the tenant share. A flush failure
// fail-stops the tenant's log and the failed batch is dropped unapplied
// (see Tenant.apply), so a client retry can never double-log or
// double-apply it.
func (t *Tenant) Enqueue(msgs []stream.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	t0 := time.Now()
	t.qmu.Lock()
	if err := t.admitLocked(len(msgs)); err != nil {
		t.qmu.Unlock()
		return err
	}
	t1 := time.Now()
	t.obs.Observe(obs.StageAdmission, t1.Sub(t0))
	_, err := t.submitLocked(walBatch{msgs: msgs}, t1)
	return err
}

// admitLocked decides whether a batch of n messages may enter the queue;
// qmu held. Admission must be decided before the WAL append: a batch
// logged but then rejected would reappear at recovery as data the client
// was told to retry. Only a scheduler worker pops, and only under qmu,
// so a free slot observed here stays free until the caller's push.
func (t *Tenant) admitLocked(n int) error {
	if t.closed {
		return ErrClosed
	}
	// Degraded tenants are read-only: shed before the admission gates so
	// a sick device never sees another write and the client gets the
	// supervisor's probe cadence as its Retry-After.
	if derr := t.DegradedCheck(); derr != nil {
		return derr
	}
	if int64(n) > t.maxQueuedMsgs {
		return ErrBatchTooLarge
	}
	// Overload protection fires before the hard bounds and before the
	// WAL append — a shed batch must leave no trace anywhere. The
	// queue-depth gate turns load away while the queue still has
	// headroom (Retry-After estimated from the tenant's observed apply
	// rate); the token bucket caps the tenant's sustained message rate
	// and is checked last so a batch the queue would reject anyway never
	// burns tokens.
	if se := t.admit.checkQueueLocked(n, len(t.queue), t.cfg.QueueDepth,
		t.queuedMsgs.Load(), t.maxQueuedMsgs); se != nil {
		se.RetryAfter = t.drainEstimate()
		t.shedQueue.Add(1)
		t.shedMsgs.Add(uint64(n))
		return se
	}
	if t.queuedMsgs.Load()+int64(n) > t.maxQueuedMsgs || len(t.queue) >= t.cfg.QueueDepth {
		return ErrQueueFull
	}
	if se := t.admit.checkRate(n); se != nil {
		t.shedRateLimit.Add(1)
		t.shedMsgs.Add(uint64(n))
		return se
	}
	return nil
}

// submitLocked is the one write path a queued item takes, batch or flush
// marker: log it, queue it under the sequence the log gave it (so queue
// order is WAL order), release qmu, wait for durability. Called with qmu
// held, at time start; returns with qmu released and the value of
// accepted that counts b. A storage error — the append's or the
// commit's — ends in failStorage: the item was never acknowledged and,
// if queued, will be dropped unapplied.
func (t *Tenant) submitLocked(b walBatch, start time.Time) (uint64, error) {
	var err error
	if b.seq, err = t.storage.append(b.msgs, b.flush); err != nil {
		t.qmu.Unlock()
		return 0, t.failStorage(err)
	}
	b.enq = start
	// The WAL stages time batches only, and only when there is a log.
	timed := b.seq > 0 && !b.flush
	if timed {
		b.enq = time.Now()
		t.obs.Observe(obs.StageWALAppend, b.enq.Sub(start))
	}
	t.pushLocked(b)
	t.queuedMsgs.Add(int64(len(b.msgs)))
	target := t.accepted.Add(1)
	t.qmu.Unlock()
	// The durability wait happens outside qmu: it must not delay other
	// producers or this tenant's scheduler pop, and appends that land
	// while one producer's flush is in flight ride the next flush
	// together. A commit failure fail-stopped the log; the supervisor
	// owns the reopen — degrade now so the client's retry sheds cheaply
	// instead of fail-stopping again.
	if err := t.storage.commit(b.seq); err != nil {
		return 0, t.failStorage(err)
	}
	if timed {
		t.obs.Observe(obs.StageWALCommit, time.Since(b.enq))
	}
	return target, nil
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
	se := t.admit.checkQueueLocked(0, len(t.queue), t.cfg.QueueDepth,
		t.queuedMsgs.Load(), t.maxQueuedMsgs)
	if se != nil {
		se.RetryAfter = t.drainEstimate()
		t.shedQueue.Add(1)
	}
	return se
}

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
		if len(t.queue) < t.cfg.QueueDepth {
			// Same write path and durability contract as Enqueue.
			var err error
			if target, err = t.submitLocked(walBatch{flush: true}, time.Now()); err != nil {
				return err
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
