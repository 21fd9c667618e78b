package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Degradation reasons, surfaced on /readyz and in DegradedError. The
// vocabulary is deliberately small: dashboards alert on the flag, the
// reason only says which probe has to succeed before recovery.
const (
	// degradedNoSpace: the device returned ENOSPC (or a quota error).
	// More retries cannot help until space is freed; the supervisor
	// probes with a small write until one lands.
	degradedNoSpace = "no_space"
	// degradedIO: a device IO error persisted past the inline retry
	// budget, or a group-commit flush fail-stopped the WAL. The
	// supervisor repairs the log in place (Reopen) on its cadence.
	degradedIO = "io_error"
)

// DegradedError reports that the tenant is in read-only degraded mode:
// its storage is sick, ingest is shed to protect the acked history, and
// queries keep serving from the live epoch snapshot. Handlers map it to
// 503 Service Unavailable with a Retry-After hint — the supervisor's
// probe cadence, since that is when the answer can change.
type DegradedError struct {
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("server: tenant %s degraded (%s): ingest is read-only; retry after %s",
		e.Tenant, e.Reason, e.RetryAfter)
}

// tenantHealth is one tenant's storage-degradation state. The degraded
// flag is the ingest hot path's only touchpoint — one atomic load per
// Enqueue; everything else is read by /metrics and /readyz.
type tenantHealth struct {
	degraded atomicDegraded

	// walReopens counts supervised quarantine-and-reopen recoveries of
	// the tenant's fail-stopped WAL; storageRetries counts inline
	// retry turns after transient device errors on the ingest path.
	walReopens     atomic.Uint64
	storageRetries atomic.Uint64
}

// DegradedInfo is one degraded tenant's entry in the /readyz body.
type DegradedInfo struct {
	Tenant string `json:"tenant"`
	Reason string `json:"reason"`
	// SinceSeconds is how long the tenant has been degraded.
	SinceSeconds float64 `json:"since_seconds"`
}

// Degraded reports whether the tenant is currently in read-only
// degraded mode, and why.
func (t *Tenant) Degraded() (bool, string) {
	return t.health.degraded.get()
}

// DegradedCheck returns the shed error ingest must be answered with
// while the tenant is degraded, nil when it is healthy. The ingest
// handler calls it before decoding the request body; Enqueue and Flush
// re-check it authoritatively.
func (t *Tenant) DegradedCheck() *DegradedError {
	down, reason := t.health.degraded.get()
	if !down {
		return nil
	}
	return &DegradedError{Tenant: t.name, Reason: reason, RetryAfter: t.cfg.DegradedProbeInterval}
}

// enterDegraded flips the tenant read-only (idempotent — the first
// reason wins until recovery) and returns the shed error to answer the
// triggering request with.
func (t *Tenant) enterDegraded(reason string) *DegradedError {
	t.health.degraded.set(reason)
	return &DegradedError{Tenant: t.name, Reason: reason, RetryAfter: t.cfg.DegradedProbeInterval}
}

// storageFailed classifies a storage error that escaped the inline
// retry budget and converts it into the tenant's degraded mode: the
// caller sheds this request, the supervisor owns recovery. Device
// conditions (ENOSPC, persistent EIO) degrade; anything else — logic
// errors, a closed log — is returned as-is for the normal error path.
func (t *Tenant) storageFailed(err error) error {
	switch vfs.Classify(err) {
	case vfs.ClassNoSpace:
		return t.enterDegraded(degradedNoSpace)
	case vfs.ClassIO:
		return t.enterDegraded(degradedIO)
	}
	// Not a device condition — but if the WAL fail-stopped (a group
	// commit covering this batch failed on another tenant's turn, say),
	// the supervisor still owns the reopen; shed rather than surface a
	// raw internal error the client cannot act on.
	if wl := t.walLog(); wl != nil && wl.Failed() != nil {
		return t.enterDegraded(degradedIO)
	}
	return err
}

// errReopenBusy defers a supervised reopen: a batch whose record the
// reopen would discard is still mid-apply. Its Commit is guaranteed to
// fail while the log stays fail-stopped (that is what drops it), so the
// next probe turn finds the queue clean.
var errReopenBusy = errors.New("server: wal reopen deferred: discarded batch still draining")

// reopenWALLocked recovers a fail-stopped WAL in place and evicts every
// queued batch whose record the reopen discards (seq past the acked
// prefix). Those batches were never acknowledged — their producer's
// Commit failed — so dropping them keeps the detector consistent with
// what replay rebuilds; leaving them queued would let a post-reopen
// append reuse their seq and apply them under another record's
// durability. Caller holds t.qmu, which also serializes this against
// Enqueue's append-then-commit window.
func (t *Tenant) reopenWALLocked(wl *wal.Log) error {
	committed := wl.CommittedSeq()
	if t.inflightSeq > committed {
		return errReopenBusy
	}
	w := t.pendHead
	for i := t.pendHead; i < len(t.pending); i++ {
		b := t.pending[i]
		if b.seq > committed {
			t.queuedMsgs.Add(-int64(len(b.msgs)))
			t.applied.Add(1)
			continue
		}
		t.pending[w] = b
		w++
	}
	for i := w; i < len(t.pending); i++ {
		t.pending[i] = walBatch{} // release the msgs for GC
	}
	t.pending = t.pending[:w]
	t.finishDrainLocked()
	return wl.Reopen()
}

// probeStorage is one supervisor turn for this tenant: repair a
// fail-stopped WAL in place, and when the tenant is degraded, verify
// the device actually works again (a real write probe — not just the
// absence of recent errors) before accepting ingest again.
func (t *Tenant) probeStorage(fsys vfs.FS, walDir string) {
	wl := t.walLog()
	if wl != nil && wl.Failed() != nil {
		start := time.Now()
		t.qmu.Lock()
		err := t.reopenWALLocked(wl)
		t.qmu.Unlock()
		if err == errReopenBusy {
			return // drains in microseconds; repair next turn
		}
		if err != nil {
			// Still sick. Stay (or become) degraded so ingest sheds
			// instead of burning its retry budget per request.
			switch vfs.Classify(err) {
			case vfs.ClassNoSpace:
				t.enterDegraded(degradedNoSpace)
			default:
				t.enterDegraded(degradedIO)
			}
			return
		}
		t.health.walReopens.Add(1)
		t.obs.Observe(obs.StageWALReopen, time.Since(start))
	}
	if down, _ := t.health.degraded.get(); !down {
		return
	}
	if walDir != "" {
		if err := probeWrite(fsys, filepath.Join(walDir, t.name)); err != nil {
			return // device still sick; stay degraded, probe again next turn
		}
	}
	t.health.degraded.clear()
}

// probeWrite proves the device under dir accepts and persists a small
// write: create, write, fsync, remove. ENOSPC recovery hinges on this
// being a real write — free space reported by statfs can be reserved,
// and an EIO path can pass metadata ops while failing data ones.
func probeWrite(fsys vfs.FS, dir string) error {
	path := filepath.Join(dir, ".probe")
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("ok\n"))
	serr := f.Sync()
	cerr := f.Close()
	fsys.Remove(path) //nolint:errcheck // best effort; next probe truncates
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// superviseLoop is the pool's degradation supervisor: on a fixed probe
// cadence (or immediately when kicked by a storage failure) it walks
// the tenants, reopens fail-stopped WALs, and clears degraded mode once
// a write probe proves the device recovered. One goroutine for the
// whole pool — degradation is rare and the probe is cheap, so per-
// tenant probers would only multiply shutdown edges.
func (p *Pool) superviseLoop() {
	defer close(p.superviseDone)
	tick := time.NewTicker(p.cfg.DegradedProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.superviseStop:
			return
		case <-p.superviseKick:
		case <-tick.C:
		}
		for _, t := range p.tenantsSorted() {
			select {
			case <-p.superviseStop:
				return
			default:
			}
			t.probeStorage(p.fs, p.cfg.WALDir)
		}
	}
}

// kickSupervisor nudges the supervisor to probe now instead of waiting
// out the cadence — called when a storage failure flips a tenant
// degraded, so short outages recover on the next probe, not the next
// tick. Non-blocking; a kick while one is pending coalesces.
func (p *Pool) kickSupervisor() {
	if p.superviseKick == nil {
		return
	}
	select {
	case p.superviseKick <- struct{}{}:
	default:
	}
}

// stopSupervisor halts the supervisor and waits for an in-flight probe
// pass to finish; idempotent, and a no-op when it never started. Must
// run before tenant WALs close so a probe never races a Close.
func (p *Pool) stopSupervisor() {
	if p.superviseStop == nil {
		return
	}
	p.superviseOff.Do(func() { close(p.superviseStop) })
	<-p.superviseDone
}

// DegradedTenants returns every degraded tenant's entry, name-sorted —
// the /readyz body.
func (p *Pool) DegradedTenants() []DegradedInfo {
	var out []DegradedInfo
	for _, t := range p.tenantsSorted() {
		if down, reason := t.health.degraded.get(); down {
			out = append(out, DegradedInfo{
				Tenant:       t.name,
				Reason:       reason,
				SinceSeconds: time.Since(t.health.degraded.since()).Seconds(),
			})
		}
	}
	return out
}

// atomicDegraded is a flag + reason + start time under one small
// mutex, with a lock-free fast path for the healthy case.
type atomicDegraded struct {
	flag atomic.Bool
	mu   sync.Mutex
	why  string
	at   time.Time
}

func (d *atomicDegraded) get() (bool, string) {
	if !d.flag.Load() {
		return false, ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return true, d.why
}

func (d *atomicDegraded) set(reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.flag.Load() {
		d.why, d.at = reason, time.Now()
		d.flag.Store(true)
	}
}

func (d *atomicDegraded) clear() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flag.Store(false)
	d.why = ""
}

func (d *atomicDegraded) since() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.at
}
