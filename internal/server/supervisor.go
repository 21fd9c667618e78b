package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// Degradation reasons, surfaced on /readyz and in DegradedError. The
// vocabulary is deliberately small: dashboards alert on the flag, the
// reason only says which probe has to succeed before recovery.
const (
	// degradedNoSpace: the device returned ENOSPC (or a quota error).
	// More retries cannot help until space is freed; the supervisor
	// probes with a small write until one lands.
	degradedNoSpace = "no_space"
	// degradedIO: a device IO error — a failed WAL flush, which
	// fail-stops the log. The supervisor repairs the log in place
	// (Reopen) at once and then on its cadence.
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
	// degraded is nil while healthy, else why and since when. The first
	// reason wins until recovery clears it.
	degraded atomic.Pointer[degradation]

	// walReopens counts supervised recoveries of the tenant's
	// fail-stopped WAL.
	walReopens atomic.Uint64
}

type degradation struct {
	reason string
	since  time.Time
}

// DegradedInfo is one degraded tenant's entry in the /readyz body.
type DegradedInfo struct {
	Tenant string `json:"tenant"`
	Reason string `json:"reason"`
	// SinceSeconds is how long the tenant has been degraded.
	SinceSeconds float64 `json:"since_seconds"`
}

// enter flips the tenant read-only; a no-op when it already is.
func (h *tenantHealth) enter(reason string) {
	h.degraded.CompareAndSwap(nil, &degradation{reason: reason, since: time.Now()})
}

// Degraded reports whether the tenant is currently in read-only
// degraded mode, and why.
func (t *Tenant) Degraded() (bool, string) {
	if d := t.health.degraded.Load(); d != nil {
		return true, d.reason
	}
	return false, ""
}

// DegradedCheck returns the shed error ingest must be answered with
// while the tenant is degraded, nil when it is healthy. The ingest
// handler calls it before decoding the request body; Enqueue and Flush
// re-check it authoritatively.
func (t *Tenant) DegradedCheck() *DegradedError {
	d := t.health.degraded.Load()
	if d == nil {
		return nil
	}
	return &DegradedError{Tenant: t.name, Reason: d.reason, RetryAfter: t.cfg.degradedProbeInterval}
}

// enterDegraded flips the tenant read-only (idempotent — the first
// reason wins until recovery) and returns the shed error to answer the
// triggering request with.
func (t *Tenant) enterDegraded(reason string) *DegradedError {
	t.health.enter(reason)
	return &DegradedError{Tenant: t.name, Reason: reason, RetryAfter: t.cfg.degradedProbeInterval}
}

// failStorage is the storage-error path of an ingest request: its
// append found the WAL fail-stopped, or the flush its commit waited on
// failed. Device conditions (ENOSPC, EIO) flip the tenant into read-only
// degraded mode: the request is shed with the DegradedError and the
// supervisor, kicked to repair now, owns recovery. So does a
// fail-stopped WAL whatever the error says — shed rather than surface a
// raw internal error the client cannot act on. Anything else — logic
// errors, a closed log — surfaces as a plain error.
func (t *Tenant) failStorage(err error) error {
	var reason string
	switch class := vfs.Classify(err); {
	case class == vfs.ClassNoSpace:
		reason = degradedNoSpace
	case class == vfs.ClassIO, t.storage.failStopped():
		reason = degradedIO
	default:
		return fmt.Errorf("server: tenant %s: %w", t.name, err)
	}
	derr := t.enterDegraded(reason)
	t.storage.kick()
	return derr
}

// supervisor is the pool's one background goroutine: on its probe
// cadence, or at once when a storage failure kicks it, it takes every
// published tenant through probeStorage in name order. One goroutine for
// the whole pool — degradation is rare and the probe is cheap, so
// per-tenant probers would only multiply shutdown edges. A nil
// *supervisor is one that never started: kick and halt are no-ops on it.
type supervisor struct {
	stop chan struct{}
	wake chan struct{}
	done chan struct{}
	once sync.Once
}

// startSupervisor starts the supervisor once every tenant on disk is
// restored. It only has work when a WAL exists.
func (p *Pool) startSupervisor() {
	if p.cfg.WALDir == "" {
		return
	}
	s := &supervisor{stop: make(chan struct{}), wake: make(chan struct{}, 1), done: make(chan struct{})}
	p.supervisor = s
	go func() {
		defer close(s.done)
		tick := time.NewTicker(p.cfg.degradedProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-s.wake:
			case <-tick.C:
			}
			for _, t := range p.tenantsSorted() {
				select {
				case <-s.stop:
					return
				default:
				}
				t.probeStorage()
			}
		}
	}()
}

// kick starts a pass now instead of at the next tick. Non-blocking; a
// kick while one is pending coalesces.
func (s *supervisor) kick() {
	if s == nil {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// halt stops the supervisor and waits for the probe in flight to
// finish; idempotent. Shutdown halts it before anything closes: a
// probe's reopen racing a WAL Close would resurrect file handles
// Shutdown just released.
func (s *supervisor) halt() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// kickSupervisor nudges the supervisor to probe now instead of waiting
// out the cadence — called when a storage failure flips a tenant
// degraded, so short outages recover on the next probe, not the next
// tick.
func (p *Pool) kickSupervisor() { p.supervisor.kick() }

// probeStorage is one supervisor turn for this tenant: repair a
// fail-stopped WAL in place, and when the tenant is degraded, verify
// that every device it writes actually works again (a real write probe
// in each of its directories — not just the absence of recent errors)
// before accepting ingest again. The reopen waits on no queued or
// in-flight batch: one whose record it discards is dropped at apply.
func (t *Tenant) probeStorage() {
	if t.storage.failStopped() {
		start := time.Now()
		if err := t.storage.reopen(); err != nil {
			// Still sick. Stay (or become) degraded so ingest sheds
			// instead of fail-stopping the log again per request.
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
	if t.health.degraded.Load() == nil {
		return
	}
	for _, dir := range t.storage.dirs() {
		if err := probeWrite(t.cfg.FS, dir); err != nil {
			return // a device is still sick; stay degraded, probe again next turn
		}
	}
	t.health.degraded.Store(nil)
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

// DegradedTenants returns every degraded tenant's entry, name-sorted —
// the /readyz body.
func (p *Pool) DegradedTenants() []DegradedInfo {
	var out []DegradedInfo
	for _, t := range p.tenantsSorted() {
		if d := t.health.degraded.Load(); d != nil {
			out = append(out, DegradedInfo{Tenant: t.name, Reason: d.reason, SinceSeconds: time.Since(d.since).Seconds()})
		}
	}
	return out
}
