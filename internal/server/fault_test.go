package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// faultPool builds a pool whose storage goes through a FaultFS, with a
// fast supervisor cadence so degraded tenants recover within test time.
func faultPool(t *testing.T, mutate func(*PoolConfig)) (*Pool, *vfs.FaultFS, string) {
	t.Helper()
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	cfg := PoolConfig{
		Detector:              testDetectConfig(),
		WALDir:                filepath.Join(dir, "wal"),
		FS:                    ffs,
		degradedProbeInterval: 10 * time.Millisecond,
		storageRetryBackoff:   time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	pool, err := NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		pool.Shutdown(ctx) //nolint:errcheck // faults may leave a sad log behind
	})
	return pool, ffs, dir
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitApplied blocks until every accepted batch has been applied.
func waitApplied(t *testing.T, tn *Tenant) {
	t.Helper()
	waitFor(t, 5*time.Second, func() bool {
		return tn.applied.Load() == tn.accepted.Load()
	}, "queue drain")
}

// replayCount reopens the pool on the same directories and returns how
// many messages the named tenant recovered — the acked-prefix check.
func replayCount(t *testing.T, dir string, name string) uint64 {
	t.Helper()
	pool, err := NewPool(PoolConfig{
		Detector: testDetectConfig(),
		WALDir:   filepath.Join(dir, "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		pool.Shutdown(ctx) //nolint:errcheck // read-only reopen
	}()
	tn, ok := pool.Tenant(name)
	if !ok {
		t.Fatalf("tenant %s not recovered", name)
	}
	return tn.msgs.Load()
}

// TestTransientEIORetriesInline: one transient write error on the WAL
// append path must recover inside Enqueue — the client sees success,
// never a shed — and the retry is visible on the metrics surface.
func TestTransientEIORetriesInline(t *testing.T) {
	pool, ffs, dir := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Count: 1})
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatalf("Enqueue with transient EIO: %v", err)
	}
	if got := ffs.Injected(); got == 0 {
		t.Fatal("fault was never injected; the test exercised nothing")
	}
	m := tn.Metrics()
	if m.Degraded {
		t.Fatal("transient error degraded the tenant")
	}
	if m.StorageRetries == 0 {
		t.Fatal("StorageRetries = 0, want at least one retry turn")
	}
	waitApplied(t, tn)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir, "acme"); got != 8 {
		t.Fatalf("recovered %d messages, want 8", got)
	}
}

// TestTornWriteRetriesInline: a write torn mid-frame (short write + EIO)
// must roll back cleanly and succeed on the inline retry, leaving no
// torn bytes for replay to trip on.
func TestTornWriteRetriesInline(t *testing.T) {
	pool, ffs, dir := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Count: 1, TornBytes: 7})
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatalf("Enqueue with torn write: %v", err)
	}
	waitApplied(t, tn)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir, "acme"); got != 8 {
		t.Fatalf("recovered %d messages, want 8", got)
	}
}

// TestTornFsyncClientRetryLandsOnce: a failed fsync whose write already
// landed — the power-cut-mid-fsync shape, reached through the group
// committer, the only path that fsyncs before an ack. The frame must be
// rolled back and the request refused (never acked), and once the
// supervisor has repaired the log the client's retry of the same batch
// must be what replays: once, not twice.
func TestTornFsyncClientRetryLandsOnce(t *testing.T) {
	pool, ffs, dir := faultPool(t, func(c *PoolConfig) {
		c.WALGroupCommitInterval = 200 * time.Microsecond
	})
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal", Count: 1})
	var deg *DegradedError
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); !errors.As(err, &deg) {
		t.Fatalf("Enqueue with torn fsync = %v, want DegradedError (batch not acked)", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "supervised WAL reopen")
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatalf("client retry after reopen: %v", err)
	}
	waitApplied(t, tn)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir, "acme"); got != 8 {
		t.Fatalf("recovered %d messages, want 8 (the retried batch, once)", got)
	}
}

// TestPersistentEIODegradesThenRecovers: when the device error outlives
// the inline retry budget the tenant must land in read-only degraded
// mode (not crash, not block), shed with a DegradedError, and recover
// in-process once the device heals — via the supervisor, no restart.
func TestPersistentEIODegradesThenRecovers(t *testing.T) {
	pool, ffs, dir := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	rule := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal"})
	err = tn.Enqueue(quantumOf(0, "earthquake struck city center"))
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("Enqueue under persistent EIO = %v, want DegradedError", err)
	}
	if deg.Reason != degradedIO {
		t.Fatalf("reason = %q, want %q", deg.Reason, degradedIO)
	}
	if m := tn.Metrics(); !m.Degraded || m.StorageRetries == 0 {
		t.Fatalf("metrics = %+v, want degraded with retries counted", m)
	}
	// Degraded mode is a fast shed: no retry budget burned per request.
	before := tn.health.storageRetries.Load()
	if err := tn.Enqueue(quantumOf(8, "flood river rising")); !errors.As(err, &deg) {
		t.Fatalf("second Enqueue = %v, want DegradedError", err)
	}
	if tn.health.storageRetries.Load() != before {
		t.Fatal("degraded shed burned retry turns")
	}
	// Reads keep serving while ingest is shed.
	if evs := tn.Snapshot().AllEvents(); evs == nil {
		t.Fatal("query path stopped serving while degraded")
	}
	ffs.ClearRule(rule)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "supervisor probe to clear degraded mode")
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatalf("Enqueue after recovery: %v", err)
	}
	waitApplied(t, tn)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir, "acme"); got != 8 {
		t.Fatalf("recovered %d messages, want exactly the acked batch (8)", got)
	}
}

// TestENOSPCDegradesImmediately: out-of-space is not retried (more
// attempts cannot help) — the tenant flips read-only on the first error
// and recovers only after the supervisor's write probe proves space is
// back.
func TestENOSPCDegradesImmediately(t *testing.T) {
	pool, ffs, _ := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	rule := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Err: syscall.ENOSPC})
	err = tn.Enqueue(quantumOf(0, "earthquake struck city center"))
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("Enqueue under ENOSPC = %v, want DegradedError", err)
	}
	if deg.Reason != degradedNoSpace {
		t.Fatalf("reason = %q, want %q", deg.Reason, degradedNoSpace)
	}
	if got := tn.health.storageRetries.Load(); got != 0 {
		t.Fatalf("storageRetries = %d, want 0 (ENOSPC must not be retried)", got)
	}
	ffs.ClearRule(rule)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "write probe to clear ENOSPC degradation")
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatalf("Enqueue after space freed: %v", err)
	}
	waitApplied(t, tn)
}

// TestGroupCommitFailStopReopens: a group-commit flush failure
// fail-stops the WAL; the supervisor must quarantine-and-reopen it
// in-process — counted in wal_reopens — and the acked prefix must
// survive the reopen exactly.
func TestGroupCommitFailStopReopens(t *testing.T) {
	pool, ffs, dir := faultPool(t, func(c *PoolConfig) {
		c.WALGroupCommitInterval = 200 * time.Microsecond
	})
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	// One acked batch first: the reopen must preserve it.
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, tn)
	rule := ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal"})
	err = tn.Enqueue(quantumOf(8, "flood river rising fast"))
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("Enqueue across failed group flush = %v, want DegradedError", err)
	}
	ffs.ClearRule(rule)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "supervised WAL reopen")
	if got := tn.Metrics().WALReopens; got == 0 {
		t.Fatal("WALReopens = 0, want a supervised reopen")
	}
	// The log resumed in place: new ingest must append and apply.
	if err := tn.Enqueue(quantumOf(16, "storm warning coastal towns")); err != nil {
		t.Fatalf("Enqueue after reopen: %v", err)
	}
	waitApplied(t, tn)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Exactly the two acked batches: the unacked middle one must not
	// reappear (its client was told to retry), the acked ones must.
	if got := replayCount(t, dir, "acme"); got != 16 {
		t.Fatalf("recovered %d messages, want 16 (acked prefix only)", got)
	}
}

// TestSnapshotENOSPCKeepsPrevious: a WAL snapshot write hitting ENOSPC
// must leave the previous snapshot intact and replayable, leave no temp
// debris, and degrade the tenant proactively.
func TestSnapshotENOSPCKeepsPrevious(t *testing.T) {
	pool, ffs, dir := faultPool(t, func(c *PoolConfig) { c.SnapshotEvery = 1 })
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	// First batch advances a quantum and snapshots cleanly.
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, tn)
	if got := tn.Metrics().WALSnapshotSeq; got == 0 {
		t.Fatal("no baseline snapshot was taken; the test would check nothing")
	}
	// Next snapshot runs out of space mid-write. The supervisor's write
	// probe must see the same full disk, or it clears degraded within
	// one probe cadence and the assertions below race the blink.
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "snap-tmp-", Err: syscall.ENOSPC})
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".probe", Err: syscall.ENOSPC})
	if err := tn.Enqueue(quantumOf(8, "flood river rising fast")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, tn)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return down
	}, "failed snapshot to degrade the tenant")
	if errs := tn.Metrics().WALErrors; errs == 0 {
		t.Fatal("WALErrors = 0, want the failed snapshot counted")
	}
	// No temp debris: a crash loop must not fill the disk further.
	orphans, err := filepath.Glob(filepath.Join(dir, "wal", "acme", "snap-tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 0 {
		t.Fatalf("snapshot temp debris left behind: %v", orphans)
	}
	// Space frees: the write probe succeeds and the tenant recovers
	// without a restart.
	ffs.Clear()
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "tenant to recover after space freed")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown after recovery: %v", err)
	}
	// Both acked batches replay from the previous snapshot + tail.
	if got := replayCount(t, dir, "acme"); got != 16 {
		t.Fatalf("recovered %d messages, want 16", got)
	}
}

// TestArchiveFaultsDoNotCrashIngest: a sick archive device is an
// availability event that loses nothing. While its writes fail, ingest
// keeps flowing, evictions pile up in the archive's buffer (counted in
// archive_errors), and no WAL snapshot is allowed past them; once the
// fault clears the buffer syncs, snapshots resume, and a crash right
// after finds every eviction in the archive exactly once.
func TestArchiveFaultsDoNotCrashIngest(t *testing.T) {
	retain := 1
	pool, ffs, dir := faultPool(t, func(c *PoolConfig) {
		c.Detector = persistCfg()
		c.RetainEvents = retain
		c.SnapshotEvery = 3
		c.ArchiveDir = filepath.Join(filepath.Dir(c.WALDir), "archive")
		c.archiveSegmentEvents = 2
	})
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	batches := burstBatches()
	ref := referenceRun(persistCfg(), batches, retain)
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "archive"})
	for _, b := range batches {
		if err := tn.Enqueue(b); err != nil {
			t.Fatalf("ingest must keep flowing through archive faults: %v", err)
		}
	}
	waitApplied(t, tn)
	m := tn.Metrics()
	if m.ArchiveErrors == 0 || m.ArchiveColumnarSegments != 0 || m.ArchiveEvents == 0 {
		t.Fatalf("archive writes were meant to fail with the evictions kept buffered: %+v", m)
	}
	// With evictions stuck in the buffer, no snapshot may pass them,
	// however many cadence points go by.
	stalled := m.WALSnapshotSeq
	more := func(startUser int) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if err := tn.Enqueue(quantumOf(startUser+8*i, "volcano ash cloud grounded flights")); err != nil {
				t.Fatalf("ingest must keep flowing through archive faults: %v", err)
			}
		}
		waitApplied(t, tn)
	}
	more(900)
	if m = tn.Metrics(); m.WALSnapshotSeq != stalled {
		t.Fatalf("snapshot advanced %d → %d past unsynced evictions", stalled, m.WALSnapshotSeq)
	}
	if down, _ := tn.Degraded(); down {
		t.Fatal("an archive IO error must not degrade ingest")
	}
	// The device heals; the next cadence point syncs and snapshots.
	ffs.Clear()
	more(950)
	if m = tn.Metrics(); m.WALSnapshotSeq <= stalled {
		t.Fatalf("no sync + snapshot after the fault cleared: %+v", m)
	}
	evicted := m.ArchiveEvents
	if evicted < len(ref.evicted) {
		t.Fatalf("archive holds %d events, the burst stream alone evicts %d", evicted, len(ref.evicted))
	}

	// Crash (the pool is abandoned, its buffer with it) and reopen.
	pool2, err := NewPool(PoolConfig{
		Detector:             persistCfg(),
		RetainEvents:         retain,
		WALDir:               filepath.Join(dir, "wal"),
		ArchiveDir:           filepath.Join(dir, "archive"),
		archiveSegmentEvents: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background()) //nolint:errcheck // best effort
	tn2, ok := pool2.Tenant("acme")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	recs := archivedRecords(t, tn2)
	if len(recs) != evicted || tn2.storage.arch.Gaps() != 0 {
		t.Fatalf("recovered archive holds %d events with %d gaps, want %d and 0",
			len(recs), tn2.storage.arch.Gaps(), evicted)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("archive record %d has ordinal %d", i, rec.Seq)
		}
		if i < len(ref.evicted) && rec.ID != ref.evicted[i] {
			t.Fatalf("archive record %d = event %d, want %d", i, rec.ID, ref.evicted[i])
		}
	}
}

// TestReadyzReportsDegraded: /healthz stays 200 through degradation
// (the process lives, reads serve) while /readyz flips 503 with the
// degraded tenant list, and ingest sheds 503 + Retry-After.
func TestReadyzReportsDegraded(t *testing.T) {
	pool, ffs, _ := faultPool(t, nil)
	srv := httptest.NewServer(NewHandler(pool))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /readyz = %d, want 200", resp.StatusCode)
	}

	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	rule := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Err: syscall.ENOSPC})
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err == nil {
		t.Fatal("Enqueue under ENOSPC succeeded")
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status   string         `json:"status"`
		Degraded []DegradedInfo `json:"degraded"`
	}
	decodeBody(t, resp, &ready)
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != "degraded" {
		t.Fatalf("/readyz = %d %q, want 503 degraded", resp.StatusCode, ready.Status)
	}
	if len(ready.Degraded) != 1 || ready.Degraded[0].Tenant != "acme" || ready.Degraded[0].Reason != degradedNoSpace {
		t.Fatalf("degraded list = %+v", ready.Degraded)
	}

	// Liveness is unaffected; ingest sheds 503 with Retry-After.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while degraded = %d, want 200", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/acme/messages", quantumOf(8, "flood river rising"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded shed missing Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	decodeBody(t, resp, &body)
	if !strings.Contains(body.Error, "degraded") {
		t.Fatalf("shed body %q does not name degradation", body.Error)
	}

	ffs.ClearRule(rule)
	waitFor(t, 5*time.Second, func() bool {
		r, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			return false
		}
		r.Body.Close()
		return r.StatusCode == http.StatusOK
	}, "/readyz to recover")
}

// TestShutdownMidDegradedLeaksNothing: Shutdown while a tenant is
// degraded — supervisor mid-cadence, producers still hammering — must
// terminate every goroutine the pool started.
func TestShutdownMidDegradedLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	pool, err := NewPool(PoolConfig{
		Detector:              testDetectConfig(),
		WALDir:                filepath.Join(dir, "wal"),
		FS:                    ffs,
		degradedProbeInterval: time.Millisecond,
		storageRetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "wal", Err: syscall.ENOSPC})
	tn.Enqueue(quantumOf(0, "earthquake struck city center")) //nolint:errcheck // degrading on purpose
	if down, _ := tn.Degraded(); !down {
		t.Fatal("tenant did not degrade")
	}
	// Producers racing the shutdown, all shedding.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				tn.Enqueue(quantumOf(8, "flood river rising")) //nolint:errcheck // expected to shed
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let probes and sheds interleave
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pool.Shutdown(ctx) //nolint:errcheck // degraded tenant's final snapshot fails by design
	close(stop)
	<-done
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}, "goroutines to drain after shutdown")
}
