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

// testFaultThenClientRetry injects one device fault into the WAL flush
// an Enqueue's commit leads. The flush fail-stops the log, so the batch
// is refused with a 503 DegradedError — never acknowledged — and the
// kicked supervisor reopens the log in place; the client's retry is
// then acknowledged, and what replays after a restart is that retry,
// once, with no bytes of the failed flush left behind (a torn frame in
// a segment that is no longer the newest would make recovery refuse
// the directory).
func testFaultThenClientRetry(t *testing.T, fault vfs.Rule) {
	pool, ffs, dir := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fault)
	var deg *DegradedError
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); !errors.As(err, &deg) || deg.Reason != degradedIO {
		t.Fatalf("Enqueue through a failed flush = %v, want DegradedError %q (batch not acked)", err, degradedIO)
	}
	if got := ffs.Injected(); got == 0 {
		t.Fatal("fault was never injected; the test exercised nothing")
	}
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "supervised WAL reopen")
	if got := sample(t, tn, "eventdetect_wal_reopens_total"); got == 0 {
		t.Fatal("WALReopens = 0, want a supervised reopen")
	}
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

// TestTransientEIORetriesInline: one transient write error on the WAL
// flush — 503, supervised reopen, the client's retry lands once.
func TestTransientEIORetriesInline(t *testing.T) {
	testFaultThenClientRetry(t, vfs.Rule{Op: vfs.OpWrite, Path: "wal", Count: 1})
}

// TestTornWriteRetriesInline: a flush write torn mid-frame (short write
// + EIO) — 503, supervised reopen, the client's retry lands once, and
// no torn bytes are left for replay to trip on.
func TestTornWriteRetriesInline(t *testing.T) {
	testFaultThenClientRetry(t, vfs.Rule{Op: vfs.OpWrite, Path: "wal", Count: 1, TornBytes: 7})
}

// TestTornFsyncClientRetryLandsOnce: a failed fsync whose write already
// landed — the power-cut-mid-fsync shape. The frame must be rolled back
// and the request refused, and the client's retry of the same batch
// must be what replays: once, not twice.
func TestTornFsyncClientRetryLandsOnce(t *testing.T) {
	testFaultThenClientRetry(t, vfs.Rule{Op: vfs.OpSync, Path: "wal", Count: 1})
}

// TestPersistentEIODegradesThenRecovers: under a persistent device error
// the tenant must land in read-only degraded mode (not crash, not
// block), shed with a DegradedError without touching the log, and
// recover in-process once the device heals — via the supervisor, no
// restart.
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
	if m := tenantSamples(t, tn); m["eventdetect_degraded"] != 1 {
		t.Fatalf("metrics = %v, want degraded", m)
	}
	// Degraded mode is a fast shed: the batch never reaches the log.
	before := tn.storage.wal.LastSeq()
	if err := tn.Enqueue(quantumOf(8, "flood river rising")); !errors.As(err, &deg) {
		t.Fatalf("second Enqueue = %v, want DegradedError", err)
	}
	if tn.storage.wal.LastSeq() != before {
		t.Fatal("a degraded shed appended to the log")
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

// TestENOSPCDegradesImmediately: the tenant flips read-only, reason
// no_space, on the first out-of-space error, and recovers only after the
// supervisor's write probe proves space is back.
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

// TestGroupCommitFailStopReopens: a failed flush fail-stops the WAL;
// the supervisor must reopen it in-process — counted in wal_reopens —
// and the acked prefix must survive the reopen exactly.
func TestGroupCommitFailStopReopens(t *testing.T) {
	pool, ffs, dir := faultPool(t, nil)
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
		t.Fatalf("Enqueue across a failed flush = %v, want DegradedError", err)
	}
	ffs.ClearRule(rule)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "supervised WAL reopen")
	if got := sample(t, tn, "eventdetect_wal_reopens_total"); got == 0 {
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
	if got := sample(t, tn, "eventdetect_wal_snapshot_seq"); got == 0 {
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
	if errs := sample(t, tn, "eventdetect_wal_errors_total"); errs == 0 {
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
// keeps flowing, evictions pile up in the archive's buffer (each failed
// seal counted in archive_errors), and WAL snapshots keep their cadence,
// each carrying that buffer; a crash in that state finds every eviction
// in the archive exactly once.
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
	m := tenantSamples(t, tn)
	if m["eventdetect_archive_errors_total"] == 0 || m["eventdetect_archive_columnar_segments"] != 0 || m["eventdetect_archive_events"] == 0 {
		t.Fatalf("archive writes were meant to fail with the evictions kept buffered: %v", m)
	}
	// The snapshot cadence does not wait for the archive device.
	for _, startUser := range []int{900, 950} {
		snapped := m["eventdetect_wal_snapshot_seq"]
		for i := 0; i < 4; i++ {
			if err := tn.Enqueue(quantumOf(startUser+8*i, "volcano ash cloud grounded flights")); err != nil {
				t.Fatalf("ingest must keep flowing through archive faults: %v", err)
			}
		}
		waitApplied(t, tn)
		if m = tenantSamples(t, tn); m["eventdetect_wal_snapshot_seq"] <= snapped {
			t.Fatalf("snapshot stuck at %v behind a failing archive device: %v", snapped, m)
		}
	}
	if down, _ := tn.Degraded(); down {
		t.Fatal("an archive IO error must not degrade ingest")
	}
	if m["eventdetect_archive_columnar_segments"] != 0 || ffs.Injected() == 0 {
		t.Fatalf("the archive device healed on its own: %v", m)
	}
	evicted := int(m["eventdetect_archive_events"])
	if evicted < len(ref.evicted) {
		t.Fatalf("archive holds %d events, the burst stream alone evicts %d", evicted, len(ref.evicted))
	}

	// Crash (the pool is abandoned, its buffer with it, the device still
	// failing) and reopen on a healthy one.
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

// TestDiscardedBatchNeverApplied: a queued batch whose record a
// supervised reopen discarded is never acknowledged and never applied,
// and the supervisor reopens without waiting on the batch in flight.
// The worker is frozen mid-batch (the apply lock held) across the whole
// fault: batch A, acknowledged, is in flight; the flush carrying batch B
// fails, so B is refused but stays queued; the supervisor reopens
// anyway; batch C, acknowledged after the reopen, gets a seq past B's.
// Released, the worker applies A, drops B, applies C — exactly what
// replay rebuilds.
func TestDiscardedBatchNeverApplied(t *testing.T) {
	pool, ffs, dir := faultPool(t, nil)
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Enqueue(quantumOf(0, "earthquake struck city center")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, tn)

	tn.mu.Lock() // freeze the worker inside its next apply
	frozen := true
	defer func() {
		if frozen {
			tn.mu.Unlock()
		}
	}()
	if err := tn.Enqueue(quantumOf(8, "flood river rising fast")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return tn.queueLen() == 0 }, "the worker to take batch A")
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal", Count: 1})
	var deg *DegradedError
	if err := tn.Enqueue(quantumOf(16, "storm warning coastal towns")); !errors.As(err, &deg) {
		t.Fatalf("Enqueue of batch B through a failed flush = %v, want DegradedError", err)
	}
	b := tn.storage.wal.LastSeq()
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "the supervised reopen, with batch A still in flight")
	if got := sample(t, tn, "eventdetect_wal_reopens_total"); got == 0 {
		t.Fatal("WALReopens = 0, want a supervised reopen")
	}
	if err := tn.Enqueue(quantumOf(24, "volcano ash cloud grounded flights")); err != nil {
		t.Fatalf("Enqueue of batch C after the reopen: %v", err)
	}
	if c := tn.storage.wal.LastSeq(); c <= b {
		t.Fatalf("batch C got seq %d, not past the discarded batch B's %d", c, b)
	}

	tn.mu.Unlock()
	frozen = false
	waitApplied(t, tn)
	if got := tn.msgs.Load(); got != 24 {
		t.Fatalf("applied %d messages, want 24 (the first batch, A and C; never B)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := replayCount(t, dir, "acme"); got != 24 {
		t.Fatalf("recovered %d messages, want 24", got)
	}
}

// TestArchiveDeviceFullStaysDegraded: the supervisor's write probe covers
// every device the tenant writes. A full archive volume degrades the
// tenant (an eviction's seal fails), and it stays degraded —
// no_space — probe after probe, however healthy the WAL's volume is;
// once space frees on the archive volume too, it recovers.
func TestArchiveDeviceFullStaysDegraded(t *testing.T) {
	pool, ffs, _ := faultPool(t, func(c *PoolConfig) {
		c.Detector = persistCfg()
		c.RetainEvents = 1
		c.SnapshotEvery = 3
		c.ArchiveDir = filepath.Join(filepath.Dir(c.WALDir), "archive")
		c.archiveSegmentEvents = 2
	})
	tn, err := pool.GetOrCreate("acme")
	if err != nil {
		t.Fatal(err)
	}
	full := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: tn.cfg.ArchiveDir, Err: syscall.ENOSPC})
	for _, b := range burstBatches() {
		var deg *DegradedError
		if err := tn.Enqueue(b); errors.As(err, &deg) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return sample(t, tn, "eventdetect_archive_errors_total") > 0 }, "an archive seal to fail")
	probes := ffs.Injected()
	for i := 0; i < 10; i++ {
		time.Sleep(tn.cfg.degradedProbeInterval)
		if down, reason := tn.Degraded(); !down || reason != degradedNoSpace {
			t.Fatalf("probe cadence %d: degraded = %v (%q), want still %q while the archive volume is full", i, down, reason, degradedNoSpace)
		}
	}
	if ffs.Injected() == probes {
		t.Fatal("no probe wrote to the archive volume")
	}
	ffs.ClearRule(full)
	waitFor(t, 5*time.Second, func() bool {
		down, _ := tn.Degraded()
		return !down
	}, "recovery once the archive volume has space")
}
