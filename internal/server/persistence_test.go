package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/akg"
	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// persistCfg is a detector configuration with a short window so burst
// events die (and get evicted) quickly.
func persistCfg() detect.Config {
	return detect.Config{Delta: 8, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 3}}
}

// burstBatches builds batches of two 8-message quanta each: five
// sequential keyword bursts of four quanta, so events are born, die of
// window expiry, and (with RetainEvents 1) are evicted along the way.
func burstBatches() [][]stream.Message {
	texts := []string{
		"earthquake struck eastern turkey",
		"flood river rising rapidly",
		"storm warning coast evacuation",
		"election debate results tonight",
		"wildfire spreading canyon homes",
	}
	var all []stream.Message
	for b, text := range texts {
		for q := 0; q < 4; q++ {
			all = append(all, quantumOf(100*b, text)...)
		}
	}
	var batches [][]stream.Message
	for len(all) > 0 {
		n := 16
		if n > len(all) {
			n = len(all)
		}
		batches = append(batches, all[:n])
		all = all[n:]
	}
	return batches
}

// refRun replicates the worker loop exactly: per-message ingest, then
// per-batch retention trim, capturing everything the served run must
// reproduce bit-identically.
type refRun struct {
	views   []EventView
	reports map[int][]detect.Report
	evicted []uint64 // event IDs in eviction order
}

func referenceRun(cfg detect.Config, batches [][]stream.Message, retain int) refRun {
	d := detect.New(cfg)
	out := refRun{reports: map[int][]detect.Report{}}
	d.SetOnQuantum(func(res *detect.QuantumResult) {
		// Copy preserving emptiness (a nil copy would marshal as null
		// where the SSE wire says []).
		cp := make([]detect.Report, len(res.Reports))
		copy(cp, res.Reports)
		out.reports[res.Quantum] = cp
	})
	d.SetOnEvict(func(ev *detect.Event) {
		out.evicted = append(out.evicted, ev.ID)
	})
	for _, b := range batches {
		for _, m := range b {
			d.IngestAll(m)
		}
		if retain > 0 {
			d.TrimFinished(retain)
		}
	}
	d.Flush()
	out.views = viewsOf(d.AllEvents())
	return out
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestCrashRecoveryBitIdentical is the acceptance scenario for the WAL:
// a pool is killed mid-stream — no clean shutdown, a batch accepted but
// not yet applied, the worker frozen mid-pipeline — and a fresh pool on
// the same directories must (a) recover the detector bit-identically,
// (b) produce byte-identical per-quantum reports for the rest of the
// stream, and (c) still serve events archived before the crash, under
// the one durability level — every ack waits for the group-committed
// flush covering its batch, which the subtest is named for. It runs with
// the archive sealing on every eviction (seg-1) and with it never
// reaching its bound (seg-512), where the crash catches evictions still
// in the buffer after a snapshot that covered earlier ones — every WAL
// snapshot must carry the buffered evictions it covers, and the WAL
// tail must regenerate the rest.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	t.Run("group-commit", func(t *testing.T) {
		for _, seg := range []int{1, 512} {
			t.Run(fmt.Sprintf("seg-%d", seg), func(t *testing.T) {
				testCrashRecoveryBitIdentical(t, seg)
			})
		}
	})
}

// archivedRecords reads a tenant's whole archive in eviction order
// through the scan surface the query engine uses.
func archivedRecords(t *testing.T, tn *Tenant) []archive.Record {
	t.Helper()
	var recs []archive.Record
	for _, v := range tn.storage.arch.Segments() {
		if _, _, err := v.ScanPred(archive.Pred{To: -1}, func(r *archive.Record) error {
			recs = append(recs, *r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

func testCrashRecoveryBitIdentical(t *testing.T, segmentEvents int) {
	cfg := persistCfg()
	const retain = 1
	dir := t.TempDir()
	pcfg := PoolConfig{
		Detector:             cfg,
		RetainEvents:         retain,
		WALDir:               filepath.Join(dir, "wal"),
		walSegmentBytes:      2048, // force rotation
		SnapshotEvery:        5,    // several snapshots + compactions, the last before the last eviction
		ArchiveDir:           filepath.Join(dir, "archive"),
		archiveSegmentEvents: segmentEvents,
	}
	batches := burstBatches()
	ref := referenceRun(cfg, batches, retain)
	if len(ref.evicted) < 2 {
		t.Fatalf("test stream too tame: only %d evictions", len(ref.evicted))
	}

	// Phase 1: apply the first eight batches, then accept a ninth that
	// the worker never finishes (frozen mid-batch under the detector
	// lock) — the WAL has it, the detector state does not.
	pool1, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := pool1.GetOrCreate("t")
	if err != nil {
		t.Fatal(err)
	}
	const cut = 8
	for _, b := range batches[:cut] {
		if err := tn.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := tn.Metrics()
	if m.ArchiveEvents == 0 {
		t.Fatalf("no events archived before the crash; stream needs retuning")
	}
	if segmentEvents > 1 && (m.WALSnapshotSeq == 0 || m.ArchiveSegments == m.ArchiveColumnarSegments) {
		t.Fatalf("want a snapshot-driven sync behind and a non-empty buffer at the crash; stream needs retuning: %+v", m)
	}
	tn.mu.Lock() // freeze the worker mid-pipeline; never unlocked
	if err := tn.Enqueue(batches[cut]); err != nil {
		t.Fatal(err)
	}
	// Wait until a scheduler worker has popped the frozen batch off the
	// queue, then abandon pool1 wholesale: no Shutdown, no snapshot,
	// exactly what kill -9 leaves behind.
	for i := 0; tn.queueLen() != 0; i++ {
		if i > 5000 {
			t.Fatal("worker never picked up the frozen batch")
		}
		time.Sleep(time.Millisecond)
	}

	// Phase 2: recover on the same directories.
	pool2, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool2))
	defer ts.Close()

	tn2, ok := pool2.Tenant("t")
	if !ok {
		t.Fatal("tenant not recovered from WAL")
	}
	// The frozen batch was accepted (WAL) but unapplied; recovery must
	// include it: cut+1 batches of 16 messages each.
	if got := tn2.Stats().Messages; got != uint64((cut+1)*16) {
		t.Fatalf("recovered messages = %d, want %d", got, (cut+1)*16)
	}

	// Serve the rest of the stream, watching per-quantum reports.
	events, cancel := sseSubscribe(t, ts.URL+"/v1/t/stream")
	defer cancel()
	for _, b := range batches[cut+1:] {
		resp := postJSON(t, ts.URL+"/v1/t/messages", b)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/t/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	lastQuantum := 2 * len(batches)
	deadline := time.After(20 * time.Second)
	checked := 0
	for q := 0; q < lastQuantum; {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream closed at quantum %d", q)
			}
			q = ev.Quantum
			want, known := ref.reports[ev.Quantum]
			if !known {
				t.Fatalf("reference has no quantum %d", ev.Quantum)
			}
			if asJSON(t, ev.Reports) != asJSON(t, want) {
				t.Fatalf("quantum %d reports diverge after recovery:\ngot  %s\nwant %s",
					ev.Quantum, asJSON(t, ev.Reports), asJSON(t, want))
			}
			checked++
		case <-deadline:
			t.Fatalf("timed out at quantum %d", q)
		}
	}
	if checked == 0 {
		t.Fatal("no post-recovery quanta observed")
	}

	// Event history must match the uninterrupted reference byte for byte.
	got := getEvents(t, ts.URL, "t", "?all=1")
	if asJSON(t, got.Events) != asJSON(t, ref.views) {
		t.Fatalf("served history diverges from uninterrupted run:\nserved %d events\nwant   %d events",
			len(got.Events), len(ref.views))
	}

	// The archive holds every eviction — the ones from before the crash
	// included — without duplicates or ordinal holes, in eviction order.
	recs := archivedRecords(t, tn2)
	if len(recs) != len(ref.evicted) || tn2.storage.arch.Gaps() != 0 {
		t.Fatalf("archived = %d events, want %d", len(recs), len(ref.evicted))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.ID != ref.evicted[i] {
			t.Fatalf("archive record %d = seq %d id %d, want seq %d id %d",
				i, rec.Seq, rec.ID, i+1, ref.evicted[i])
		}
	}

	// The HTTP surface merges the archive with the retained events:
	// every eviction exactly once, in the engine's (last_quantum, id)
	// order.
	all := getQuery(t, ts.URL, "t", "?from=0")
	if all.Stats.ArchiveHits != len(ref.evicted) {
		t.Fatalf("archive hits = %d over HTTP, want %d", all.Stats.ArchiveHits, len(ref.evicted))
	}
	want := make(map[uint64]bool, len(ref.evicted))
	for _, id := range ref.evicted {
		want[id] = true
	}
	for i, ev := range all.Events {
		delete(want, ev.ID)
		if i > 0 {
			prev := all.Events[i-1]
			if ev.LastQuantum < prev.LastQuantum ||
				(ev.LastQuantum == prev.LastQuantum && ev.ID <= prev.ID) {
				t.Fatalf("query order violated at %d: (%d,%d) after (%d,%d)",
					i, ev.LastQuantum, ev.ID, prev.LastQuantum, prev.ID)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("evicted events missing from /query: %v", want)
	}

	// Keyword queries hit only the matching bucket (Bloom skipping).
	kw := getQuery(t, ts.URL, "t", "?keyword=earthquake")
	if len(kw.Events) == 0 {
		t.Fatal("keyword query found nothing")
	}
	for _, ev := range kw.Events {
		found := false
		for _, k := range ev.AllKeywords {
			if k == "earthquake" {
				found = true
			}
		}
		if !found {
			t.Fatalf("keyword query returned non-matching record %+v", ev)
		}
	}
	if kw.Stats.Segments > 1 && kw.Stats.SkippedByBloom == 0 {
		t.Fatalf("keyword query skipped nothing: %+v", kw.Stats)
	}
}

// TestCleanShutdownWALRestart checks the no-crash path: shutdown writes
// a final snapshot, restart replays nothing, and the stream continues
// bit-identically (the pool-level twin of TestServeRestartBitIdentical).
func TestCleanShutdownWALRestart(t *testing.T) {
	cfg := persistCfg()
	dir := t.TempDir()
	pcfg := PoolConfig{
		Detector: cfg,
		WALDir:   filepath.Join(dir, "wal"),
	}
	batches := burstBatches()
	ref := referenceRun(cfg, batches, 0)

	pool1, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := pool1.GetOrCreate("t")
	if err != nil {
		t.Fatal(err)
	}
	const cut = 5
	for _, b := range batches[:cut] {
		if err := tn.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	pool2, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	tn2, ok := pool2.Tenant("t")
	if !ok {
		t.Fatal("tenant not restored")
	}
	// A clean shutdown's snapshot covers the whole log: nothing replays.
	if wl := tn2.storage.wal; wl == nil || wl.SnapshotSeq() != wl.LastSeq() {
		t.Fatalf("final snapshot missing: snap %d last %d", tn2.storage.wal.SnapshotSeq(), tn2.storage.wal.LastSeq())
	}
	for _, b := range batches[cut:] {
		if err := tn2.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := asJSON(t, viewsOf(tn2.Snapshot().AllEvents())), asJSON(t, ref.views); got != want {
		t.Fatalf("restarted history diverges:\ngot  %s\nwant %s", got, want)
	}
}

// TestFlushSurvivesCrash pins flush durability: POST /flush forces the
// buffered partial quantum through — mutating quantum boundaries — so
// it must be WAL-logged and replayed in order, or a crash after a
// mid-stream flush would recover onto differently-cut quanta. Named
// like TestCrashRecoveryBitIdentical's subtest.
func TestFlushSurvivesCrash(t *testing.T) {
	t.Run("group-commit", testFlushSurvivesCrash)
}

func testFlushSurvivesCrash(t *testing.T) {
	cfg := persistCfg()
	dir := t.TempDir()
	pcfg := PoolConfig{
		Detector: cfg,
		WALDir:   filepath.Join(dir, "wal"),
	}

	// 12 messages (1.5 quanta at Δ=8), a flush cutting the half-full
	// quantum, then 12 more.
	part1 := append(quantumOf(0, "earthquake struck eastern turkey"),
		quantumOf(8, "earthquake struck eastern turkey")[:4]...)
	part2 := append(quantumOf(100, "storm warning coast evacuation"),
		quantumOf(108, "storm warning coast evacuation")[:4]...)

	// Reference: the same operations on a bare detector.
	ref := detect.New(cfg)
	for _, m := range part1 {
		ref.IngestAll(m)
	}
	ref.Flush()
	for _, m := range part2 {
		ref.IngestAll(m)
	}
	ref.Flush()
	want := asJSON(t, viewsOf(ref.AllEvents()))

	pool1, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := pool1.GetOrCreate("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.Enqueue(part1); err != nil {
		t.Fatal(err)
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Crash: drain but no snapshot, no close — recovery must replay the
	// batch AND the flush marker, in order.
	tn.shutdown(context.Background()) //nolint:errcheck // drained above

	pool2, err := NewPool(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Shutdown(context.Background())
	tn2, ok := pool2.Tenant("t")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	if err := tn2.Enqueue(part2); err != nil {
		t.Fatal(err)
	}
	if err := tn2.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := asJSON(t, viewsOf(tn2.Snapshot().AllEvents())); got != want {
		t.Fatalf("flush lost across crash:\ngot  %s\nwant %s", got, want)
	}
}

// TestMetricsEndpoint covers the observability surface: per-tenant
// queue, quanta, WAL and archive gauges plus pool totals.
func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	pool, err := NewPool(PoolConfig{
		Detector:      persistCfg(),
		RetainEvents:  1,
		WALDir:        filepath.Join(dir, "wal"),
		ArchiveDir:    filepath.Join(dir, "archive"),
		SnapshotEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()

	tn, err := pool.GetOrCreate("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range burstBatches() {
		if err := tn.Enqueue(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var m PoolMetrics
	decodeBody(t, resp, &m)
	if len(m.Tenants) != 1 || m.Totals.Tenants != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	tm := m.Tenants[0]
	if tm.Tenant != "m" || !tm.WALEnabled || !tm.ArchiveEnabled {
		t.Fatalf("tenant metrics = %+v", tm)
	}
	if tm.Quanta == 0 || tm.WALLastSeq == 0 || tm.WALSegments == 0 {
		t.Fatalf("WAL gauges zero: %+v", tm)
	}
	if tm.WALSnapshotSeq == 0 {
		t.Fatalf("no snapshot taken at cadence 3 over %d quanta: %+v", tm.Quanta, tm)
	}
	if tm.SnapshotAgeQuanta < 0 || tm.SnapshotAgeQuanta > tm.Quanta {
		t.Fatalf("snapshot age out of range: %+v", tm)
	}
	if tm.ArchiveEvents == 0 || tm.ArchiveSegments == 0 {
		t.Fatalf("archive gauges zero: %+v", tm)
	}
	if m.Totals.Messages != uint64(tm.Messages) || m.Totals.ArchiveEvents != tm.ArchiveEvents {
		t.Fatalf("totals do not aggregate: %+v", m.Totals)
	}
}

// TestArchiveDisabled404 pins the removed archive-only route: history
// is served by /query alone, with or without an archive configured.
func TestArchiveDisabled404(t *testing.T) {
	pool, err := NewPool(PoolConfig{Detector: persistCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	if _, err := pool.GetOrCreate("x"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/x/archive")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("archive on archive-less pool: status = %d, want 404", resp.StatusCode)
	}
}

// BenchmarkRecovery measures pool recovery (snapshot load + WAL tail
// replay) for a tenant with a 20k-message trace, half of it past the
// last snapshot.
func BenchmarkRecovery(b *testing.B) {
	const n = 20000
	msgs, _ := tracegen.Generate(tracegen.TWConfig(42, n))
	dir := b.TempDir()
	pcfg := PoolConfig{
		Detector:      detect.Config{},
		WALDir:        dir,
		SnapshotEvery: 1 << 30, // cadence never fires: snapshot position is ours to pick
	}
	pool, err := NewPool(pcfg)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := pool.GetOrCreate("bench")
	if err != nil {
		b.Fatal(err)
	}
	// Snapshot at the midpoint, so recovery = load a 10k-message
	// snapshot + replay the 10k-message tail.
	for i := 0; i < n; i += 500 {
		if i == n/2 {
			if err := tn.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			tn.mu.Lock()
			err = tn.storage.wal.Snapshot(tn.lastApplied.Load(), tn.det.Save)
			tn.mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := tn.Enqueue(msgs[i : i+500]); err != nil {
			b.Fatal(err)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}
	// Abandon without the final shutdown snapshot so every iteration
	// recovers the same snapshot + tail.
	tn.shutdown(context.Background()) //nolint:errcheck // empty queue
	tn.storage.close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPool(pcfg)
		if err != nil {
			b.Fatal(err)
		}
		rt, ok := p.Tenant("bench")
		if !ok || rt.Stats().Messages != n {
			b.Fatalf("recovery incomplete")
		}
		b.StopTimer()
		rt.shutdown(context.Background()) //nolint:errcheck // empty queue
		rt.storage.close()
		b.StartTimer()
	}
}
