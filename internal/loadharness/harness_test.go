package loadharness

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/server"
	"repro/internal/vfs"
)

// startServer brings up a real pool behind a real HTTP listener with
// the detector quantum matched to the harness batch size (the invariant
// the ingest-to-SSE measurement rests on).
func startServer(t *testing.T, cfg server.PoolConfig) *httptest.Server {
	t.Helper()
	if cfg.Detector.Delta == 0 {
		cfg.Detector = detect.Config{Delta: 8, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 5}}
	}
	pool, err := server.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHandler(pool))
	t.Cleanup(func() {
		srv.CloseClientConnections()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		pool.BeginShutdown()
		if err := pool.Shutdown(ctx); err != nil {
			t.Errorf("pool shutdown: %v", err)
		}
	})
	return srv
}

func run(t *testing.T, srv *httptest.Server, plan *Plan) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := (&Runner{Plan: plan, BaseURL: srv.URL, DrainTimeout: 20 * time.Second}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The traffic plan is the reproducibility contract: same config, same
// bytes. Two independent builds must agree on every body and on the
// digest; a different seed must not.
func TestPlanByteReproducible(t *testing.T) {
	for _, sc := range Scenarios() {
		cfg := Config{Scenario: sc, Seed: 99, Tenants: 3, Batches: 24}
		a, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Fatalf("%s: same config, different digests: %s vs %s", sc, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.PerTenant, b.PerTenant) {
			t.Fatalf("%s: same config, different batch bodies", sc)
		}
		if !reflect.DeepEqual(a.Queries, b.Queries) {
			t.Fatalf("%s: same config, different query mix", sc)
		}
		other, err := BuildPlan(Config{Scenario: sc, Seed: 100, Tenants: 3, Batches: 24})
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest == a.Digest {
			t.Fatalf("%s: different seeds produced the same digest", sc)
		}
	}
}

// A healthy server under the uniform control: every batch accepted,
// every quantum acknowledged on SSE, every query answered.
func TestRunUniformSmoke(t *testing.T) {
	srv := startServer(t, server.PoolConfig{})
	plan, err := BuildPlan(Config{Scenario: ScenarioUniform, Seed: 7, Tenants: 2, Batches: 32})
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, srv, plan)
	if rep.Totals.Accepted != rep.Totals.Planned {
		t.Fatalf("accepted %d of %d planned batches", rep.Totals.Accepted, rep.Totals.Planned)
	}
	if rep.Totals.Shed429 != 0 || rep.Totals.HTTP5xx != 0 || rep.Totals.OtherErrors != 0 {
		t.Fatalf("errors on an unloaded server: %+v", rep.Totals)
	}
	if rep.Totals.SSELost != 0 {
		t.Fatalf("%d accepted batches never acknowledged on SSE", rep.Totals.SSELost)
	}
	if rep.Totals.QueryErrors != 0 {
		t.Fatalf("%d query errors", rep.Totals.QueryErrors)
	}
	for _, tr := range rep.PerTenant {
		if tr.Queries == 0 {
			t.Fatalf("tenant %s issued no queries — the mixed workload is broken", tr.Tenant)
		}
		if tr.IngestP50Ms <= 0 || tr.IngestP99Ms < tr.IngestP50Ms {
			t.Fatalf("tenant %s implausible ingest latencies: p50=%v p99=%v",
				tr.Tenant, tr.IngestP50Ms, tr.IngestP99Ms)
		}
		if tr.IngestHist == nil || tr.IngestHist.Count == 0 || tr.IngestHist.P99Ms < tr.IngestHist.P50Ms {
			t.Fatalf("tenant %s missing or implausible ingest histogram summary: %+v", tr.Tenant, tr.IngestHist)
		}
		if tr.QueryHist == nil || int(tr.QueryHist.Count) != tr.Queries-tr.QueryErrors {
			t.Fatalf("tenant %s query histogram count mismatch: %+v vs %d queries", tr.Tenant, tr.QueryHist, tr.Queries)
		}
	}
	if rep.PlanDigest != plan.Digest {
		t.Fatal("report does not carry the plan digest")
	}
}

// Against a rate-limited tenant the harness must observe sheds, and
// every shed must carry Retry-After — the acceptance gate for the
// admission layer's client contract.
func TestRunShedsCarryRetryAfter(t *testing.T) {
	// 1 msg/s with a 1-message burst: the first batch drains the bucket,
	// later batches (posted within milliseconds) must shed.
	srv := startServer(t, server.PoolConfig{RateLimit: 1, RateBurst: 1})
	plan, err := BuildPlan(Config{Scenario: ScenarioUniform, Seed: 3, Tenants: 1, Batches: 6, QueryEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rep := run(t, srv, plan)
	tr := rep.PerTenant[0]
	if tr.Accepted < 1 {
		t.Fatal("the full bucket should admit the first batch")
	}
	if tr.Shed429 == 0 {
		t.Fatal("rate limit of 1 msg/s shed nothing across 6 rapid batches")
	}
	if tr.ShedNoRetryAfter != 0 {
		t.Fatalf("%d of %d sheds arrived without Retry-After", tr.ShedNoRetryAfter, tr.Shed429)
	}
	if tr.HTTP5xx != 0 {
		t.Fatalf("rate limiting must answer 429, got %d 5xx responses", tr.HTTP5xx)
	}
	if tr.SSELost != 0 {
		t.Fatalf("%d accepted batches never acknowledged", tr.SSELost)
	}
}

// The graceful-degradation acceptance: an ENOSPC window injected into
// the WAL mid-run produces zero non-503 5xx, Retry-After on every shed,
// reads keep serving, the server recovers in-process, and a replay of
// the WAL recovers exactly the acked batches — nothing shed, nothing
// extra.
func TestRunDiskPressureMeetsSLO(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ffs := vfs.NewFaultFS(nil)
	det := detect.Config{Delta: 8, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 5}}
	pool, err := server.NewPool(server.PoolConfig{
		Detector:              det,
		WALDir:                walDir,
		FS:                    ffs,
		StorageRetryBackoff:   time.Millisecond,
		DegradedProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.NewHandler(pool))

	plan, err := BuildPlan(Config{Scenario: ScenarioDiskPressure, Seed: 5, Tenants: 2, Batches: 240})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	pc := &PressureController{
		Pool: pool, FFS: ffs, PathSubstring: walDir,
		AfterAccepted: 6, Hold: 40 * time.Millisecond,
	}
	pcErr := make(chan error, 1)
	go func() { pcErr <- pc.Run(ctx) }()
	rep, err := (&Runner{Plan: plan, BaseURL: srv.URL, DrainTimeout: 20 * time.Second}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-pcErr; err != nil {
		t.Fatalf("pressure window never played out: %v", err)
	}
	if res := CheckDiskPressureSLO(rep); !res.Pass {
		t.Fatalf("SLO violations: %v", res.Violations)
	}

	// Replay must equal exactly the acked prefix: shut the faulted pool
	// down cleanly, reopen the same WAL with a plain filesystem, and
	// compare recovered messages to accepted batches.
	srv.CloseClientConnections()
	srv.Close()
	pool.BeginShutdown()
	if err := pool.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown after recovery: %v", err)
	}
	re, err := server.NewPool(server.PoolConfig{Detector: det, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := re.Shutdown(ctx); err != nil {
			t.Errorf("replay pool shutdown: %v", err)
		}
	}()
	for _, tr := range rep.PerTenant {
		m, ok := re.MetricsFor(tr.Tenant)
		if !ok {
			t.Fatalf("tenant %s did not replay", tr.Tenant)
		}
		want := uint64(tr.Accepted) * uint64(plan.Config.BatchSize)
		if got := m.Tenants[0].Messages; got != want {
			t.Fatalf("tenant %s replayed %d messages, want %d (acked prefix: %d accepted × %d)",
				tr.Tenant, got, want, tr.Accepted, plan.Config.BatchSize)
		}
	}
}

// The headline acceptance: a Zipf-hot tenant saturating a small queue
// behind the admission gate produces zero 5xx, all sheds carry
// Retry-After, and cold tenants keep their latency within the SLO bound
// of the uniform control.
func TestRunZipfHotMeetsSLO(t *testing.T) {
	poolCfg := server.PoolConfig{
		Workers:       1, // one apply worker: backlog forms under skew
		QueueDepth:    8,
		AdmissionFrac: 0.5,
	}
	cfg := Config{Seed: 11, Tenants: 3, Batches: 90}

	cfg.Scenario = ScenarioUniform
	uplan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform := run(t, startServer(t, poolCfg), uplan)

	cfg.Scenario = ScenarioZipfHot
	zplan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	zipf := run(t, startServer(t, poolCfg), zplan)

	// The floor absorbs scheduler noise at these tiny baselines; the
	// hard gates (no 5xx, Retry-After on every shed, no SSE loss) have
	// no tolerance at all.
	res := CheckSLO(zipf, uniform, 500)
	if !res.Pass {
		t.Fatalf("SLO violations: %v", res.Violations)
	}
	if zipf.Totals.Accepted == 0 {
		t.Fatal("nothing accepted under the zipf scenario")
	}
}

// The flash crowd: uniform background, then one tenant bursts with the
// adversarial keyword flood, against admission control, a short retained
// history and an archive for the evictions (so the flood has a Bloom
// sidecar to inflate). The hard gates have no tolerance: no 5xx,
// Retry-After on every shed, no lost SSE acknowledgement, no other
// errors. The cold tenants' wall-clock bound against the uniform
// control is reported, not asserted — it flakes on loaded machines.
func TestRunFlashFloodMeetsSLO(t *testing.T) {
	poolCfg := func() server.PoolConfig {
		dir := t.TempDir()
		return server.PoolConfig{
			Workers:       1,
			QueueDepth:    16,
			AdmissionFrac: 0.8,
			RetainEvents:  16,
			WALDir:        filepath.Join(dir, "wal"),
			ArchiveDir:    filepath.Join(dir, "archive"),
		}
	}
	cfg := Config{Seed: 1, Tenants: 4, Batches: 128}

	cfg.Scenario = ScenarioUniform
	uplan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform := run(t, startServer(t, poolCfg()), uplan)

	cfg.Scenario = ScenarioFlashFlood
	fplan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flood := run(t, startServer(t, poolCfg()), fplan)

	tot := flood.Totals
	if tot.HTTP5xx != 0 || tot.ShedNoRetryAfter != 0 || tot.SSELost != 0 || tot.OtherErrors != 0 {
		t.Fatalf("hard gate violated: %d 5xx, %d sheds without Retry-After, %d lost SSE acks, %d other errors",
			tot.HTTP5xx, tot.ShedNoRetryAfter, tot.SSELost, tot.OtherErrors)
	}
	if tot.Accepted == 0 {
		t.Fatal("nothing accepted under the flash flood")
	}
	res := CheckSLO(flood, uniform, 250)
	t.Logf("flash-flood: %d/%d batches accepted, %d shed; cold p99 %.2fms vs uniform %.2fms (pass=%v %v)",
		tot.Accepted, tot.Planned, tot.Shed429, res.ColdP99Ms, res.ColdUniformP99Ms, res.Pass, res.Violations)
}
