package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestEveryStageObserved: no dead stages. One pool with a WAL and an
// archive that seals a segment every two evictions is driven through
// every path that observes one — HTTP ingest, flush, /events, /query
// over a sealed segment, the snapshot cadence and a supervised WAL
// reopen — and then every declared stage must have an observation. A
// stage nothing observes fails here until it is deleted.
func TestEveryStageObserved(t *testing.T) {
	pool, ffs, _ := faultPool(t, func(c *PoolConfig) {
		c.Detector = persistCfg()
		c.RetainEvents = 1
		c.SnapshotEvery = 3
		c.ArchiveDir = filepath.Join(filepath.Dir(c.WALDir), "archive")
		c.archiveSegmentEvents = 2
		// The supervisor runs only when kicked.
		c.degradedProbeInterval = time.Hour
	})
	ts := httptest.NewServer(NewHandler(pool))
	defer ts.Close()
	get := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	// Ingest, the quantum pipeline, evictions into sealed segments and
	// the snapshot cadence.
	for _, b := range burstBatches() {
		resp := postJSON(t, ts.URL+"/v1/t/messages", b)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status = %d", resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/v1/t/flush", nil)
	resp.Body.Close()
	tn, _ := pool.Tenant("t")
	if m := tenantSamples(t, tn); m["eventdetect_archive_columnar_segments"] == 0 || m["eventdetect_wal_snapshot_seq"] == 0 {
		t.Fatalf("want a sealed segment and a snapshot behind: %v", m)
	}
	get("/v1/t/events")
	get("/v1/t/query?from=0")

	// A fail-stop the producer sees, repaired by the supervisor.
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: "wal", Count: 1})
	var deg *DegradedError
	if err := tn.Enqueue(quantumOf(600, "harbour fire spreading")); !errors.As(err, &deg) {
		t.Fatalf("Enqueue with a failing flush fsync = %v, want DegradedError", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		pool.kickSupervisor()
		down, _ := tn.Degraded()
		return !down
	}, "the supervised WAL reopen")

	for _, st := range obs.Stages() {
		if tn.Obs().Snapshot(st).Count == 0 {
			t.Errorf("stage %s was never observed", st)
		}
	}
}
