package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// benchBatches cuts a synthetic TW trace into quantum-sized ingest
// batches, cached across benchmark runs.
var benchBatchesCache [][]stream.Message

func benchBatches(b *testing.B) [][]stream.Message {
	b.Helper()
	if benchBatchesCache == nil {
		const n = 48000
		const delta = 160
		msgs, _ := tracegen.Generate(tracegen.TWConfig(42, n))
		for i := 0; i+delta <= len(msgs); i += delta {
			benchBatchesCache = append(benchBatchesCache, msgs[i:i+delta])
		}
	}
	return benchBatchesCache
}

// BenchmarkQueryUnderIngest measures the read path under contention: one
// tenant ingesting at full rate (a background producer keeps its queue
// non-empty for the whole measurement) while parallel clients hammer
// GET /events and GET /related. ns/op is the mean query latency;
// p50/p99 are attached as custom metrics — the headline number for the
// epoch-snapshot read path is p99 under full-rate ingest.
func BenchmarkQueryUnderIngest(b *testing.B) {
	pool, err := NewPool(PoolConfig{
		Detector:      detect.Config{Delta: 160, AKG: akg.Config{Tau: 4, Beta: 0.2, Window: 30}},
		RetainEvents:  512,
		QueueDepth:    8,
		QueueMessages: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate("bench")
	if err != nil {
		b.Fatal(err)
	}
	batches := benchBatches(b)

	// Warm up: apply enough quanta that queries have events to serve.
	for _, batch := range batches[:40] {
		for {
			if err := tn.Enqueue(batch); err == nil {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}

	// Full-rate background ingest: cycle the trace for as long as the
	// measurement runs, backing off only when the bounded queue pushes
	// back (which means the worker is already saturated).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 40; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tn.Enqueue(batches[i%len(batches)]); err != nil {
				i--
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	h := NewHandler(pool)
	var latMu sync.Mutex
	var latencies []time.Duration

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lats := make([]time.Duration, 0, 4096)
		for i := 0; pb.Next(); i++ {
			path := "/v1/bench/events?k=10"
			if i%2 == 1 {
				path = "/v1/bench/related?min=0.05"
			}
			req := httptest.NewRequest("GET", path, nil)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			lats = append(lats, time.Since(start))
			if rec.Code != 200 {
				b.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
				return
			}
		}
		latMu.Lock()
		latencies = append(latencies, lats...)
		latMu.Unlock()
	})
	b.StopTimer()
	close(stop)
	wg.Wait()

	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		quantile := func(q float64) float64 {
			idx := int(q * float64(len(latencies)-1))
			return float64(latencies[idx].Nanoseconds())
		}
		b.ReportMetric(quantile(0.50), "p50-ns")
		b.ReportMetric(quantile(0.99), "p99-ns")
	}
}

// BenchmarkIngestThroughput is the write-path counterweight: it measures
// the tenant worker's full-rate apply throughput (msgs/sec) with no
// queries running, so a read-path change that taxes the publish step
// shows up here.
func BenchmarkIngestThroughput(b *testing.B) {
	batches := benchBatches(b)
	pool, err := NewPool(PoolConfig{
		Detector:      detect.Config{Delta: 160, AKG: akg.Config{Tau: 4, Beta: 0.2, Window: 30}},
		RetainEvents:  512,
		QueueDepth:    8,
		QueueMessages: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	tn, err := pool.GetOrCreate(fmt.Sprintf("ingest%d", b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		for {
			if err := tn.Enqueue(batch); err == nil {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	if err := tn.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*160)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkIngestDurable measures the acknowledged-ingest path with the
// WAL enabled across four concurrent tenants: every ack waits for the
// fsync of its batch, and a tenant's concurrent batches share one flush.
// Each tenant's producers take its batches from one shared cursor, so
// the tenant sees the trace in order however the acks interleave — the
// detector's work per message does not depend on the durability path
// under test. commit-us is the mean durability wait of an ack (the
// wal_commit stage); fsyncs/ack — the tenants' wal_fsync observations
// per acknowledged batch — shows the sharing, and is below 1 only if
// concurrent acks coalesce.
func BenchmarkIngestDurable(b *testing.B) {
	batches := benchBatches(b)
	pool, err := NewPool(PoolConfig{
		Detector:      detect.Config{Delta: 160, AKG: akg.Config{Tau: 4, Beta: 0.2, Window: 30}},
		RetainEvents:  512,
		QueueDepth:    64,
		QueueMessages: 1 << 20,
		WALDir:        b.TempDir(),
		SnapshotEvery: 1 << 30, // keep snapshot IO out of the measurement
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Shutdown(context.Background())
	const tenants = 4
	for i := 0; i < tenants; i++ {
		if _, err := pool.GetOrCreate(fmt.Sprintf("t%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	stage := func(st obs.Stage) (n, ns uint64) {
		for _, tn := range pool.tenantsSorted() {
			s := tn.Obs().Snapshot(st)
			n, ns = n+s.Count, ns+s.SumNs
		}
		return n, ns
	}
	var next atomic.Uint64
	var cursors [tenants]atomic.Uint64
	// Many more producers than cores: the point of sharing a flush is
	// that concurrent acks wait on one fsync, so the measurement needs
	// real ack concurrency (each producer blocks until its batch is
	// durable).
	b.SetParallelism(16)
	fsyncs0, _ := stage(obs.StageWALFsync)
	commits0, commitNs0 := stage(obs.StageWALCommit)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		t := next.Add(1) % tenants
		tn, _ := pool.Tenant(fmt.Sprintf("t%d", t))
		for pb.Next() {
			batch := batches[cursors[t].Add(1)%uint64(len(batches))]
			for {
				err := tn.Enqueue(batch)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrQueueFull) {
					b.Fatal(err)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	})
	b.StopTimer()
	fsyncs, _ := stage(obs.StageWALFsync)
	commits, commitNs := stage(obs.StageWALCommit)
	b.ReportMetric(float64(b.N*160)/b.Elapsed().Seconds(), "msgs/sec")
	b.ReportMetric(float64(fsyncs-fsyncs0)/float64(b.N), "fsyncs/ack")
	b.ReportMetric(float64(commitNs-commitNs0)/float64(max(commits-commits0, 1))/1e3, "commit-us")
}
