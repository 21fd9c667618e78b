// Command serve runs the event-discovery pipeline as a multi-tenant
// HTTP/JSON service: POST message batches per tenant, query live events
// and correlations, or subscribe to the SSE stream for per-quantum push
// notifications. See docs/ARCHITECTURE.md for the design.
//
// Usage:
//
//	serve -addr :8080 -wal-dir ./wal
//
// Ingest and query:
//
//	curl -XPOST localhost:8080/v1/demo/messages -d '[{"id":1,"user":7,"time":0,"text":"earthquake struck eastern turkey"}]'
//	curl localhost:8080/v1/demo/events
//	curl -N localhost:8080/v1/demo/stream
//
// Reads are wait-free: after every quantum the apply step publishes an
// immutable epoch snapshot, and all query endpoints resolve against the
// latest snapshot instead of locking the detector — query latency is
// independent of ingest load. Ingest is applied by a fixed -workers
// sized scheduler shared across tenants (round-robin, one batch per
// turn), so tenants-per-process scales past the goroutine-per-tenant
// limit and a hot tenant cannot starve the rest.
//
// With -wal-dir set, every accepted batch is write-ahead logged before
// it is acknowledged and the detector is snapshotted every
// -snapshot-every quanta, so even a kill -9 loses nothing: restart with
// the same -wal-dir and recovery (snapshot + tail replay) resumes
// bit-identically. On SIGINT/SIGTERM the server drains in-flight
// requests and ingest queues and writes a final snapshot per tenant, so
// a clean restart replays nothing. Without -wal-dir tenants live in
// memory only. With -archive-dir set (it needs -wal-dir), events
// evicted by -retain are persisted to a queryable on-disk archive of
// columnar segments (zone-map predicate skipping) instead of discarded;
// with -archive-compact-interval set, a background compactor merges the
// small segments that sealing before every snapshot leaves behind. See
// docs/PERSISTENCE.md. GET /v1/{tenant}/query answers one time-travel
// request across live and archived events with LIMIT pushdown and
// cursor pagination; see docs/QUERY.md.
//
// Overload protection: -rate-limit caps each tenant's sustained ingest
// rate (token bucket, burst via -rate-burst) and -admission-frac sheds
// ingest once a tenant's backlog crosses that fraction of its queue
// bounds. Shed requests get 429 + Retry-After before the WAL ever sees
// the batch; per-tenant shed/accept counters are on GET /metrics. See
// docs/OPERATIONS.md for tuning and the load harness that validates
// these limits under adversarial skew.
//
// Flag values are validated at startup; nonsensical settings (zero
// quantum size, negative fsync cadence, ...) exit with a message
// naming every offending flag.
//
// Tunables mirror Table 2: -delta (quantum size), -tau (high state
// threshold), -beta (EC threshold), -w (window quanta).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof-addr
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/server"
)

// buildInfo extracts the module path, Go toolchain and VCS revision
// baked into the binary, for the structured startup line.
func buildInfo() (path, goVersion, revision string) {
	path, goVersion, revision = "unknown", runtime.Version(), "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	path, goVersion = bi.Main.Path, bi.GoVersion
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
			if s.Value != "" && len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		queue   = flag.Int("queue", 64, "per-tenant ingest queue depth in batches")
		queueM  = flag.Int("queue-msgs", 100000, "per-tenant ingest queue bound in messages")
		maxT    = flag.Int("max-tenants", 1024, "tenant limit")
		retain  = flag.Int("retain", 0, "finished events kept per tenant (0 = unlimited)")
		workers = flag.Int("workers", 0, "shared scheduler worker count (0 = GOMAXPROCS)")
		rateLim = flag.Float64("rate-limit", 0,
			"per-tenant sustained ingest rate limit in messages/second "+
				"(0 disables; excess is shed with 429 + Retry-After)")
		rateBur = flag.Int("rate-burst", 0,
			"per-tenant ingest burst capacity in messages (0 = one second of -rate-limit)")
		admFrac = flag.Float64("admission-frac", 0,
			"shed ingest once a tenant's backlog reaches this fraction of its "+
				"queue bounds, with 429 + Retry-After before the WAL sees the batch "+
				"(0 disables; e.g. 0.8)")
		snapRH = flag.Int("snapshot-rank-history", 0, "rank-history entries served per event (0 = full history); bounds response size only")
		grace  = flag.Duration("grace", 30*time.Second, "graceful shutdown budget")

		walDir  = flag.String("wal-dir", "", "write-ahead log directory (empty disables persistence)")
		walSeg  = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation size")
		walSync = flag.Int("wal-sync", 0, "fsync the WAL every N appends (0 = rely on the page cache)")
		walGC   = flag.Duration("wal-group-commit-interval", 0,
			"cross-tenant WAL group commit flush interval (0 disables; e.g. 2ms). "+
				"Acks wait for the shared flush+fsync: power-safe durability at a "+
				"fraction of the per-append fsync cost; overrides -wal-sync")
		snapEvr = flag.Int("snapshot-every", 256, "WAL snapshot cadence in quanta")
		stRetry = flag.Int("storage-retries", 3,
			"inline retry turns on a transient storage IO error before the "+
				"tenant degrades to read-only (-1 disables inline retries)")
		stBack = flag.Duration("storage-retry-backoff", 5*time.Millisecond,
			"first storage-retry backoff (doubles per turn, capped at 32x)")
		degProbe = flag.Duration("degraded-probe-interval", time.Second,
			"degradation supervisor probe cadence: how often fail-stopped "+
				"WALs are reopened and degraded tenants' devices write-probed; "+
				"also the Retry-After hint on degraded-shed responses")
		archDir = flag.String("archive-dir", "",
			"evicted-event archive directory (empty discards evicted events; requires -wal-dir)")
		archSeg = flag.Int("archive-segment-events", 512, "archive segment rotation by record count")
		archBkt = flag.Int("archive-bucket-quanta", 1024, "archive segment rotation by quantum span")
		archBlk = flag.Int("archive-block-events", 256,
			"records per block inside archive segments — the unit "+
				"of zone-map predicate skipping and of decode work")
		archBpk = flag.Int("archive-bloom-bits-per-key", 0,
			"archive keyword Bloom filter sizing in bits per record "+
				"(0 = legacy fixed 8192-bit filters; 10 gives ~1% false positives)")
		archComp = flag.Duration("archive-compact-interval", 0,
			"background archive compaction cadence (0 disables; e.g. 30s). Each "+
				"tick merges one run of small sealed segments per tenant")

		pprofAddr = flag.String("pprof-addr", "",
			"listen address for net/http/pprof diagnostics (empty disables; "+
				"e.g. localhost:6060 — keep it off public interfaces)")

		telemetry = flag.Bool("telemetry", true,
			"per-stage latency histograms and request tracing "+
				"(GET /metrics?format=prometheus, GET /debug/requests)")
		traceRing = flag.Int("trace-ring", 64,
			"slowest traced requests retained per tenant for GET /debug/requests "+
				"(0 disables request tracing, keeping the histograms)")
		slowReqMs = flag.Int("slow-request-ms", 0,
			"only requests at least this slow enter the trace ring "+
				"(0 = every traced request competes for a slot)")

		delta = flag.Int("delta", 160, "quantum size Δ in messages")
		qtime = flag.Int64("qtime", 0, "time-based quantum length (0 = message count)")
		tau   = flag.Int("tau", 4, "high state threshold τ (users/quantum)")
		beta  = flag.Float64("beta", 0.20, "edge correlation threshold β")
		w     = flag.Int("w", 30, "window length in quanta")
	)
	flag.Parse()

	// Fail fast on nonsensical tunables: a zero quantum size or a
	// negative fsync cadence would otherwise be silently "corrected" (or
	// worse, obeyed) deep inside the pool. Every violation is reported,
	// not just the first.
	var bad []string
	req := func(ok bool, msg string) {
		if !ok {
			bad = append(bad, msg)
		}
	}
	req(*delta > 0, "-delta must be a positive message count")
	req(*qtime >= 0, "-qtime must be non-negative (0 = message-count quanta)")
	req(*tau >= 1, "-tau must be at least 1 user per quantum")
	req(*beta > 0 && *beta <= 1, "-beta must be in (0,1]")
	req(*w > 0, "-w must be a positive quantum count")
	req(*queue > 0, "-queue must be a positive batch count")
	req(*queueM > 0, "-queue-msgs must be a positive message count")
	req(*maxT > 0, "-max-tenants must be positive")
	req(*retain >= 0, "-retain must be non-negative (0 = unlimited)")
	req(*workers >= 0, "-workers must be non-negative (0 = GOMAXPROCS)")
	req(*rateLim >= 0, "-rate-limit must be non-negative (0 = unlimited)")
	req(*rateBur >= 0, "-rate-burst must be non-negative (0 = one second of -rate-limit)")
	req(*admFrac >= 0 && *admFrac <= 1, "-admission-frac must be in [0,1] (0 = disabled)")
	req(*snapRH >= 0, "-snapshot-rank-history must be non-negative (0 = full history)")
	req(*grace >= 0, "-grace must be non-negative")
	req(*walSeg > 0, "-wal-segment-bytes must be positive")
	req(*walSync >= 0, "-wal-sync must be non-negative (0 = page cache)")
	req(*walGC >= 0, "-wal-group-commit-interval must be non-negative (0 = disabled)")
	req(*snapEvr > 0, "-snapshot-every must be a positive quantum count")
	req(*stRetry >= -1, "-storage-retries must be -1 (disabled) or a turn count")
	req(*stBack > 0, "-storage-retry-backoff must be positive")
	req(*degProbe > 0, "-degraded-probe-interval must be positive")
	req(*archSeg > 0, "-archive-segment-events must be positive")
	req(*archBkt > 0, "-archive-bucket-quanta must be positive")
	req(*archBlk > 0, "-archive-block-events must be positive")
	req(*archBpk >= 0 && *archBpk <= 64,
		"-archive-bloom-bits-per-key must be in [0,64] (0 = legacy sizing)")
	req(*archComp >= 0, "-archive-compact-interval must be non-negative (0 = disabled)")
	// The archive deduplicates replayed evictions by the detector's trim
	// counter, which only the WAL carries across a restart; without it
	// the counter restarts at 0 and every eviction is dropped as a
	// duplicate until it catches up with what the archive already holds.
	req(*archDir == "" || *walDir != "", "-archive-dir requires -wal-dir (the WAL carries the eviction ordinal across restarts)")
	req(*traceRing >= 0, "-trace-ring must be non-negative (0 = tracing off)")
	req(*slowReqMs >= 0, "-slow-request-ms must be non-negative (0 = trace everything)")
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "serve: invalid flag:", msg)
		}
		os.Exit(2)
	}

	// The pool treats a negative ring size as "tracing off"; the flag
	// spells that 0, with 0 itself never meaning "use the default".
	ringSize := *traceRing
	if ringSize == 0 {
		ringSize = -1
	}
	// Same for retries: 0 on the command line means "no retries", which
	// the pool spells negative (its 0 selects the default budget).
	retries := *stRetry
	if retries == 0 {
		retries = -1
	}

	srv, err := server.New(server.Config{
		Addr:          *addr,
		ShutdownGrace: *grace,
		Pool: server.PoolConfig{
			Detector: detect.Config{
				Delta:       *delta,
				QuantumTime: *qtime,
				AKG:         akg.Config{Tau: *tau, Beta: *beta, Window: *w},
			},
			QueueDepth:          *queue,
			QueueMessages:       *queueM,
			RetainEvents:        *retain,
			MaxTenants:          *maxT,
			Workers:             *workers,
			SnapshotRankHistory: *snapRH,
			RateLimit:           *rateLim,
			RateBurst:           *rateBur,
			AdmissionFrac:       *admFrac,

			WALDir:                 *walDir,
			WALSegmentBytes:        *walSeg,
			WALSyncEvery:           *walSync,
			WALGroupCommitInterval: *walGC,
			SnapshotEvery:          *snapEvr,
			StorageRetries:         retries,
			StorageRetryBackoff:    *stBack,
			DegradedProbeInterval:  *degProbe,
			ArchiveDir:             *archDir,
			ArchiveSegmentEvents:   *archSeg,
			ArchiveBucketQuanta:    *archBkt,
			ArchiveBlockEvents:     *archBlk,
			ArchiveBloomBitsPerKey: *archBpk,
			ArchiveCompactInterval: *archComp,

			ObsDisabled:          !*telemetry,
			TraceRingSize:        ringSize,
			SlowRequestThreshold: time.Duration(*slowReqMs) * time.Millisecond,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	modPath, goVersion, revision := buildInfo()
	logger.Info("starting",
		"module", modPath,
		"go", goVersion,
		"revision", revision,
		"addr", *addr,
		"workers", *workers,
		"delta", *delta,
		"tau", *tau,
		"beta", *beta,
		"window", *w,
		"wal", *walDir != "",
		"group_commit", walGC.String(),
		"archive", *archDir != "",
		"archive_compact_interval", archComp.String(),
		"rate_limit", *rateLim,
		"admission_frac", *admFrac,
		"telemetry", *telemetry,
		"trace_ring", *traceRing,
		"slow_request_ms", *slowReqMs,
	)
	if tenants := srv.Pool.Names(); len(tenants) > 0 {
		logger.Info("restored tenants", "count", len(tenants), "tenants", tenants)
	}
	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux, which the
		// API server does not use — the diagnostics surface stays on its
		// own listener, off by default.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		logger.Info("shutting down", "phase", "draining queues and snapshotting")
		if err := srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}
