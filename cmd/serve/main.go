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
// With -wal-dir set, every accepted batch is write-ahead logged and
// fsynced before it is acknowledged (concurrent batches of a tenant
// share one flush; -wal-group-commit-interval is still accepted and has
// no effect) and the detector is snapshotted every -snapshot-every
// quanta, so neither a kill -9 nor a power loss loses an acknowledged
// batch: restart with the same -wal-dir and recovery (snapshot + tail
// replay) resumes bit-identically. On SIGINT/SIGTERM the server drains
// in-flight requests and ingest queues and writes a final snapshot per
// tenant, so a clean restart replays nothing. Without -wal-dir tenants
// live in memory only. With -archive-dir set (it needs -wal-dir),
// events evicted by -retain are persisted to a queryable on-disk
// archive of columnar segments (zone-map predicate skipping) instead of
// discarded: an in-memory buffer, carried inside every WAL snapshot and
// sealed into a segment when full
// (-archive-compact-interval is still accepted and has no effect). See
// docs/PERSISTENCE.md.
// GET /v1/{tenant}/query answers one time-travel request across live
// and archived events with LIMIT pushdown and cursor pagination; see
// docs/QUERY.md.
//
// Overload protection: -rate-limit caps each tenant's sustained ingest
// rate (token bucket, burst via -rate-burst) and -admission-frac sheds
// ingest once a tenant's backlog crosses that fraction of its queue
// bounds. Shed requests get 429 + Retry-After before the WAL ever sees
// the batch; per-tenant shed/accept counters are on GET /metrics. See
// docs/OPERATIONS.md for tuning and the tests that hold these limits
// under skewed traffic and a full disk.
//
// The 21 flags bind straight onto server.Config's fields, -pprof-addr
// and the inert -archive-compact-interval and -wal-group-commit-interval
// aside; their defaults are what the zero Config resolves to, and their
// valid ranges are server.Config.Validate's. Every violation is
// reported at startup, not just the first. Telemetry (every counter
// and the stage histograms as Prometheus text on GET /metrics, the
// slowest traced requests on GET /debug/requests) is always on.
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

// bindFlags registers the command line on fs, each flag bound to its
// field of the returned Config. The Config starts out as the resolved
// zero value, so every flag's default is the one server.Config states.
func bindFlags(fs *flag.FlagSet) (cfg *server.Config, pprofAddr *string) {
	c := server.Config{}.WithDefaults()
	p, d := &c.Pool, &c.Pool.Detector
	fs.StringVar(&c.Addr, "addr", c.Addr, "listen address")
	fs.DurationVar(&c.ShutdownGrace, "grace", c.ShutdownGrace, "graceful shutdown budget")
	pprofAddr = fs.String("pprof-addr", "",
		"listen address for net/http/pprof diagnostics (empty disables; "+
			"e.g. localhost:6060 — keep it off public interfaces)")

	fs.StringVar(&p.WALDir, "wal-dir", p.WALDir,
		"write-ahead log directory (empty disables persistence); every ack waits for the fsync of its batch")
	fs.Duration("wal-group-commit-interval", 0,
		"no effect: every ack waits for the fsync of its batch, and concurrent batches share one flush "+
			"without a timer (accepted so existing command lines keep working)")
	fs.IntVar(&p.SnapshotEvery, "snapshot-every", p.SnapshotEvery, "WAL snapshot cadence in quanta")
	fs.StringVar(&p.ArchiveDir, "archive-dir", p.ArchiveDir,
		"evicted-event archive directory (empty discards evicted events; requires -wal-dir)")
	fs.Duration("archive-compact-interval", 0,
		"no effect: archive segments are sealed only when full, so there is nothing to compact "+
			"(accepted so existing command lines keep working)")
	fs.IntVar(&p.RetainEvents, "retain", p.RetainEvents, "finished events kept per tenant (0 = unlimited)")

	fs.IntVar(&d.Delta, "delta", d.Delta, "quantum size Δ in messages")
	fs.Int64Var(&d.QuantumTime, "qtime", d.QuantumTime, "time-based quantum length (0 = message count)")
	fs.IntVar(&d.AKG.Tau, "tau", d.AKG.Tau, "high state threshold τ (users/quantum)")
	fs.Float64Var(&d.AKG.Beta, "beta", d.AKG.Beta, "edge correlation threshold β")
	fs.IntVar(&d.AKG.Window, "w", d.AKG.Window, "window length in quanta")

	fs.IntVar(&p.QueueDepth, "queue", p.QueueDepth, "per-tenant ingest queue depth in batches")
	fs.IntVar(&p.QueueMessages, "queue-msgs", p.QueueMessages, "per-tenant ingest queue bound in messages")
	fs.IntVar(&p.Workers, "workers", p.Workers, "shared scheduler worker count (0 = GOMAXPROCS)")
	fs.IntVar(&p.MaxTenants, "max-tenants", p.MaxTenants, "tenant limit")
	fs.Float64Var(&p.RateLimit, "rate-limit", p.RateLimit,
		"per-tenant sustained ingest rate limit in messages/second "+
			"(0 disables; excess is shed with 429 + Retry-After)")
	fs.IntVar(&p.RateBurst, "rate-burst", p.RateBurst,
		"per-tenant ingest burst capacity in messages (0 = one second of -rate-limit, which it needs)")
	fs.Float64Var(&p.AdmissionFrac, "admission-frac", p.AdmissionFrac,
		"shed ingest once a tenant's backlog reaches this fraction of its "+
			"queue bounds, with 429 + Retry-After before the WAL sees the batch "+
			"(0 disables; e.g. 0.8)")
	return &c, pprofAddr
}

func main() {
	cfg, pprofAddr := bindFlags(flag.CommandLine)
	flag.Parse()
	srv, err := server.New(*cfg) // validates: every bad setting is in err
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
		"addr", cfg.Addr,
		"workers", cfg.Pool.Workers,
		"delta", cfg.Pool.Detector.Delta,
		"tau", cfg.Pool.Detector.AKG.Tau,
		"beta", cfg.Pool.Detector.AKG.Beta,
		"window", cfg.Pool.Detector.AKG.Window,
		"wal", cfg.Pool.WALDir != "",
		"archive", cfg.Pool.ArchiveDir != "",
		"rate_limit", cfg.Pool.RateLimit,
		"admission_frac", cfg.Pool.AdmissionFrac,
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
	logger.Info("serving", "addr", cfg.Addr)

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
