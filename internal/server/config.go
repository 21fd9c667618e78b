package server

import (
	"errors"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/vfs"
)

// Config configures a Server. Together with PoolConfig it is the one
// place the service's settings are declared, defaulted and validated:
// cmd/serve binds each flag straight onto a field, a zero field selects
// the default WithDefaults states, and Validate — which New runs —
// states every valid range, naming a setting by its field and, where it
// has one, its cmd/serve flag.
type Config struct {
	// Addr is the listen address (host:port). Empty selects ":8080".
	Addr string
	// Pool configures the tenant pool behind the API.
	Pool PoolConfig
	// ShutdownGrace bounds graceful shutdown (HTTP drain + queue drain +
	// final snapshots). Zero selects 30s.
	ShutdownGrace time.Duration
}

// PoolConfig configures a detector pool.
type PoolConfig struct {
	// Detector is the configuration every new tenant's detector gets;
	// zero Delta / AKG.Tau / AKG.Beta / AKG.Window select the paper's
	// Table 2 nominal values. Restored tenants keep the configuration
	// frozen in their snapshot.
	Detector detect.Config
	// QueueDepth bounds each tenant's ingest queue in batches (one POST
	// body = one batch). Zero selects 64. A full queue rejects ingest
	// with ErrQueueFull — backpressure, never unbounded memory.
	QueueDepth int
	// QueueMessages bounds the total messages buffered across queued
	// batches — the actual memory bound, since one batch can hold a
	// whole POST body. Zero selects 100000.
	QueueMessages int
	// RetainEvents, when positive, caps the finished-event history kept
	// per tenant (oldest trimmed first; live events are never dropped).
	// Zero keeps everything — fine for bounded experiments, not for a
	// long-lived tenant, whose history otherwise grows forever.
	RetainEvents int
	// MaxTenants bounds the number of tenants. Zero selects 1024.
	MaxTenants int
	// Workers sizes the shared scheduler's worker pool — the fixed set
	// of goroutines that apply every tenant's ingest batches. Zero
	// selects GOMAXPROCS.
	Workers int

	// WALDir, when non-empty, enables persistence: every accepted ingest
	// batch is appended to a per-tenant write-ahead log and fsynced
	// before it is acknowledged (concurrent batches of a tenant share
	// one flush), and the detector is snapshotted every SnapshotEvery
	// quanta and on Shutdown. On pool start each tenant found under
	// WALDir is recovered as latest snapshot + replay of the segment
	// tail — bit-identical to the state at exit, however the process
	// died. Empty keeps tenants in memory only.
	WALDir string
	// SnapshotEvery is the WAL snapshot cadence in quanta. Zero selects
	// 256. Smaller = faster recovery, more snapshot IO.
	SnapshotEvery int

	// FS is the filesystem both storage layers (WAL, archive) go
	// through. Nil selects the real OS filesystem;
	// tests inject a vfs.FaultFS here to exercise EIO/ENOSPC/torn-write
	// paths without privileged mounts.
	FS vfs.FS

	// ArchiveDir, when non-empty, routes events evicted by the
	// RetainEvents policy into a per-tenant on-disk archive (time-bucketed
	// columnar segments, each indexed for data skipping) instead of
	// discarding them, queryable via Tenant.Query and GET /v1/{t}/query.
	// Every WAL snapshot carries the archive's unsealed buffer, so a
	// crash loses no eviction the WAL tail cannot regenerate. Needs
	// WALDir: the WAL carries the eviction ordinal across restarts.
	ArchiveDir string

	// RateLimit, when positive, caps each tenant's sustained ingest rate
	// in messages per second via a per-tenant token bucket. A batch that
	// exceeds the bucket is shed with a ShedError (HTTP 429 +
	// Retry-After) before the WAL or the queue ever see it. Zero
	// disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity in messages (how far a
	// tenant may briefly exceed RateLimit). Zero selects one second of
	// sustained rate. Needs RateLimit.
	RateBurst int
	// AdmissionFrac, when in (0, 1], sheds ingest once a tenant's
	// backlog reaches this fraction of its hard queue bounds (QueueDepth
	// batches or QueueMessages messages) — load is turned away with a
	// retryable ShedError while the queue still has headroom, instead of
	// slamming into ErrQueueFull at the wall. Zero disables the gate.
	AdmissionFrac float64

	// Fixed in production, shrunk by this package's tests to reach
	// rotation, seals and recovery quickly; zero selects the default, and
	// nothing outside the package can set them.
	//
	// walSegmentBytes rotates WAL segments (the wal package's default,
	// 4 MiB). degradedProbeInterval is the degradation supervisor's probe
	// cadence — how often it tries to reopen fail-stopped WALs and
	// write-probe degraded tenants' devices — and the Retry-After hint on
	// degraded-shed responses (1s).
	// archiveSegmentEvents seals archive segments by record count,
	// archiveBucketQuanta by time span, and archiveBlockEvents sizes the
	// record blocks inside a segment — the unit of zone-map skipping and
	// of decode work (the archive package's 512 / 1024 / 256).
	walSegmentBytes       int64
	degradedProbeInterval time.Duration
	archiveSegmentEvents  int
	archiveBucketQuanta   int
	archiveBlockEvents    int
}

// WithDefaults returns c with every zero field that selects a default
// replaced by it — the configuration New runs with, and where cmd/serve
// reads its flag defaults from, so no default is written twice.
func (c Config) WithDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 30 * time.Second
	}
	c.Pool = c.Pool.withDefaults()
	return c
}

// withDefaults resolves the zero fields this package owns the default
// of. The detector's are filled from the owning packages' constants so
// the resolved value is visible (flag help, startup log); segment and
// block sizes stay zero for wal and archive to resolve.
func (c PoolConfig) withDefaults() PoolConfig {
	if c.Detector.Delta == 0 {
		c.Detector.Delta = detect.DefaultDelta
	}
	if c.Detector.AKG.Tau == 0 {
		c.Detector.AKG.Tau = akg.DefaultTau
	}
	if c.Detector.AKG.Beta == 0 {
		c.Detector.AKG.Beta = akg.DefaultBeta
	}
	if c.Detector.AKG.Window == 0 {
		c.Detector.AKG.Window = akg.DefaultWindow
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueMessages == 0 {
		c.QueueMessages = 100000
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 1024
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 256
	}
	c.FS = vfs.Default(c.FS)
	if c.degradedProbeInterval == 0 {
		c.degradedProbeInterval = time.Second
	}
	return c
}

// violations collects every broken rule, so one Validate call reports
// them all instead of the first.
type violations []error

func (v *violations) require(ok bool, msg string) {
	if !ok {
		*v = append(*v, errors.New(msg))
	}
}

// Validate reports every setting outside its valid range (errors.Join;
// nil when there is none). A zero field is always valid — it selects
// the default. The comparisons are written so that NaN fails them.
func (c PoolConfig) Validate() error {
	var v violations
	d := c.Detector
	v.require(d.Delta >= 0, "Detector.Delta (-delta) must be non-negative (0 = Table 2 nominal)")
	v.require(d.QuantumTime >= 0, "Detector.QuantumTime (-qtime) must be non-negative (0 = message-count quanta)")
	v.require(d.AKG.Tau >= 0, "Detector.AKG.Tau (-tau) must be non-negative (0 = Table 2 nominal)")
	v.require(d.AKG.Beta >= 0 && d.AKG.Beta <= 1, "Detector.AKG.Beta (-beta) must be in [0,1] (0 = Table 2 nominal)")
	v.require(d.AKG.Window >= 0, "Detector.AKG.Window (-w) must be non-negative (0 = Table 2 nominal)")
	v.require(c.QueueDepth >= 0, "QueueDepth (-queue) must be non-negative (0 = default)")
	v.require(c.QueueMessages >= 0, "QueueMessages (-queue-msgs) must be non-negative (0 = default)")
	v.require(c.RetainEvents >= 0, "RetainEvents (-retain) must be non-negative (0 = unlimited)")
	v.require(c.MaxTenants >= 0, "MaxTenants (-max-tenants) must be non-negative (0 = default)")
	v.require(c.Workers >= 0, "Workers (-workers) must be non-negative (0 = GOMAXPROCS)")
	v.require(c.SnapshotEvery >= 0, "SnapshotEvery (-snapshot-every) must be non-negative (0 = default)")
	v.require(c.RateLimit >= 0, "RateLimit (-rate-limit) must be non-negative (0 = unlimited)")
	v.require(c.RateBurst >= 0, "RateBurst (-rate-burst) must be non-negative (0 = one second of RateLimit)")
	v.require(c.AdmissionFrac >= 0 && c.AdmissionFrac <= 1, "AdmissionFrac (-admission-frac) must be in [0,1] (0 = disabled)")

	// A setting that only acts through another must not be accepted
	// without it: it would be silently ignored, and the operator left
	// believing in a guarantee that is not there.
	// The archive deduplicates replayed evictions by the detector's trim
	// counter, which only the WAL carries across a restart; without it
	// the counter restarts at 0 and every eviction is dropped as a
	// duplicate until it catches up with what the archive already holds.
	v.require(c.ArchiveDir == "" || c.WALDir != "",
		"ArchiveDir (-archive-dir) requires WALDir (-wal-dir): the WAL carries the eviction ordinal across restarts")
	v.require(c.RateBurst <= 0 || c.RateLimit > 0,
		"RateBurst (-rate-burst) requires RateLimit (-rate-limit): there is no bucket for the burst to size")
	return errors.Join(v...)
}

// Validate is PoolConfig.Validate plus the server's own settings. New
// runs it.
func (c Config) Validate() error {
	var v violations
	v.require(c.ShutdownGrace >= 0, "ShutdownGrace (-grace) must be non-negative (0 = default)")
	return errors.Join(append(v, c.Pool.Validate())...)
}
