package server

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// tenantStorage is one tenant's durability owner — the only code that
// knows whether a WAL or an archive backs the tenant. A disabled
// subsystem is a no-op in here: without a WAL, appends yield sequence 0
// and commits, snapshots and restores do nothing; without an archive
// (PoolConfig.Validate admits one only with a WAL), evictions are
// discarded. It also owns the tenant's storage health record: every path
// that can find the device sick starts here. The metrics table asks
// through withWAL / withArchive.
type tenantStorage struct {
	name string
	cfg  PoolConfig
	wal  *wal.Log     // nil: memory-only tenant
	arch *archive.Log // nil: evictions are discarded
	obs  *obs.TenantObs
	kick func() // nudges the pool supervisor after a degradation

	health   tenantHealth
	archErrs atomic.Uint64 // failed archive seals (no record is lost)
	walErrs  atomic.Uint64 // failed WAL snapshots
}

// openStorage opens (creating as needed) the handles cfg asks for.
func openStorage(cfg PoolConfig, name string, tob *obs.TenantObs, kick func()) (*tenantStorage, error) {
	s := &tenantStorage{name: name, cfg: cfg, obs: tob, kick: kick}
	var err error
	if cfg.WALDir != "" {
		s.wal, err = wal.Open(filepath.Join(cfg.WALDir, name), wal.Options{
			SegmentBytes: cfg.walSegmentBytes,
			OnFlush:      func(d time.Duration) { tob.Observe(obs.StageWALFsync, d) },
			FS:           cfg.FS,
		})
	}
	if err == nil && cfg.ArchiveDir != "" {
		s.arch, err = archive.Open(filepath.Join(cfg.ArchiveDir, name), archive.Options{
			SegmentEvents: cfg.archiveSegmentEvents,
			BucketQuanta:  cfg.archiveBucketQuanta,
			BlockEvents:   cfg.archiveBlockEvents,
			FS:            cfg.FS,
		})
	}
	if err != nil {
		s.close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("server: tenant %s: %w", name, err)
	}
	return s, nil
}

// close releases the WAL. The archive holds no open files, and its
// buffer is durable only through the last snapshot's image.
func (s *tenantStorage) close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// withWAL and withArchive guard a metrics row that reads a durability
// subsystem: a tenant without one reads 0.
func withWAL(f func(v *tenantView) float64) func(v *tenantView) float64 {
	return func(v *tenantView) float64 {
		if v.t.storage.wal == nil {
			return 0
		}
		return f(v)
	}
}

func withArchive(f func(v *tenantView) float64) func(v *tenantView) float64 {
	return func(v *tenantView) float64 {
		if v.t.storage.arch == nil {
			return 0
		}
		return f(v)
	}
}

// durable reports whether anything is logged at all — the apply loop
// asks so a memory-only tenant never copies detector state for a
// snapshot nobody would write.
func (s *tenantStorage) durable() bool { return s.wal != nil }

// failStopped reports whether the WAL has fail-stopped and is waiting
// for the supervisor's reopen.
func (s *tenantStorage) failStopped() bool { return s.wal != nil && s.wal.Failed() != nil }

// reopen repairs a fail-stopped WAL in place (wal.Log.Reopen). Nothing
// else has to change with it: a queued batch whose record the reopen
// discarded fails its Commit at apply and is dropped there, however
// long after the reopen that is.
func (s *tenantStorage) reopen() error { return s.wal.Reopen() }

// dirs lists the tenant's directories on every device it writes — the
// WAL's and, when there is one, the archive's — for the supervisor's
// write probe.
func (s *tenantStorage) dirs() []string {
	dirs := []string{filepath.Join(s.cfg.WALDir, s.name)}
	if s.arch != nil {
		dirs = append(dirs, filepath.Join(s.cfg.ArchiveDir, s.name))
	}
	return dirs
}

// archive returns the query engine's view of the evicted history, nil
// when there is none.
func (s *tenantStorage) archive() query.Archive {
	if s.arch == nil {
		return nil
	}
	return s.arch
}

// restore rebuilds the detector the WAL describes: the latest snapshot
// (a fresh detector when there is none, or no WAL), then the segment
// tail through applyRecord, the function the worker applied it with.
// The archive buffer's image that follows the detector state in the
// snapshot is handed back first, and the retention cap and eviction hook
// are attached before the replay (attach), so the evictions since the
// snapshot are re-archived and those a segment sealed since already
// holds are dropped by ordinal.
// A damaged image fails the restore like damaged state; a failed seal
// while handing it back is counted and retried by the next Append.
// Returns the detector, the quantum of the snapshot it started from, and
// the sequence of the last record applied.
func (s *tenantStorage) restore() (*detect.Detector, int, uint64, error) {
	if s.wal == nil {
		det := detect.New(s.cfg.Detector)
		s.attach(det)
		return det, 0, 0, nil
	}
	r, snapSeq, err := s.wal.LatestSnapshot()
	if err != nil {
		return nil, 0, 0, err
	}
	var det *detect.Detector
	if r == nil {
		det = detect.New(s.cfg.Detector)
	} else {
		// Load reads exactly the checkpoint, so the image after it is
		// left for RestoreBuffer. The file's size bounds the
		// checkpoint's.
		br := bufio.NewReader(r)
		det, err = detect.LoadSized(br, snapshotSize(r))
		if err == nil && s.arch != nil {
			err = s.arch.RestoreBuffer(br, func(err error) { s.writeFailed(&s.archErrs, err) })
		}
		r.Close()
		if err != nil {
			return nil, 0, 0, err
		}
	}
	base := det.AKG().Quantum()
	s.attach(det)
	var mu sync.Mutex // applyRecord's lock; nothing else can reach det yet
	err = s.wal.Replay(snapSeq, func(_ uint64, msgs []stream.Message, flush bool) error {
		applyRecord(det, &mu, msgs, flush, nil)
		return nil
	})
	return det, base, s.wal.LastSeq(), err
}

// snapshotSize returns the size of the snapshot file r reads, or 0 when
// r cannot tell.
func snapshotSize(r io.Reader) int {
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if st, err := f.Stat(); err == nil {
			return int(st.Size())
		}
	}
	return 0
}

// attach sets the tenant's retention cap on a detector it built and
// routes the events the cap evicts into the archive. The detector's
// cumulative trim counter is the record's eviction ordinal; the archive
// drops ordinals it already holds, which makes the hook idempotent
// across WAL replays. An Append error is a failed seal; the archive
// holds the record either way. Without an archive evictions are
// discarded.
func (s *tenantStorage) attach(det *detect.Detector) {
	if s.arch != nil {
		det.SetOnEvict(func(ev *detect.Event) {
			rec := archive.RecordOf(ev)
			rec.Seq = det.Trimmed()
			if err := s.arch.Append(rec); err != nil {
				s.writeFailed(&s.archErrs, err)
			}
		})
	}
	det.SetRetain(s.cfg.RetainEvents)
}

// append logs one ingest batch — or, with flush set, a stream-flush
// marker — and returns its sequence number. It is a memory copy into the
// WAL's pending buffer: the only error is a log already fail-stopped by
// a failed flush, which the supervisor repairs.
func (s *tenantStorage) append(msgs []stream.Message, flush bool) (uint64, error) {
	switch {
	case s.wal == nil:
		return 0, nil
	case flush:
		return s.wal.AppendFlush()
	}
	return s.wal.Append(msgs)
}

// commit waits until record seq is durable, leading the flush that makes
// it so or finding an earlier one already did. Sequence 0 is "never
// logged" and always succeeds.
func (s *tenantStorage) commit(seq uint64) error {
	if seq == 0 {
		return nil
	}
	return s.wal.Commit(seq)
}

// snapshot is the one way a WAL snapshot gets written, at the cadence
// point, after a recovery that replayed past one, and on shutdown. The
// archive buffer's image follows the detector state in the same file,
// because the snapshot persists the detector's eviction counter and
// replay from it never regenerates the evictions it covers. Compaction
// inside wal.Snapshot then drops the covered segments. seq must name
// exactly the state save writes, so callers run on the goroutine that
// applies the tenant's batches (or after its drain): no eviction can
// land between capture and write.
func (s *tenantStorage) snapshot(seq uint64, save func(io.Writer) error) error {
	if s.wal == nil {
		return nil
	}
	t0 := time.Now()
	if err := s.wal.Snapshot(seq, func(w io.Writer) error {
		if err := save(w); err != nil || s.arch == nil {
			return err
		}
		return s.arch.WriteBuffer(w)
	}); err != nil {
		s.writeFailed(&s.walErrs, err)
		return err
	}
	s.obs.Observe(obs.StageWALSnapshot, time.Since(t0))
	return nil
}

// writeFailed accounts a failed archive seal or WAL snapshot. Neither is
// fatal — the WAL still holds the full history — but ENOSPC means the
// device is out of space and the next flush will fail too. Degrade
// proactively so ingest sheds before it fail-stops the log, and let the
// supervisor's write probe decide when space is back.
func (s *tenantStorage) writeFailed(errs *atomic.Uint64, err error) {
	errs.Add(1)
	if vfs.Classify(err) == vfs.ClassNoSpace {
		s.health.enter(degradedNoSpace)
		s.kick()
	}
}
