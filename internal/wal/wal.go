// Package wal is the durability layer of the serving subsystem: a
// per-tenant write-ahead log of raw ingest batches in size-rotated,
// CRC-framed segment files, plus periodic snapshots (any codec — the
// server plugs in the detect checkpoint encoder). Recovery loads the
// latest snapshot and replays the segment tail; because the detector is
// deterministic, replay reproduces the pre-crash state bit-identically.
// Compaction deletes segments wholly covered by the latest snapshot.
//
// On-disk layout of one log directory:
//
//	seg-00000000000000000001.wal    records 1..k (first seq in the name)
//	seg-00000000000000000042.wal    records 42.. (active, appended)
//	snap-00000000000000000041.snap  state after applying records 1..41
//
// Record framing: 4-byte big-endian payload length, 4-byte CRC-32
// (Castagnoli) of the payload, payload. The payload's first byte is the
// record kind — 'B' (ingest batch, followed by the JSON message array)
// or 'F' (stream flush, no body; flushes mutate the detector and must
// replay in order with batches). A torn tail — short frame or CRC
// mismatch at the end of the newest segment, the signature of a crash
// mid-append — is truncated away on Open; the same damage in an older
// (rotated, therefore once-complete) segment is reported as corruption
// instead.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/vfs"
)

const (
	segPrefix  = "seg-"
	segExt     = ".wal"
	snapPrefix = "snap-"
	snapExt    = ".snap"
	frameHdr   = 8 // length + CRC
	// Record kinds (first payload byte).
	recBatch = 'B'
	recFlush = 'F'
	// maxRecordBytes bounds one framed payload (a single ingest batch);
	// it exists so a corrupt length field cannot drive a huge allocation.
	maxRecordBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tune one Log.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (checked after each append). Zero selects 4 MiB.
	SegmentBytes int64
	// GroupCommit selects the durability level. Nil: Append writes the
	// record to the active segment and never fsyncs it — the OS page
	// cache survives kill -9, only power loss can lose the unsynced
	// tail. Non-nil: Append buffers the framed record in memory and
	// returns immediately; the shared committer goroutine flushes every
	// dirty log's buffer with one write and one fsync per interval, and
	// Commit(seq) blocks until the record is durable. Callers that ack
	// after Commit get power-safe acks while all concurrent appenders —
	// across every tenant sharing the committer — split the fsync cost.
	GroupCommit *GroupCommitter
	// OnFlush, when non-nil, is called with the wall time of each
	// successful write+fsync of pending group-commit records, from the
	// flushing goroutine with the log's lock held — it must be fast and
	// must not call back into the log. Serving layers hook it to feed
	// fsync-latency histograms.
	OnFlush func(time.Duration)
	// FS overrides the filesystem behind every file operation — the
	// fault-injection seam for tests. Nil selects the real one.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	o.FS = vfs.Default(o.FS)
	return o
}

// Log is one tenant's write-ahead log. Safe for concurrent use: the
// server appends from its ingest path while the tenant worker snapshots
// and reads metrics.
type Log struct {
	dir string
	opt Options
	fs  vfs.FS
	gc  *GroupCommitter // nil = synchronous appends

	mu       sync.Mutex
	f        vfs.File // active segment
	segStart uint64   // first record seq of the active segment
	size     int64    // bytes written to the active segment
	seq      uint64   // last appended record seq (0 = empty log)
	snapSeq  uint64   // seq of the latest snapshot
	hasSnap  bool     // a snapshot exists (snapSeq 0 is a valid position)
	failed   error    // set when the active segment may hold garbage
	segCount int      // on-disk segment files (avoids ReadDir per metric read)

	// encBuf is the pooled record-encoding buffer: one frame (header +
	// kind + JSON batch) is built here per append, then written with a
	// single Write (or copied to pend under group commit).
	encBuf []byte
	// Group-commit state: pend accumulates framed records not yet
	// written to the segment; committed is the seq of the last record
	// durably flushed (== seq in synchronous mode); commitCh broadcasts
	// each flush to Commit waiters.
	pend      []byte
	committed uint64
	commitCh  chan struct{}
	// waiters counts goroutines blocked in Commit. Reopen refuses to
	// run until they drain: a waiter woken by fail-stop must observe
	// l.failed before the reopen clears it, or a fresh record reusing
	// its seq could release it spuriously — acking a batch whose log
	// record now holds different data.
	waiters int

	// Replay scratch (guarded by mu like everything else): the frame
	// payload buffer and decoded batch slice are reused across records,
	// which is why Replay's callback must not retain its arguments.
	scanBuf    []byte
	replayMsgs []stream.Message
}

// Open opens (creating if needed) the log directory, truncates any torn
// tail left by a crash, and positions appends after the last intact
// record.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, fs: opt.FS, gc: opt.GroupCommit}
	// Sweep temp files a crash mid-snapshot left behind — the defer that
	// would have removed them never ran, and nothing else ever would.
	if orphans, err := l.fs.Glob(filepath.Join(dir, "snap-tmp-*")); err == nil {
		for _, o := range orphans {
			l.fs.Remove(o) //nolint:errcheck // best effort
		}
	}
	segs, snaps, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 {
		l.snapSeq = snaps[len(snaps)-1]
		l.hasSnap = true
	}
	l.segCount = len(segs)
	l.seq = l.snapSeq
	if len(segs) > 0 {
		// Count records per segment; truncate a torn tail on the newest.
		for i, start := range segs {
			last, validBytes, err := l.scanSegment(start, nil)
			if err != nil {
				if i != len(segs)-1 {
					return nil, fmt.Errorf("wal: segment %s: %w", l.segPath(start), err)
				}
				if terr := l.fs.Truncate(l.segPath(start), validBytes); terr != nil {
					return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", l.segPath(start), terr)
				}
				last = start - 1
				if validBytes > 0 {
					last, _, err = l.scanSegment(start, nil)
					if err != nil {
						return nil, fmt.Errorf("wal: segment %s after truncation: %w", l.segPath(start), err)
					}
				}
			}
			if last > l.seq {
				l.seq = last
			}
		}
		active := segs[len(segs)-1]
		f, err := l.fs.OpenFile(l.segPath(active), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: open active segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: stat active segment: %w", err)
		}
		l.f, l.segStart, l.size = f, active, st.Size()
	}
	l.committed = l.seq
	return l, nil
}

// Append frames and writes one ingest batch, returning its sequence
// number (1-based, monotonic). In synchronous mode (no group
// committer) the record is in the page cache before Append returns, so
// a batch acknowledged to a client is never lost to a process kill.
// Under group commit the record is only buffered — callers must
// Commit(seq) before acking.
func (l *Log) Append(msgs []stream.Message) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendRecordLocked(recBatch, msgs)
}

// AppendFlush logs a stream-flush control record. A flush forces the
// detector's buffered partial quantum through, mutating state exactly
// like a batch does — so it must be in the log, in order, or replay
// would cut subsequent quanta at different boundaries than the live
// run did.
func (l *Log) AppendFlush() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendRecordLocked(recFlush, nil)
}

// appendRecordLocked encodes one frame into the pooled buffer and either
// writes it (synchronous mode) or parks it on the pending group-commit
// buffer.
func (l *Log) appendRecordLocked(kind byte, msgs []stream.Message) (uint64, error) {
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	buf := append(l.encBuf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
	if kind == recBatch {
		buf = appendMessagesJSON(buf, msgs)
	}
	payload := buf[frameHdr:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	l.encBuf = buf

	if l.gc != nil {
		wasEmpty := len(l.pend) == 0
		l.pend = append(l.pend, buf...)
		l.seq++
		if wasEmpty {
			if stopped := l.gc.noteDirty(l); stopped {
				// The committer is gone (shutdown path); degrade to a
				// synchronous flush so no record can be stranded.
				if err := l.flushLocked(); err != nil {
					return 0, err
				}
			}
		}
		return l.seq, nil
	}

	if l.f == nil {
		if err := l.rotate(l.seq + 1); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		l.rollback()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq++
	l.size += int64(len(buf))
	l.committed = l.seq
	if l.size >= l.opt.SegmentBytes {
		// The record is committed; a failed rotation must not fail the
		// append (the caller would retry and duplicate it). Rotation is
		// simply reattempted on the next append.
		l.rotate(l.seq + 1) //nolint:errcheck // deferred to next append
	}
	return l.seq, nil
}

// Commit blocks until record seq is durable (flushed and fsynced by the
// group committer) or the log has failed. In synchronous mode it
// returns immediately: Append already provided the durability.
func (l *Log) Commit(seq uint64) error {
	if l.gc == nil {
		return nil
	}
	l.mu.Lock()
	// seq > l.seq means a supervised Reopen discarded the record after
	// its append (it was pending when the log fail-stopped): it will
	// never become durable, and waiting would deadlock — or worse,
	// release spuriously once a fresh record reuses the seq, acking a
	// batch whose log record holds different data.
	for l.committed < seq && l.failed == nil && seq <= l.seq {
		if l.commitCh == nil {
			l.commitCh = make(chan struct{})
		}
		ch := l.commitCh
		l.waiters++
		l.mu.Unlock()
		<-ch
		l.mu.Lock()
		l.waiters--
	}
	var err error
	if l.committed < seq {
		if l.failed != nil {
			err = fmt.Errorf("wal: commit: %w", l.failed)
		} else {
			err = fmt.Errorf("wal: commit: record %d discarded by reopen", seq)
		}
	}
	l.mu.Unlock()
	return err
}

// flushCommit is the group committer's entry point: flush this log's
// pending records. Errors are not returned — they fail-stop the log
// and are surfaced to every Commit waiter.
func (l *Log) flushCommit() {
	l.mu.Lock()
	l.flushLocked() //nolint:errcheck // surfaced via l.failed to Commit waiters
	l.mu.Unlock()
}

// flushLocked writes the pending buffer with one Write, fsyncs, and
// wakes Commit waiters. A write or fsync failure fail-stops the log:
// the pending records were never acknowledged (their Commit calls
// return the error), and accepting further appends after a partial
// flush could tear the segment.
func (l *Log) flushLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if len(l.pend) == 0 {
		return nil
	}
	var flushStart time.Time
	if l.opt.OnFlush != nil {
		flushStart = time.Now() //repro:wallclock-exempt flush-latency callback; durability telemetry, not record content
	}
	if l.f == nil {
		if err := l.rotate(l.committed + 1); err != nil {
			l.fail(err)
			return err
		}
	}
	if _, err := l.f.Write(l.pend); err != nil {
		l.rollback() // drop any partially written frame
		l.fail(fmt.Errorf("wal: group flush: %w", err))
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		// The frames are in the file but were never acknowledged (their
		// Commit waiters get this error). Truncate them away, or a
		// restart would replay records whose clients were told to
		// retry, double-applying on retry. l.size still names the
		// pre-flush offset here.
		l.rollback()
		l.fail(fmt.Errorf("wal: group fsync: %w", err))
		return l.failed
	}
	if l.opt.OnFlush != nil {
		l.opt.OnFlush(time.Since(flushStart)) //repro:wallclock-exempt flush-latency callback; durability telemetry, not record content
	}
	l.size += int64(len(l.pend))
	l.pend = l.pend[:0]
	l.committed = l.seq
	if l.commitCh != nil {
		close(l.commitCh)
		l.commitCh = nil
	}
	if l.size >= l.opt.SegmentBytes {
		l.rotate(l.seq + 1) //nolint:errcheck // reattempted on next flush
	}
	return nil
}

// fail puts the log into fail-stop and wakes Commit waiters so they
// observe the error instead of blocking forever.
func (l *Log) fail(err error) {
	if l.failed == nil {
		l.failed = err
	}
	if l.commitCh != nil {
		close(l.commitCh)
		l.commitCh = nil
	}
}

// rollback discards a partially-written frame after a failed append by
// truncating the active segment to the last good offset. Without it a
// later successful append would land after torn bytes mid-segment, and
// recovery would either refuse the segment or truncate away records
// that were already acknowledged. If even the truncate fails the log
// goes fail-stop: better to refuse appends than to ack unrecoverable
// ones.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.failed = fmt.Errorf("truncate after failed append: %w", err)
	}
}

// rotate closes the active segment (fsyncing it — a rotated segment is
// immutable and must be complete) and starts a new one whose name is
// the seq of the first record it will hold.
func (l *Log) rotate(firstSeq uint64) error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync on rotate: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	// O_APPEND matters beyond convention: rollback() truncates after a
	// failed write, and only append-mode writes land at the new EOF
	// rather than at the stale positional offset (which would leave a
	// zero-filled hole that parses as a phantom record).
	f, err := l.fs.OpenFile(l.segPath(firstSeq), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.f, l.segStart, l.size = f, firstSeq, 0
	l.segCount++
	return nil
}

// Snapshot atomically persists the state after applying records 1..seq
// (write is the caller's codec — the server passes detect's encoder),
// then deletes segments and older snapshots the new snapshot covers.
// The slow part — encoding and fsyncing the temp file — runs outside
// the log mutex so concurrent Appends (the ingest ack path) never
// stall behind snapshot IO; only the rename, bookkeeping and
// compaction take the lock. Concurrent Snapshot calls are the caller's
// responsibility to avoid (the server snapshots from one goroutine per
// tenant).
func (l *Log) Snapshot(seq uint64, write func(io.Writer) error) error {
	l.mu.Lock()
	if l.hasSnap && seq < l.snapSeq {
		defer l.mu.Unlock()
		return fmt.Errorf("wal: snapshot seq %d behind existing snapshot %d", seq, l.snapSeq)
	}
	// Flush group-committed records first: the snapshot position names
	// records 1..seq, which must not be outlived by an in-memory buffer
	// a crash could lose while the snapshot survives.
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	tmp, err := l.fs.CreateTemp(l.dir, "snap-tmp-*")
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	defer l.fs.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.hasSnap && seq < l.snapSeq {
		return fmt.Errorf("wal: snapshot seq %d behind existing snapshot %d", seq, l.snapSeq)
	}
	if err := l.fs.Rename(tmp.Name(), l.snapPath(seq)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.syncDir()
	prev, hadPrev := l.snapSeq, l.hasSnap
	l.snapSeq, l.hasSnap = seq, true
	if hadPrev && prev != seq {
		l.fs.Remove(l.snapPath(prev)) //nolint:errcheck // superseded; best effort
	}
	return l.compact()
}

// compact deletes non-active segments whose every record is ≤ snapSeq.
func (l *Log) compact() error {
	segs, _, err := l.scanDir()
	if err != nil {
		return err
	}
	for i, start := range segs {
		if start == l.segStart && l.f != nil {
			continue // never delete the active segment
		}
		// The segment holds records start..(next segment's start - 1);
		// for the last listed segment that is start..l.seq.
		last := l.seq
		if i+1 < len(segs) {
			last = segs[i+1] - 1
		}
		if last <= l.snapSeq {
			if err := l.fs.Remove(l.segPath(start)); err != nil {
				return fmt.Errorf("wal: compact: %w", err)
			}
			l.segCount--
		}
	}
	l.syncDir()
	return nil
}

// LatestSnapshot opens the newest snapshot for reading. Returns
// (nil, 0, nil) when the log has none. A snapshot at position 0 (state
// seeded before any record — e.g. basing a fresh WAL on a restored
// checkpoint) is a real snapshot, not "none".
func (l *Log) LatestSnapshot() (io.ReadCloser, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasSnap {
		return nil, 0, nil
	}
	f, err := l.fs.Open(l.snapPath(l.snapSeq))
	if err != nil {
		return nil, 0, fmt.Errorf("wal: open snapshot: %w", err)
	}
	return f, l.snapSeq, nil
}

// Replay streams every record with sequence number > after, in order,
// to fn: an ingest batch (flush false) or a stream-flush marker (flush
// true, msgs nil). Used with after = latest snapshot seq to rebuild
// the tail. The msgs slice (and the payloads behind it) is reused
// across records — fn must finish with it before returning, copying if
// it needs to retain.
func (l *Log) Replay(after uint64, fn func(seq uint64, msgs []stream.Message, flush bool) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err // group-committed records would be invisible to the scan
	}
	segs, _, err := l.scanDir()
	if err != nil {
		return err
	}
	for i, start := range segs {
		last := l.seq
		if i+1 < len(segs) {
			last = segs[i+1] - 1
		}
		if last <= after {
			continue
		}
		if _, _, err := l.scanSegment(start, func(seq uint64, payload []byte) error {
			if seq <= after {
				return nil
			}
			if len(payload) == 0 {
				return fmt.Errorf("wal: record %d has no kind byte", seq)
			}
			switch payload[0] {
			case recFlush:
				return fn(seq, nil, true)
			case recBatch:
				// Decode into the reused batch slice: json.Unmarshal
				// reuses the backing array capacity, so steady-state
				// replay allocates only for message texts and growth.
				l.replayMsgs = l.replayMsgs[:0]
				if err := json.Unmarshal(payload[1:], &l.replayMsgs); err != nil {
					return fmt.Errorf("wal: decode record %d: %w", seq, err)
				}
				return fn(seq, l.replayMsgs, false)
			default:
				return fmt.Errorf("wal: record %d has unknown kind %q", seq, payload[0])
			}
		}); err != nil {
			return fmt.Errorf("wal: segment %s: %w", l.segPath(start), err)
		}
	}
	return nil
}

// LastSeq returns the sequence number of the newest appended record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// CommittedSeq returns the sequence number of the newest durably
// committed record — the acked prefix Reopen recovers to.
func (l *Log) CommittedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}

// Failed returns the fail-stop error, or nil while the log is healthy.
// A failed log refuses appends until Reopen succeeds.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Reopen recovers a fail-stopped log in process, without losing any
// acknowledged record: the poisoned active segment — which may hold
// torn bytes or frames whose fsync never completed — is truncated back
// to the acked prefix (records ≤ committed; everything past it was
// reported failed to its callers, so a client retry must not find it on
// disk), sealed, and appends resume in a fresh segment. Pending
// group-commit buffers are discarded for the same reason: their Commit
// waiters already saw the failure. On success the log accepts appends
// again; on error it stays fail-stopped and Reopen can be retried —
// exactly what the serving layer's degradation supervisor does on a
// probe cadence. A healthy log is a no-op.
func (l *Log) Reopen() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		return nil
	}
	if l.waiters > 0 {
		// Commit waiters woken by the fail-stop have not re-acquired the
		// mutex yet. They must observe l.failed — clearing it now could
		// let a later append reuse their seq and release them spuriously.
		// They drain in microseconds; the supervisor retries next probe.
		return fmt.Errorf("wal: reopen: %d commit waiters still draining", l.waiters)
	}
	l.pend = l.pend[:0]
	if l.f != nil {
		l.f.Close() //nolint:errcheck // handle may already be poisoned
		l.f = nil
	}
	segs, _, err := l.scanDir()
	if err != nil {
		return err
	}
	l.seq = l.committed
	if len(segs) == 0 || segs[len(segs)-1] > l.committed+1 {
		// No segment on disk, or the newest segment holds no acked
		// record at all (the failure was its very first write): nothing
		// to truncate that an O_EXCL re-create won't replace. Drop a
		// fully-unacked newest segment so the name is free again.
		if len(segs) > 0 && segs[len(segs)-1] > l.committed+1 {
			if err := l.fs.Remove(l.segPath(segs[len(segs)-1])); err != nil {
				return fmt.Errorf("wal: reopen: drop unacked segment: %w", err)
			}
			l.segCount--
		}
		l.failed = nil
		l.f, l.segStart, l.size = nil, 0, 0
		return nil
	}
	start := segs[len(segs)-1]
	// Find the byte offset of the acked prefix: intact frames with
	// seq ≤ committed. A torn tail stops the scan, which is fine — the
	// torn bytes are past the prefix by construction (committed frames
	// were written and fsynced whole).
	var keep int64
	if _, _, err := l.scanSegment(start, func(seq uint64, payload []byte) error {
		if seq <= l.committed {
			keep += frameHdr + int64(len(payload))
		}
		return nil
	}); err != nil {
		// A torn tail (or trailing garbage) is exactly the damage being
		// repaired: the truncate below cuts it away. Only a segment that
		// cannot be opened at all aborts — scanSegment surfaces that as
		// an open error with keep still 0, and truncating an unreadable
		// file would guess.
		if keep == 0 && errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: reopen: %w", err)
		}
	}
	if err := l.fs.Truncate(l.segPath(start), keep); err != nil {
		return fmt.Errorf("wal: reopen: truncate to acked prefix: %w", err)
	}
	if start == l.committed+1 && keep == 0 {
		// The poisoned segment held no acked records; it is now empty and
		// already named for the next record — resume appending into it.
		f, err := l.fs.OpenFile(l.segPath(start), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen: %w", err)
		}
		l.f, l.segStart, l.size = f, start, 0
		l.failed = nil
		return nil
	}
	// Seal the truncated segment — it is complete through committed and
	// must be fsynced before new appends land elsewhere — then start a
	// fresh segment for the next record.
	f, err := l.fs.OpenFile(l.segPath(start), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen: %w", err)
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("wal: reopen: seal: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: reopen: seal: %w", cerr)
	}
	prevFailed := l.failed
	l.failed = nil
	if err := l.rotate(l.committed + 1); err != nil {
		l.failed = prevFailed
		return err
	}
	return nil
}

// SnapshotSeq returns the sequence number of the latest snapshot.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// SegmentCount returns the number of on-disk segment files, tracked in
// memory — metric reads must not hold the append mutex across a
// directory listing.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segCount
}

// Sync flushes any group-committed buffer and fsyncs the active
// segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Close flushes, fsyncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if l.f == nil {
		return err
	}
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

func (l *Log) segPath(firstSeq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segExt))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapExt))
}

// syncDir fsyncs the directory so renames/removes survive power loss.
func (l *Log) syncDir() {
	if d, err := l.fs.Open(l.dir); err == nil {
		d.Sync() //nolint:errcheck // best-effort directory fsync
		d.Close()
	}
}

// scanDir lists segment start seqs and snapshot seqs, each ascending.
func (l *Log) scanDir() (segs, snaps []uint64, err error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list %s: %w", l.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segExt):
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segExt), 10, 64)
			if err == nil {
				segs = append(segs, n)
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapExt):
			n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapExt), 10, 64)
			if err == nil {
				snaps = append(snaps, n)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// scanSegment walks one segment's frames. fn (optional) receives each
// record's seq and raw payload. Returns the last record seq present
// (start-1 for an empty segment) and the byte offset up to which frames
// were intact; a torn or corrupt frame yields that offset plus an error,
// so the caller can distinguish "truncate here" from "refuse".
func (l *Log) scanSegment(start uint64, fn func(seq uint64, payload []byte) error) (last uint64, validBytes int64, err error) {
	f, err := l.fs.Open(l.segPath(start))
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := newByteCounter(f)
	last = start - 1
	var hdr [frameHdr]byte
	for {
		validBytes = r.n
		if _, err := io.ReadFull(r, hdr[:1]); err == io.EOF {
			return last, validBytes, nil
		} else if err != nil {
			return last, validBytes, fmt.Errorf("torn frame header at offset %d", validBytes)
		}
		if _, err := io.ReadFull(r, hdr[1:]); err != nil {
			return last, validBytes, fmt.Errorf("torn frame header at offset %d", validBytes)
		}
		size := binary.BigEndian.Uint32(hdr[0:4])
		if size > maxRecordBytes {
			return last, validBytes, fmt.Errorf("implausible record size %d at offset %d", size, validBytes)
		}
		// Reuse the frame buffer across records (and scans); fn must not
		// retain the payload.
		if cap(l.scanBuf) < int(size) {
			l.scanBuf = make([]byte, size)
		}
		payload := l.scanBuf[:size]
		if _, err := io.ReadFull(r, payload); err != nil {
			return last, validBytes, fmt.Errorf("torn record at offset %d", validBytes)
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:8]) {
			return last, validBytes, fmt.Errorf("CRC mismatch at offset %d", validBytes)
		}
		last++
		if fn != nil {
			if err := fn(last, payload); err != nil {
				return last, r.n, err
			}
		}
	}
}

// byteCounter counts bytes consumed from an io.Reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
