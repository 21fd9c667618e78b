// Package wal is the durability layer of the serving subsystem: a
// per-tenant write-ahead log of raw ingest batches in size-rotated,
// CRC-framed segment files, plus periodic snapshots (any codec — the
// server plugs in the detect checkpoint encoder). Recovery loads the
// latest snapshot and replays the segment tail; because the detector is
// deterministic, replay reproduces the pre-crash state bit-identically.
// Compaction deletes segments wholly covered by the latest snapshot. A
// snapshot also ends the active segment at its flush, and moves the
// records past its position out of the segment that holds them into one
// of their own, so that what stays on disk is exactly the snapshot plus
// the records it does not cover.
//
// On-disk layout of one log directory:
//
//	seg-00000000000000000001.wal    records 1..k (first seq in the name)
//	seg-00000000000000000042.wal    records 42.. (active, appended)
//	snap-00000000000000000041.snap  state after applying records 1..41
//
// Record framing: 4-byte big-endian payload length, 4-byte CRC-32
// (Castagnoli) of the payload, payload. The payload's first byte is the
// record kind — 'M' (ingest batch) or 'F' (stream flush, no body;
// flushes mutate the detector and must replay in order with batches).
// A batch body is binary: a uvarint message count, then per message a
// uvarint ID, a uvarint User, a zigzag varint Time, a uvarint text
// length and the text's bytes (encode.go). Kind 'B', the retired JSON
// batch body, is refused by Replay; Open and a Replay from a snapshot
// that covers it never read its kind. A torn tail — short frame or CRC
// mismatch at the end of the newest segment, the signature of a crash
// mid-append — is truncated away on Open; the same damage in an older
// (rotated, therefore once-complete) segment is reported as corruption
// instead.
//
// Commit protocol. Append only frames a record into the in-memory
// pending buffer and assigns it the next sequence number; it never
// touches the file. Commit(seq) makes the record durable: the first
// committer whose record is not yet durable takes the flush lock, swaps
// the pending buffer out under the log mutex, and writes and fsyncs it
// holding the flush lock alone, so appends keep landing in a fresh
// buffer during the I/O and ride the next flush. Committers that queued
// behind it on the flush lock usually find their record already
// durable. A failed flush fail-stops the log; Reopen repairs it in place
// and never hands out a discarded sequence number again, so a Commit of
// a record the reopen discarded fails whenever it is called.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
	"sync/atomic"
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
	recBatch = 'M'
	recFlush = 'F'
	// recJSONBatch is the retired JSON batch record, which no build
	// since the binary one writes or reads.
	recJSONBatch = 'B'
	// maxRecordBytes bounds one framed payload (a single ingest batch);
	// it exists so a corrupt length field cannot drive a huge allocation.
	maxRecordBytes = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a log directory Open refuses: damage other than a torn
// tail on the newest segment, or two segments that both hold a record
// with different bytes.
var ErrCorrupt = errors.New("wal: corrupt log")

// Options tune one Log.
type Options struct {
	// SegmentBytes rotates the active segment once it holds this many
	// bytes (checked before each flush). Zero selects 4 MiB.
	SegmentBytes int64
	// OnFlush, when non-nil, is called with the wall time of each
	// successful flush (write + fsync of the pending records, plus any
	// directory fsync they need), from the flushing goroutine while it
	// holds the flush lock — it must be fast and must not call back into
	// the log. Serving layers hook it to feed fsync-latency histograms.
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
// server appends and commits from its ingest path while the tenant
// worker commits, snapshots and reads metrics.
//
// Two locks. flushMu serialises flushes and owns the file state (f,
// segStart, size, dirsUnsynced); mu guards everything else and is held
// only for memory work, never across the flush I/O. Lock order: flushMu,
// then mu.
type Log struct {
	dir string
	opt Options
	fs  vfs.FS

	flushMu      sync.Mutex
	f            vfs.File // active segment; nil until the next flush creates one
	segStart     uint64   // first record seq of the active segment
	size         int64    // bytes durably written to the active segment
	dirsUnsynced bool     // the next flush must fsync the log directory and its parent
	segCount     atomic.Int64

	mu      sync.Mutex
	seq     uint64 // last assigned record seq (0 = empty log)
	durable uint64 // last record written and fsynced; every record ≤ it is durable unless lost
	// pend holds the framed records pendFirst..seq not yet handed to a
	// flush; spare is the buffer the last flush returned, reused as the
	// next pend.
	pend, spare []byte
	pendFirst   uint64
	// lost lists the sequence ranges (from, to] Reopen discarded; their
	// numbers are never assigned again, and committing one fails.
	lost    []lostRange
	snapSeq uint64 // seq of the latest snapshot
	hasSnap bool   // a snapshot exists (snapSeq 0 is a valid position)
	failed  error  // set when a flush failed; cleared by Reopen

	// Replay scratch (guarded by mu like everything else): the frame
	// payload buffer and decoded batch slice are reused across records,
	// which is why Replay's callback must not retain the slice.
	scanBuf    []byte
	replayMsgs []stream.Message
}

// lostRange is one Reopen's discarded records (from, to], and the
// failure that cost them.
type lostRange struct {
	from, to uint64
	cause    error
}

// Open opens (creating if needed) the log directory, truncates any torn
// tail left by a crash, and positions appends after the last intact
// record.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	// Whether or not this Open created the directory, nothing says its
	// entry — or the active segment's — reached the disk: the first flush
	// fsyncs both directories before it acknowledges anything.
	l := &Log{dir: dir, opt: opt, fs: opt.FS, dirsUnsynced: true}
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
	l.segCount.Store(int64(len(segs)))
	l.seq = l.snapSeq
	if len(segs) > 0 {
		// Count records per segment; truncate a torn tail on the newest.
		var prevLast uint64
		for i, start := range segs {
			if i > 0 && start <= prevLast {
				// A snapshot that crashed between writing a segment of the
				// records past it and deleting the segment they came from
				// leaves both. Cut the older one back.
				if err := l.resolveOverlap(segs[i-1], start); err != nil {
					return nil, err
				}
			}
			last, validBytes, err := l.scanSegment(start, nil)
			if err != nil {
				if i != len(segs)-1 {
					return nil, fmt.Errorf("wal: segment %s: %w: %v", l.segPath(start), ErrCorrupt, err)
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
			prevLast = last
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
	l.durable = l.seq
	return l, nil
}

// Append frames one ingest batch into the pending buffer and returns its
// sequence number (1-based, strictly increasing for the life of the
// Log). It never touches the file: callers must Commit(seq) before
// acknowledging the batch.
func (l *Log) Append(msgs []stream.Message) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(recBatch, msgs)
}

// AppendFlush logs a stream-flush control record. A flush forces the
// detector's buffered partial quantum through, mutating state exactly
// like a batch does — so it must be in the log, in order, or replay
// would cut subsequent quanta at different boundaries than the live
// run did.
func (l *Log) AppendFlush() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(recFlush, nil)
}

// appendLocked encodes one frame straight onto the pending buffer; mu
// held.
func (l *Log) appendLocked(kind byte, msgs []stream.Message) (uint64, error) {
	if l.failed != nil {
		return 0, fmt.Errorf("wal: log failed: %w", l.failed)
	}
	if len(l.pend) == 0 {
		l.pendFirst = l.seq + 1
	}
	at := len(l.pend)
	buf := append(l.pend, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	if kind == recBatch {
		buf = appendBatch(buf, msgs)
	}
	payload := buf[at+frameHdr:]
	binary.BigEndian.PutUint32(buf[at:at+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[at+4:at+8], crc32.Checksum(payload, crcTable))
	l.pend = buf
	l.seq++
	return l.seq, nil
}

// Commit returns once record seq is durable — leading the flush that
// makes it so, or finding that an earlier flush already did — or with
// an error when it never will be: its flush failed, a Reopen discarded
// it, or no such record was appended.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	done, err := l.settledLocked(seq)
	l.mu.Unlock()
	if done {
		return err
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if done, err := l.settledLocked(seq); done {
		return err // the flush this one waited behind covered the record
	}
	l.flushLocked() //nolint:errcheck // settledLocked reports the outcome
	_, err = l.settledLocked(seq)
	return err
}

// settledLocked reports whether record seq's fate is decided, and how:
// nil once it is durable, an error when it never will be. A lost range
// is checked first — records appended after a reopen push durable past
// it. mu held.
func (l *Log) settledLocked(seq uint64) (bool, error) {
	for _, r := range l.lost {
		if seq > r.from && seq <= r.to {
			return true, fmt.Errorf("wal: commit: record %d discarded by reopen: %w", seq, r.cause)
		}
	}
	switch {
	case seq <= l.durable:
		return true, nil
	case l.failed != nil:
		return true, fmt.Errorf("wal: commit: %w", l.failed)
	case seq > l.seq:
		return true, fmt.Errorf("wal: commit: record %d was never appended", seq)
	}
	return false, nil
}

// flushLocked makes every pending record durable. It swaps the pending
// buffer out, releases mu for the write and fsync — appends keep
// landing in the fresh buffer meanwhile — then publishes the new
// durable position, or fail-stops the log: the flushed records were
// never acknowledged (their Commit calls return the error), and
// accepting further appends after a partial flush could tear the
// segment. Called with flushMu and mu held; returns with both held.
func (l *Log) flushLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if len(l.pend) == 0 {
		return nil
	}
	buf, first, last := l.pend, l.pendFirst, l.seq
	l.pend = l.spare[:0]
	l.mu.Unlock()
	var start time.Time
	if l.opt.OnFlush != nil {
		start = time.Now() //repro:wallclock-exempt flush-latency callback; durability telemetry, not record content
	}
	err := l.write(buf, first)
	if err == nil && l.opt.OnFlush != nil {
		l.opt.OnFlush(time.Since(start)) //repro:wallclock-exempt flush-latency callback; durability telemetry, not record content
	}
	l.mu.Lock()
	l.spare = buf[:0]
	if err != nil {
		if l.failed == nil {
			l.failed = err
		}
		return err
	}
	l.durable = last
	return nil
}

// write appends buf, whose first record is first, to the active segment
// — creating the next one first when there is none or it is full — and
// makes it durable: the segment's fsync, then, when a directory entry
// the records depend on is new, the log directory's and its parent's.
// On failure the written bytes are truncated away again, so a restart
// cannot replay records whose clients were told to retry; if even that
// truncate fails, Reopen cuts back to the durable prefix. flushMu held.
func (l *Log) write(buf []byte, first uint64) error {
	if l.f == nil || l.size >= l.opt.SegmentBytes {
		if err := l.rotate(first); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		l.f.Truncate(l.size) //nolint:errcheck // best effort, see above
		return fmt.Errorf("wal: flush: %w", err)
	}
	err := l.f.Sync()
	if err == nil && l.dirsUnsynced {
		if err = syncDir(l.fs, l.dir); err == nil {
			err = syncDir(l.fs, filepath.Dir(l.dir))
		}
		l.dirsUnsynced = err != nil
	}
	if err != nil {
		l.f.Truncate(l.size) //nolint:errcheck // best effort, see above
		return fmt.Errorf("wal: flush fsync: %w", err)
	}
	l.size += int64(len(buf))
	return nil
}

// rotate closes the active segment and creates the next, named for the
// first record it will hold. Every flush fsyncs what it wrote, so the
// closed segment is already complete on disk; the new file's directory
// entry is fsynced by the flush that first writes to it. flushMu held.
func (l *Log) rotate(first uint64) error {
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	// O_APPEND matters beyond convention: a failed write is truncated
	// away, and only append-mode writes land at the new EOF rather than
	// at the stale positional offset (which would leave a zero-filled
	// hole that parses as a phantom record).
	f, err := l.fs.OpenFile(l.segPath(first), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.f, l.segStart, l.size = f, first, 0
	l.dirsUnsynced = true
	l.segCount.Add(1)
	return nil
}

// Snapshot atomically persists the state after applying records 1..seq
// (write is the caller's codec — the server passes detect's encoder),
// then deletes the segments and older snapshots the new snapshot covers.
// Pending records are flushed first, so a snapshot never outlives the
// records it claims to cover, and the flush ends the active segment: the
// records appended while the snapshot is written go to a new one. The
// records past seq that the ended segments hold — those the caller had
// logged but not yet applied, at most a queue's worth — are copied into
// a segment of their own, named seq+1, so that compaction can delete the
// segment they came from and the log keeps exactly the records the
// snapshot does not cover. Encoding the snapshot and writing both files
// run outside both locks, so appends and commits never stall behind
// snapshot IO; one directory fsync makes both new names durable. Covered
// files are deleted only once it succeeded: until then the snapshot may
// not survive a crash, and the segments it covers are all that would.
// A crash after the copy's name is durable but before its source is
// deleted leaves two segments holding the same records, which Open
// resolves. Concurrent Snapshot calls are the caller's responsibility to
// avoid (the server snapshots from one goroutine per tenant).
func (l *Log) Snapshot(seq uint64, write func(io.Writer) error) error {
	l.mu.Lock()
	prev, behind := l.snapSeq, l.hasSnap && seq < l.snapSeq
	l.mu.Unlock()
	if behind {
		return fmt.Errorf("wal: snapshot seq %d behind existing snapshot %d", seq, prev)
	}
	ended, err := l.syncAndEnd()
	if err != nil {
		return err
	}
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
	split, tail, err := l.copyTail(seq, ended)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if tail != "" {
		defer l.fs.Remove(tail) // a no-op once renamed
	}
	if err := l.fs.Rename(tmp.Name(), l.snapPath(seq)); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if tail != "" {
		if err := l.fs.Rename(tail, l.segPath(seq+1)); err != nil {
			return fmt.Errorf("wal: snapshot: %w", err)
		}
		l.segCount.Add(1)
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		// Not durable: take the copy back, so that no two segments hold
		// one record while this log runs.
		if tail != "" && l.fs.Remove(l.segPath(seq+1)) == nil {
			l.segCount.Add(-1)
		}
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.snapSeq, l.hasSnap = seq, true
	return l.compact(split)
}

// syncAndEnd makes every pending record durable, as Sync does, and ends
// the active segment: the next flush starts a new one. It returns the
// last record the ended segments hold.
func (l *Log) syncAndEnd() (uint64, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	if l.f != nil {
		err := l.f.Close()
		l.f = nil
		if err != nil {
			return 0, fmt.Errorf("wal: snapshot: close segment: %w", err)
		}
	}
	return l.durable, nil
}

// copyTail finds the segment a snapshot at seq splits — the last one
// starting at or before seq, whose name leaves room for records past
// seq — writes the records past seq it holds to a new, fsynced temp
// file, and returns the segment's start and the temp file's name (""
// when it holds no record past seq: a reopen discarded them). ended is
// the last record flushed before the active segment was ended: a
// segment starting after it was created since and is left alone, and
// one starting at or before it is closed. Without a segment to split,
// split is 0 (no segment starts there).
func (l *Log) copyTail(seq, ended uint64) (split uint64, tail string, err error) {
	segs, _, err := l.scanDir()
	if err != nil {
		return 0, "", err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i] > seq+1 })
	if i == 0 || segs[i-1] > min(seq, ended) {
		return 0, "", nil
	}
	split = segs[i-1]
	// The scan runs outside both locks, so it reads with a Log of its
	// own: l's frame buffer belongs to whoever holds mu.
	var frames []byte
	r := &Log{dir: l.dir, fs: l.fs}
	if _, _, err := r.scanSegment(split, func(s uint64, payload []byte) error {
		if s > seq {
			frames = appendFrame(frames, payload)
		}
		return nil
	}); err != nil {
		return 0, "", err
	}
	if len(frames) == 0 {
		return split, "", nil
	}
	f, err := l.fs.CreateTemp(l.dir, "snap-tmp-*")
	if err != nil {
		return 0, "", err
	}
	_, err = f.Write(frames)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.fs.Remove(f.Name()) //nolint:errcheck // best effort
		return 0, "", err
	}
	return split, f.Name(), nil
}

// appendFrame appends one record's frame — length, CRC, payload — to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// resolveOverlap handles segment newer starting at or before the last
// record of segment older, its predecessor — the trace of a snapshot
// that crashed after writing its copy of older's records past the
// snapshot (named for the first of them) and before deleting older. The
// records both hold must be byte for byte the same, older's running to
// its end and newer holding all of them: then older is cut back to end
// before newer's first record, and the cut fsynced. Anything else is
// ErrCorrupt — in particular a sequence number written twice with
// different records, as reuse after a Reopen would write it. Damage
// inside older fails it too.
func (l *Log) resolveOverlap(older, newer uint64) error {
	var keep int64
	var overlap [][]byte
	if _, _, err := l.scanSegment(older, func(seq uint64, payload []byte) error {
		if seq < newer {
			keep += frameHdr + int64(len(payload))
		} else {
			overlap = append(overlap, bytes.Clone(payload))
		}
		return nil
	}); err != nil {
		return fmt.Errorf("wal: segment %s: %w: %v", l.segPath(older), ErrCorrupt, err)
	}
	// Damage past the shared records is Open's own scan to judge.
	n, differs := 0, errors.New("differs")
	_, _, err := l.scanSegment(newer, func(seq uint64, payload []byte) error {
		if n == len(overlap) {
			return nil
		}
		if !bytes.Equal(payload, overlap[n]) {
			return differs
		}
		n++
		return nil
	})
	if errors.Is(err, differs) || n < len(overlap) {
		return fmt.Errorf("wal: segment %s: %w: record %d differs from, or lacks, its copy in %s",
			l.segPath(newer), ErrCorrupt, newer+uint64(n), l.segPath(older))
	}
	if err := l.truncateSynced(l.segPath(older), keep); err != nil {
		return fmt.Errorf("wal: cut %s: %w", l.segPath(older), err)
	}
	return nil
}

// compact deletes older snapshots, the segments whose every record is
// ≤ snapSeq, and segment split (when not 0), whose records past snapSeq
// the snapshot copied out; flushMu and mu held.
func (l *Log) compact(split uint64) error {
	segs, snaps, err := l.scanDir()
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s < l.snapSeq {
			l.fs.Remove(l.snapPath(s)) //nolint:errcheck // superseded; best effort
		}
	}
	for i, start := range segs {
		// The segment holds records from start up to at most the next
		// segment's start - 1 (less when a reopen left a gap in the
		// names); for the last listed segment, up to at most l.seq.
		last := l.seq
		if i+1 < len(segs) {
			last = segs[i+1] - 1
		}
		if last <= l.snapSeq || start == split {
			if err := l.fs.Remove(l.segPath(start)); err != nil {
				return fmt.Errorf("wal: compact: %w", err)
			}
			l.segCount.Add(-1)
		}
	}
	if err := syncDir(l.fs, l.dir); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
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
// the tail. Pending records are flushed first. The msgs slice is reused
// across records — fn must finish with it before returning, copying if
// it needs to retain; the texts are strings of their own and may be
// kept.
func (l *Log) Replay(after uint64, fn func(seq uint64, msgs []stream.Message, flush bool) error) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(); err != nil {
		return err // pending records would be invisible to the scan
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
			if seq <= after || seq > last {
				return nil // past last: a copy in the next segment holds it
			}
			if len(payload) == 0 {
				return fmt.Errorf("wal: record %d has no kind byte", seq)
			}
			switch payload[0] {
			case recFlush:
				return fn(seq, nil, true)
			case recBatch:
				// Decode into the reused batch slice: steady-state
				// replay allocates one string per record, which every
				// text of the batch is a substring of.
				msgs, err := decodeBatch(l.replayMsgs, payload[1:])
				l.replayMsgs = msgs
				if err != nil {
					return fmt.Errorf("wal: decode record %d: %w", seq, err)
				}
				return fn(seq, msgs, false)
			case recJSONBatch:
				return fmt.Errorf("wal: record %d is a retired JSON batch record (kind 'B'), which this build does not read; "+
					"start the previous build once on this directory and stop it cleanly, so that its snapshot covers the record, then start this one", seq)
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

// Failed returns the fail-stop error, or nil while the log is healthy.
// A failed log refuses appends until Reopen succeeds.
func (l *Log) Failed() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Reopen recovers a fail-stopped log in process without losing any
// acknowledged record. The newest segment — the only one a failed flush
// can have touched — is cut back to the durable prefix and fsynced, or
// removed when it holds no durable record; the pending buffer is
// dropped. Every record past the durable prefix is thereby discarded:
// its Commit failed, or now fails whenever it is called, so a client
// retry never finds it on disk. Sequence numbers are not reused —
// appends resume one past the last assigned seq, in a new segment named
// for it, so segment names may skip the discarded range. On error the
// log stays fail-stopped and Reopen can be retried — exactly what the
// serving layer's degradation supervisor does on a probe cadence. A
// healthy log is a no-op.
func (l *Log) Reopen() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed == nil {
		return nil
	}
	if l.f != nil {
		l.f.Close() //nolint:errcheck // handle may already be poisoned
		l.f = nil
	}
	segs, _, err := l.scanDir()
	if err != nil {
		return fmt.Errorf("wal: reopen: %w", err)
	}
	if len(segs) > 0 {
		if err := l.cutToDurable(segs[len(segs)-1]); err != nil {
			return fmt.Errorf("wal: reopen: %w", err)
		}
	}
	if l.seq > l.durable {
		l.lost = append(l.lost, lostRange{from: l.durable, to: l.seq, cause: l.failed})
	}
	l.pend = l.pend[:0]
	l.failed = nil
	return nil
}

// cutToDurable removes the records past the durable prefix from segment
// start, the newest, and makes the cut survive a crash; flushMu and mu
// held.
func (l *Log) cutToDurable(start uint64) error {
	path := l.segPath(start)
	if start > l.durable {
		if err := l.fs.Remove(path); err != nil {
			return err
		}
		l.segCount.Add(-1)
		return syncDir(l.fs, l.dir)
	}
	// Durable frames were written and fsynced whole, so the scan reaches
	// the end of the prefix before any torn bytes.
	var keep int64
	last, _, err := l.scanSegment(start, func(seq uint64, payload []byte) error {
		if seq <= l.durable {
			keep += frameHdr + int64(len(payload))
		}
		return nil
	})
	if last < l.durable {
		return fmt.Errorf("durable prefix of %s unreadable: %v", path, err)
	}
	return l.truncateSynced(path, keep)
}

// truncateSynced cuts the file at path to size bytes and fsyncs the cut.
func (l *Log) truncateSynced(path string, size int64) error {
	f, err := l.fs.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SnapshotSeq returns the sequence number of the latest snapshot.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapSeq
}

// SegmentCount returns the number of on-disk segment files, tracked in
// memory — metric reads must not wait on a flush or list the directory.
func (l *Log) SegmentCount() int { return int(l.segCount.Load()) }

// Sync makes every pending record durable, as a Commit of the last one
// would.
func (l *Log) Sync() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Close flushes pending records and closes the active segment.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

func (l *Log) segPath(firstSeq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segExt))
}

func (l *Log) snapPath(seq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapExt))
}

// syncDir fsyncs a directory, making the entries created, renamed or
// removed in it durable.
func syncDir(fsys vfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
	// One read per 64 KiB of segment, not three per record; validBytes
	// sums whole frames, so it stops where the intact prefix does.
	r := bufio.NewReaderSize(f, 64<<10)
	last = start - 1
	var hdr [frameHdr]byte
	for {
		switch _, err := io.ReadFull(r, hdr[:]); err {
		case nil:
		case io.EOF:
			return last, validBytes, nil
		default:
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
		validBytes += frameHdr + int64(size)
		last++
		if fn != nil {
			if err := fn(last, payload); err != nil {
				return last, validBytes, err
			}
		}
	}
}
