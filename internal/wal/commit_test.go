package wal

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// syncLog is a vfs.FS over the real filesystem that records the path of
// every fsync, file or directory, in call order, and fails the fsyncs of
// the paths in fail with EIO.
type syncLog struct {
	vfs.FS
	mu    sync.Mutex
	syncs []string
	fail  map[string]bool
}

func newSyncLog() *syncLog { return &syncLog{FS: vfs.OS, fail: map[string]bool{}} }

func (s *syncLog) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return s.wrap(s.FS.OpenFile(name, flag, perm))
}

func (s *syncLog) Open(name string) (vfs.File, error) { return s.wrap(s.FS.Open(name)) }

func (s *syncLog) CreateTemp(dir, pattern string) (vfs.File, error) {
	return s.wrap(s.FS.CreateTemp(dir, pattern))
}

func (s *syncLog) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, log: s}, nil
}

// take returns the fsyncs recorded since the last call.
func (s *syncLog) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.syncs
	s.syncs = nil
	return out
}

func (s *syncLog) setFail(path string, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fail[path] = on
}

type syncFile struct {
	vfs.File
	log *syncLog
}

func (f *syncFile) Sync() error {
	f.log.mu.Lock()
	f.log.syncs = append(f.log.syncs, f.Name())
	fail := f.log.fail[f.Name()]
	f.log.mu.Unlock()
	if fail {
		return syscall.EIO
	}
	return f.File.Sync()
}

// segSyncs counts the segment fsyncs among syncs.
func segSyncs(syncs []string) int {
	n := 0
	for _, p := range syncs {
		if strings.HasSuffix(p, segExt) {
			n++
		}
	}
	return n
}

// TestGroupCommitRoundTrip: concurrent producers on two logs, each
// appending and committing, are all acknowledged, durable across a
// reopen, and replay exactly once each.
func TestGroupCommitRoundTrip(t *testing.T) {
	const producers, perProducer = 4, 25
	dirs := []string{t.TempDir(), t.TempDir()}
	logs := make([]*Log, 2)
	for i, dir := range dirs {
		l, err := Open(dir, Options{SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = l
	}
	var wg sync.WaitGroup
	for i, l := range logs {
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < perProducer; n++ {
					seq, err := l.Append(batch(10000*i+100*p+n, 2))
					if err == nil {
						err = l.Commit(seq)
					}
					if err != nil {
						t.Errorf("log %d producer %d batch %d: %v", i, p, n, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for i, l := range logs {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dirs[i], Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, l2, 0)
		l2.Close()
		seen := map[uint64]bool{}
		for _, msgs := range got {
			seen[msgs[0].ID] = true
		}
		if len(got) != producers*perProducer || len(seen) != producers*perProducer {
			t.Fatalf("log %d replayed %d records (%d distinct batches), want %d", i, len(got), len(seen), producers*perProducer)
		}
	}
}

// TestGroupCommitCoalesces: one flush covers every record appended
// before it. Committers queued behind an in-flight flush find their
// record durable and issue no fsync of their own, and committing a
// record an earlier flush covered touches nothing.
func TestGroupCommitCoalesces(t *testing.T) {
	sl := newSyncLog()
	l, err := Open(t.TempDir(), Options{FS: sl})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Hold the flush lock, as a flush in flight would, while three
	// producers append and queue their commits behind it.
	l.flushMu.Lock()
	errs := make(chan error, 3)
	for i := 1; i <= 3; i++ {
		go func() {
			seq, err := l.Append(batch(i, 2))
			if err == nil {
				err = l.Commit(seq)
			}
			errs <- err
		}()
	}
	for l.LastSeq() != 3 {
		time.Sleep(time.Millisecond)
	}
	l.flushMu.Unlock()
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := segSyncs(sl.take()); n != 1 {
		t.Fatalf("three queued commits issued %d segment fsyncs, want 1", n)
	}

	for i := 4; i <= 10; i++ {
		if _, err := l.Append(batch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(10); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := segSyncs(sl.take()); n != 1 {
		t.Fatalf("ten commits over one flush issued %d segment fsyncs, want 1", n)
	}
}

// TestGroupCommitFlushRecord: flush markers ride the same commit path
// and keep their position relative to batches.
func TestGroupCommitFlushRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(1, 2)); err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendFlush()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(3); err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("flush seq = %d, want 2", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var kinds []string
	if err := l2.Replay(0, func(seq uint64, msgs []stream.Message, flush bool) error {
		if flush {
			kinds = append(kinds, "flush")
		} else {
			kinds = append(kinds, fmt.Sprintf("batch%d", len(msgs)))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kinds, []string{"batch2", "flush", "batch2"}) {
		t.Fatalf("replay order = %v", kinds)
	}
}

// TestGroupCommitSnapshotFlushes: taking a snapshot at a seq that is
// still sitting in the pending buffer must flush it first — a snapshot
// must never outlive the records it claims to cover — and the record's
// Commit then finds it durable.
func TestGroupCommitSnapshotFlushes(t *testing.T) {
	dir := t.TempDir()
	sl := newSyncLog()
	l, err := Open(dir, Options{FS: sl})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(batch(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(seq, func(w io.Writer) error {
		_, err := w.Write([]byte("state"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n := segSyncs(sl.take()); n != 1 {
		t.Fatalf("snapshot issued %d segment fsyncs, want the one flush", n)
	}
	if err := l.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if n := segSyncs(sl.take()); n != 0 {
		t.Fatalf("Commit after the snapshot's flush issued %d segment fsyncs", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 1 || l2.SnapshotSeq() != 1 {
		t.Fatalf("after reopen: last %d snap %d, want 1/1", l2.LastSeq(), l2.SnapshotSeq())
	}
}

// TestAppendSteadyStateAllocs pins the pooled-buffer claim on the whole
// durable append path (encode + frame + write + fsync): steady state
// must not allocate.
func TestAppendSteadyStateAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 40}) // never rotate
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	appendCommit := func() {
		seq, err := l.Append(msgs)
		if err == nil {
			err = l.Commit(seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendCommit() // warm both buffers
	appendCommit()
	if allocs := testing.AllocsPerRun(50, appendCommit); allocs != 0 {
		t.Fatalf("Append + Commit allocates %.1f times per batch, want 0", allocs)
	}
}

// TestGroupCommitFailStop injects a flush failure and requires fail-stop
// semantics: the batch whose flush failed is never acknowledged, a
// record acknowledged before it stays acknowledged, the log refuses
// every further append, and a reopen from disk sees exactly the
// acknowledged prefix.
func TestGroupCommitFailStop(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l, err := Open(dir, Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}

	seq1, err := appendAcked(l, batch(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := l.Append(batch(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", Count: 1})
	if err := l.Commit(seq2); err == nil {
		t.Fatal("Commit acknowledged a batch whose flush failed")
	}
	if err := l.Commit(seq2); err == nil {
		t.Fatal("a failed log must keep refusing the lost batch's commit")
	}
	if err := l.Commit(seq1); err != nil {
		t.Fatalf("a record acknowledged before the failure: Commit = %v", err)
	}
	if _, err := l.Append(batch(3, 2)); err == nil {
		t.Fatal("a failed log accepted a further append")
	}

	l.Close() //nolint:errcheck // the log is already fail-stopped
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, map[uint64][]stream.Message{seq1: batch(1, 2)}) {
		t.Fatalf("replay after fail-stop = %v, want just record %d", got, seq1)
	}
}

// TestDirectoryEntriesDurableBeforeAck: a record is acknowledged only
// once every directory entry it depends on is durable — its segment's
// entry in the log directory, and the log directory's in its parent.
// A flush that creates a segment fsyncs the segment, then both
// directories; one that appends to an existing segment fsyncs only the
// segment. A failure of any of those fsyncs is a failed flush.
func TestDirectoryEntriesDurableBeforeAck(t *testing.T) {
	for _, failing := range []string{"segment", "log dir", "parent"} {
		t.Run(failing, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "tenant")
			sl := newSyncLog()
			l, err := Open(dir, Options{SegmentBytes: 256, FS: sl})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			seg := func(seq uint64) string { return l.segPath(seq) }

			if _, err := appendAcked(l, batch(1, 1)); err != nil {
				t.Fatal(err)
			}
			if got, want := sl.take(), []string{seg(1), dir, root}; !slices.Equal(got, want) {
				t.Fatalf("first ack fsynced %v, want %v", got, want)
			}
			if _, err := appendAcked(l, batch(2, 1)); err != nil {
				t.Fatal(err)
			}
			if got, want := sl.take(), []string{seg(1)}; !slices.Equal(got, want) {
				t.Fatalf("ack into the existing segment fsynced %v, want %v", got, want)
			}
			for l.size < l.opt.SegmentBytes {
				if _, err := appendAcked(l, batch(3, 4)); err != nil {
					t.Fatal(err)
				}
			}
			sl.take()

			// The next flush rotates into a new segment.
			next := l.LastSeq() + 1
			path := map[string]string{"segment": seg(next), "log dir": dir, "parent": root}[failing]
			sl.setFail(path, true)
			if _, err := appendAcked(l, batch(4, 1)); err == nil {
				t.Fatalf("acknowledged a record whose %s fsync failed", failing)
			}
			if l.Failed() == nil {
				t.Fatal("a failed directory fsync must fail-stop the log like any failed flush")
			}
			sl.setFail(path, false)
			if err := l.Reopen(); err != nil {
				t.Fatal(err)
			}
			sl.take()
			seq, err := appendAcked(l, batch(5, 1))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sl.take(), []string{seg(seq), dir, root}; !slices.Equal(got, want) {
				t.Fatalf("first ack after the reopen fsynced %v, want %v", got, want)
			}
		})
	}
}

// TestSnapshotKeepsCoveredFilesUntilDirSynced: a snapshot whose rename
// was not made durable by a directory fsync deletes nothing — not the
// segments it covers, not the snapshot before it — and reports the
// error; once a retry's directory fsync succeeds, both go.
func TestSnapshotKeepsCoveredFilesUntilDirSynced(t *testing.T) {
	dir := t.TempDir()
	sl := newSyncLog()
	l, err := Open(dir, Options{SegmentBytes: 1, FS: sl}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 4; i++ {
		if _, err := appendAcked(l, batch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	state := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write([]byte(s)); return err }
	}
	if err := l.Snapshot(2, state("two")); err != nil {
		t.Fatal(err)
	}
	names := func() []string {
		var out []string
		for _, pat := range []string{segPrefix + "*", snapPrefix + "*"} {
			m, err := filepath.Glob(filepath.Join(dir, pat))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m {
				out = append(out, filepath.Base(p))
			}
		}
		return out
	}
	want := []string{filepath.Base(l.segPath(3)), filepath.Base(l.segPath(4)), filepath.Base(l.snapPath(2))}
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("after snapshot 2: %v, want %v", got, want)
	}

	sl.setFail(dir, true)
	if err := l.Snapshot(3, state("three")); err == nil {
		t.Fatal("snapshot reported success without a durable directory entry")
	}
	if got, want := names(), append(slices.Clone(want), filepath.Base(l.snapPath(3))); !slices.Equal(got, want) {
		t.Fatalf("after the failed snapshot: %v, want %v (nothing deleted)", got, want)
	}
	if l.SnapshotSeq() != 2 {
		t.Fatalf("SnapshotSeq = %d after the failed snapshot, want 2", l.SnapshotSeq())
	}

	sl.setFail(dir, false)
	if err := l.Snapshot(3, state("three")); err != nil {
		t.Fatal(err)
	}
	if got, want := names(), []string{filepath.Base(l.segPath(4)), filepath.Base(l.snapPath(3))}; !slices.Equal(got, want) {
		t.Fatalf("after the retried snapshot: %v, want %v", got, want)
	}
}
