package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// openFaulty opens a log whose every file operation goes through ff.
func openFaulty(t *testing.T, dir string, ff *vfs.FaultFS) *Log {
	t.Helper()
	l, err := Open(dir, Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// appendAcked is one acknowledged write: Append, then Commit. An error
// means the batch was never acked.
func appendAcked(l *Log, msgs []stream.Message) (uint64, error) {
	seq, err := l.Append(msgs)
	if err != nil {
		return 0, err
	}
	return seq, l.Commit(seq)
}

// TestReopenAfterTornWrite: a torn flush fail-stops the log; Reopen
// truncates back to the acked prefix and appends resume. Replay after
// a real close/reopen must equal exactly the acked records — the torn
// bytes and the failed record must be gone.
func TestReopenAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	want := map[uint64][]stream.Message{}
	for i := 1; i <= 3; i++ {
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = batch(i, 2)
	}

	// Tear the next write 5 bytes in, and break the rollback truncate
	// too, so the torn bytes are still in the segment when Reopen runs.
	wr := ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", TornBytes: 5, Count: 1})
	tr := ff.Inject(vfs.Rule{Op: vfs.OpTruncate, Path: ".wal", Count: 1})
	if _, err := appendAcked(l, batch(4, 2)); err == nil {
		t.Fatal("append through torn write should fail")
	}
	ff.ClearRule(wr)
	ff.ClearRule(tr)
	if l.Failed() == nil {
		t.Fatal("log should be fail-stopped after torn write + failed rollback")
	}
	if _, err := l.Append(batch(5, 2)); err == nil {
		t.Fatal("fail-stopped log must refuse appends")
	}

	if err := l.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l.Failed() != nil {
		t.Fatalf("Failed after reopen = %v", l.Failed())
	}
	for i := 4; i <= 6; i++ {
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatalf("append %d after reopen: %v", i, err)
		}
		if i == 4 && seq != 5 {
			t.Fatalf("first append after reopen got seq %d, want 5 (the torn record's 4 is never reused)", seq)
		}
		want[seq] = batch(i, 2)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestReopenAfterGroupFsyncFailure: a failed flush fsync fail-stops the
// log and fails the commit of every record it carried; Reopen recovers
// in-process and the re-submitted batch is not duplicated.
func TestReopenAfterGroupFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	want := map[uint64][]stream.Message{}
	for i := 1; i <= 2; i++ {
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = batch(i, 2)
	}

	rule := ff.Inject(vfs.Rule{Op: vfs.OpSync, Path: ".wal"})
	failed, err := l.Append(batch(3, 2))
	if err != nil {
		t.Fatalf("append buffers in memory, got %v", err)
	}
	if err := l.Commit(failed); err == nil {
		t.Fatal("commit through failed fsync should fail")
	}
	ff.ClearRule(rule)
	if l.Failed() == nil {
		t.Fatal("log should be fail-stopped after a failed flush fsync")
	}

	if err := l.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The client retries the failed batch; it must appear exactly once,
	// under a fresh seq.
	seq, err := appendAcked(l, batch(3, 2))
	if err != nil {
		t.Fatalf("retry after reopen: %v", err)
	}
	if seq <= failed {
		t.Fatalf("retried batch landed at seq %d, want past the discarded %d", seq, failed)
	}
	want[seq] = batch(3, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestReopenENOSPCFirstWrite: the very first write of a fresh segment
// hits ENOSPC (plus a failed rollback). Reopen must recover even though
// the poisoned segment holds no acked record at all.
func TestReopenENOSPCFirstWrite(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	wr := ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", Err: syscall.ENOSPC, Count: 1})
	tr := ff.Inject(vfs.Rule{Op: vfs.OpTruncate, Path: ".wal", Err: syscall.ENOSPC, Count: 1})
	if _, err := appendAcked(l, batch(1, 2)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append = %v, want ENOSPC", err)
	}
	ff.ClearRule(wr)
	ff.ClearRule(tr)
	if l.Failed() == nil {
		t.Fatal("log should be fail-stopped")
	}
	if err := l.Reopen(); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	seq, err := appendAcked(l, batch(1, 2))
	if err != nil || seq != 2 {
		t.Fatalf("append after reopen = (%d, %v), want (2, nil): seq 1 was discarded", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2, 0)
	if len(got) != 1 || !reflect.DeepEqual(got[2], batch(1, 2)) {
		t.Fatalf("replay = %v, want just batch 1, at seq 2", got)
	}
}

// TestReopenStaysFailedWhileDiskSick: Reopen on a still-broken disk
// returns an error and leaves the log fail-stopped; a later Reopen
// after the fault clears succeeds — the probe loop's contract.
func TestReopenStaysFailedWhileDiskSick(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	if _, err := appendAcked(l, batch(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Persistent EIO on every wal truncate, one failed write: the flush
	// fails, its rollback fails, and Reopen's own truncate fails.
	rule := ff.Inject(vfs.Rule{Op: vfs.OpTruncate, Path: ".wal"})
	wr := ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", Count: 1})
	if _, err := appendAcked(l, batch(2, 2)); err == nil {
		t.Fatal("append should fail")
	}
	ff.ClearRule(wr)
	if l.Failed() == nil {
		t.Fatal("log should be fail-stopped")
	}
	if err := l.Reopen(); err == nil {
		t.Fatal("reopen with sick disk should fail")
	}
	if l.Failed() == nil {
		t.Fatal("failed reopen must leave the log fail-stopped")
	}
	ff.ClearRule(rule)
	if err := l.Reopen(); err != nil {
		t.Fatalf("reopen after disk heals: %v", err)
	}
	seq, err := appendAcked(l, batch(2, 2))
	if err != nil || seq != 3 {
		t.Fatalf("append after recovery = (%d, %v), want (3, nil): seq 2 was discarded", seq, err)
	}
	// The batch whose flush failed was never acked; what replays is the
	// acked pair, once each.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := map[uint64][]stream.Message{1: batch(1, 2), 3: batch(2, 2)}
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %v\nwant %v", got, want)
	}
}

// TestSnapshotENOSPCLeavesPreviousIntact: a snapshot write that runs
// out of space must leave the previous snapshot byte-identical, leave
// no temp-file debris, keep the log healthy, and keep recovery (replay
// from the old snapshot) exact.
func TestSnapshotENOSPCLeavesPreviousIntact(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	want := map[uint64][]stream.Message{}
	for i := 1; i <= 3; i++ {
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = batch(i, 2)
	}
	state := []byte("detector state after seq 3")
	if err := l.Snapshot(3, func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(filepath.Join(dir, "snap-00000000000000000003.snap"))
	if err != nil || string(prev) != string(state) {
		t.Fatalf("baseline snapshot = %q, %v", prev, err)
	}

	for i := 4; i <= 5; i++ {
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = batch(i, 2)
	}
	rule := ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: "snap-tmp", Err: syscall.ENOSPC})
	err = l.Snapshot(5, func(w io.Writer) error {
		_, werr := w.Write([]byte("state after seq 5 — must not survive"))
		return werr
	})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("snapshot = %v, want ENOSPC", err)
	}
	ff.ClearRule(rule)

	// No temp debris, previous snapshot byte-identical.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-tmp-") {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
	after, err := os.ReadFile(filepath.Join(dir, "snap-00000000000000000003.snap"))
	if err != nil || string(after) != string(state) {
		t.Fatalf("previous snapshot corrupted: %q, %v", after, err)
	}

	// The log is still healthy — a failed snapshot is not a WAL fault.
	if l.Failed() != nil {
		t.Fatalf("log failed after snapshot ENOSPC: %v", l.Failed())
	}
	seq, err := appendAcked(l, batch(6, 2))
	if err != nil || seq != 6 {
		t.Fatalf("append after failed snapshot = (%d, %v)", seq, err)
	}
	want[seq] = batch(6, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: latest snapshot is still seq 3, and replaying the tail
	// reproduces every acked batch exactly.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rc, snapSeq, err := l2.LatestSnapshot()
	if err != nil || snapSeq != 3 {
		t.Fatalf("LatestSnapshot = seq %d, %v; want 3", snapSeq, err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != string(state) {
		t.Fatalf("recovered snapshot = %q, want %q", data, state)
	}
	got := collect(t, l2, snapSeq)
	wantTail := map[uint64][]stream.Message{4: want[4], 5: want[5], 6: want[6]}
	if !reflect.DeepEqual(got, wantTail) {
		t.Fatalf("tail replay mismatch:\ngot  %v\nwant %v", got, wantTail)
	}
}

// TestReopenHealthyNoOp: Reopen on a healthy log does nothing.
func TestReopenHealthyNoOp(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(batch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Reopen(); err != nil {
		t.Fatalf("healthy reopen: %v", err)
	}
	if seq, err := l.Append(batch(2, 1)); err != nil || seq != 2 {
		t.Fatalf("append after no-op reopen = (%d, %v)", seq, err)
	}
}

// failOneFlush appends a record, then makes the flush carrying it fail
// on its write, leaving the log fail-stopped. It returns the record's
// seq.
func failOneFlush(t *testing.T, l *Log, ff *vfs.FaultFS, msgs []stream.Message) uint64 {
	t.Helper()
	seq, err := l.Append(msgs)
	if err != nil {
		t.Fatal(err)
	}
	ff.Inject(vfs.Rule{Op: vfs.OpWrite, Path: ".wal", Count: 1})
	if err := l.Sync(); err == nil {
		t.Fatal("the flush was meant to fail")
	}
	return seq
}

// TestCommitOfDiscardedRecordFails: a record Reopen discarded can never
// be acknowledged — not even after a later record is committed, which
// pushes the durable position past its seq — because that seq is never
// handed out again.
func TestCommitOfDiscardedRecordFails(t *testing.T) {
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, t.TempDir(), ff)
	defer l.Close()
	if _, err := l.Append(batch(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	a := failOneFlush(t, l, ff, batch(2, 1))
	if err := l.Reopen(); err != nil {
		t.Fatal(err)
	}
	c, err := appendAcked(l, batch(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c <= a {
		t.Fatalf("record C got seq %d, not past the discarded record A's %d", c, a)
	}
	if err := l.Commit(a); err == nil {
		t.Fatalf("Commit(%d) of the discarded record A succeeded after C (%d) committed", a, c)
	}
}

// TestReplayAcrossReopenGap: a reopen leaves a gap in the segment names
// (the new segment is named past the discarded records), and Open and
// Replay reproduce exactly the acknowledged records across it — in
// process, and after a crash that drops the log without a Close.
func TestReplayAcrossReopenGap(t *testing.T) {
	dir := t.TempDir()
	ff := vfs.NewFaultFS(nil)
	l := openFaulty(t, dir, ff)
	want := map[uint64][]stream.Message{}
	ack := func(i int) {
		t.Helper()
		seq, err := appendAcked(l, batch(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = batch(i, 2)
	}
	ack(1)
	ack(2)
	failOneFlush(t, l, ff, batch(3, 2))
	if _, err := l.Append(batch(4, 2)); err == nil {
		t.Fatal("a fail-stopped log accepted an append")
	}
	if err := l.Reopen(); err != nil {
		t.Fatal(err)
	}
	ack(5)
	ack(6)
	names, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	if wantNames := []string{filepath.Base(l.segPath(1)), filepath.Base(l.segPath(4))}; !slices.Equal(names, wantNames) {
		t.Fatalf("segments = %v, want %v (record 3 discarded)", names, wantNames)
	}
	if got := collect(t, l, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("in-process replay:\ngot  %v\nwant %v", got, want)
	}

	// Crash: the handle is abandoned with nothing flushed or closed.
	l.flushMu.Lock()
	l.f.Close()
	l.flushMu.Unlock()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after crash:\ngot  %v\nwant %v", got, want)
	}
	if l2.LastSeq() != 5 {
		t.Fatalf("LastSeq after crash = %d, want 5", l2.LastSeq())
	}
	if seq, err := appendAcked(l2, batch(7, 2)); err != nil || seq != 6 {
		t.Fatalf("append after crash = (%d, %v), want (6, nil)", seq, err)
	}
}
