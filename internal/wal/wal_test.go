package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/vfs"
)

func batch(seq, n int) []stream.Message {
	out := make([]stream.Message, n)
	for i := range out {
		out[i] = stream.Message{
			ID:   uint64(seq*1000 + i),
			User: uint64(i),
			Time: int64(seq),
			Text: fmt.Sprintf("batch %d message %d", seq, i),
		}
	}
	return out
}

func collect(t *testing.T, l *Log, after uint64) map[uint64][]stream.Message {
	t.Helper()
	got := map[uint64][]stream.Message{}
	if err := l.Replay(after, func(seq uint64, msgs []stream.Message, flush bool) error {
		if flush {
			t.Fatalf("unexpected flush record at seq %d", seq)
		}
		// Replay reuses the batch slice across records; retain a copy.
		got[seq] = append([]stream.Message(nil), msgs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestAppendReopenReplay round-trips batches through a close/reopen.
func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]stream.Message{}
	for i := 1; i <= 5; i++ {
		seq, err := l.Append(batch(i, 3))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		want[seq] = batch(i, 3)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", l2.LastSeq())
	}
	if got := collect(t, l2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\ngot  %v\nwant %v", got, want)
	}
	// Replay after a mid-point skips the prefix.
	if got := collect(t, l2, 3); len(got) != 2 || got[4] == nil || got[5] == nil {
		t.Fatalf("partial replay = %v", got)
	}
	// Appends continue the sequence.
	if seq, err := l2.Append(batch(6, 1)); err != nil || seq != 6 {
		t.Fatalf("append after reopen: seq = %d, err = %v", seq, err)
	}
}

// TestRotationAndCompaction forces tiny segments, snapshots mid-log, and
// requires covered segments (and the superseded snapshot) to be deleted
// while the tail stays replayable.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}) // every batch rotates
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 8; i++ {
		if _, err := appendAcked(l, batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SegmentCount(); n < 4 {
		t.Fatalf("segments = %d, want several (rotation broken)", n)
	}

	state := []byte("detector state after batch 5")
	if err := l.Snapshot(5, func(w io.Writer) error { _, err := w.Write(state); return err }); err != nil {
		t.Fatal(err)
	}
	if err := l.Snapshot(6, func(w io.Writer) error { _, err := w.Write(append(state, '6')); return err }); err != nil {
		t.Fatal(err)
	}
	if l.SnapshotSeq() != 6 {
		t.Fatalf("SnapshotSeq = %d, want 6", l.SnapshotSeq())
	}
	// Exactly one snapshot file remains.
	snaps, err := filepath.Glob(filepath.Join(dir, snapPrefix+"*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files = %v (err %v), want one", snaps, err)
	}

	// Recovery sees the latest snapshot and only the uncovered tail.
	l2, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r, seq, err := l2.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("snapshot seq = %d, want 6", seq)
	}
	raw, _ := io.ReadAll(r)
	r.Close()
	if string(raw) != string(state)+"6" {
		t.Fatalf("snapshot content = %q", raw)
	}
	got := collect(t, l2, seq)
	if len(got) != 2 || got[7] == nil || got[8] == nil {
		t.Fatalf("tail replay = %v, want batches 7 and 8", got)
	}
	// No segment holding only records ≤ 6 survives.
	for seg := range got {
		if seg <= 6 {
			t.Fatalf("compaction left covered record %d", seg)
		}
	}
}

// TestTornTailTruncated simulates a crash mid-append: the last frame is
// cut short, reopen truncates it, and the log continues from the last
// intact record.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], st.Size()-7); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O // cut into record 3
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", l2.LastSeq())
	}
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("replay after torn tail = %v", got)
	}
	// The truncated record's seq is reused by the next append.
	if seq, err := l2.Append(batch(3, 2)); err != nil || seq != 3 {
		t.Fatalf("append after truncation: seq = %d, err = %v", seq, err)
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replay after re-append = %v", got)
	}
}

// TestCorruptRotatedSegmentRefused flips a payload byte in a rotated
// (non-final) segment: that is real corruption, not a torn tail, and
// Open must refuse rather than silently drop records.
func TestCorruptRotatedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := appendAcked(l, batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("segments = %v, want ≥ 2", segs)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHdr+2] ^= 0xFF                                   // corrupt the first record's payload
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("Open on corrupt rotated segment: err = %v, want CRC error", err)
	}
}

// TestFlushRecordsReplayInOrder interleaves batch and flush records and
// requires replay to deliver both kinds in log order — quantum
// boundaries depend on it.
func TestFlushRecordsReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(batch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.AppendFlush(); err != nil || seq != 2 {
		t.Fatalf("flush seq = %d, err = %v", seq, err)
	}
	if _, err := l.Append(batch(3, 2)); err != nil {
		t.Fatal(err)
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

// TestSnapshotAtSeqZero pins the checkpoint-migration case: a snapshot
// of state seeded before any record (position 0) must survive a reopen
// rather than being confused with "no snapshot".
func TestSnapshotAtSeqZero(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	state := []byte("restored checkpoint state")
	if err := l.Snapshot(0, func(w io.Writer) error { _, err := w.Write(state); return err }); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	r, seq, err := l2.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("snapshot at position 0 invisible after reopen")
	}
	raw, _ := io.ReadAll(r)
	r.Close()
	if seq != 0 || string(raw) != string(state) {
		t.Fatalf("snapshot = seq %d content %q", seq, raw)
	}
}

// TestAppendWithoutCommitterNeverFsyncs: an append nobody commits never
// reaches the device — Append only frames the record in memory — so a
// device whose every create, write and fsync fails still accepts
// appends, and only the Commit finds it sick.
func TestAppendWithoutCommitterNeverFsyncs(t *testing.T) {
	ff := vfs.NewFaultFS(nil)
	l, err := Open(t.TempDir(), Options{FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, op := range []vfs.Op{vfs.OpCreate, vfs.OpWrite, vfs.OpSync} {
		ff.Inject(vfs.Rule{Op: op})
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(batch(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ff.Injected(); n != 0 {
		t.Fatalf("%d file operations reached the device on the append path", n)
	}
	if err := l.Commit(3); err == nil {
		t.Fatal("Commit on a dead device succeeded")
	}
	ff.Clear()
}

// BenchmarkWALAppend measures the acknowledged append of one batch at a
// typical ingest size (64 messages, ~80 bytes of text each), uncontended:
// encode and frame, then a Commit that writes and fsyncs it alone.
func BenchmarkWALAppend(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	var bytes int64
	for _, m := range msgs {
		bytes += int64(len(m.Text)) + 32
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appendAcked(l, msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALReplay measures raw segment replay (decode + CRC) over a
// 512-batch log.
func BenchmarkWALReplay(b *testing.B) {
	l, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	for i := 0; i < 512; i++ {
		if _, err := l.Append(msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(0, func(uint64, []stream.Message, bool) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 512 {
			b.Fatalf("replayed %d", n)
		}
	}
}
