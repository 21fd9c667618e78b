package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// TestSnapshotEndsActiveSegment: a snapshot ends the active segment and
// moves the records past it into a segment of their own, so the log
// keeps exactly the records no snapshot covers, however far the
// segments are from SegmentBytes, and a snapshot of the last record
// leaves none.
func TestSnapshotEndsActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snapshot := func(seq uint64) {
		t.Helper()
		if err := l.Snapshot(seq, func(w io.Writer) error { _, err := fmt.Fprint(w, seq); return err }); err != nil {
			t.Fatal(err)
		}
	}
	segments := func() []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range segs {
			segs[i] = filepath.Base(segs[i])
		}
		return segs
	}
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if _, err := appendAcked(l, batch(i, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(1, 5)
	snapshot(3) // records 4 and 5 are not covered: they move to segment 4
	appendN(6, 7)
	if got, want := segments(), []string{"seg-00000000000000000004.wal", "seg-00000000000000000006.wal"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("segments after snapshot 3 and two appends = %v, want %v", got, want)
	}
	want := map[uint64][]stream.Message{4: batch(4, 2), 5: batch(5, 2), 6: batch(6, 2), 7: batch(7, 2)}
	if got := collect(t, l, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay past snapshot 3 = %v, want records 4 to 7", got)
	}
	snapshot(7)
	if got := segments(); len(got) != 0 || l.SegmentCount() != 0 {
		t.Fatalf("segments after a snapshot of the last record = %v (count %d), want none", got, l.SegmentCount())
	}
	appendN(8, 8)
	if got := collect(t, l, 7); !reflect.DeepEqual(got, map[uint64][]stream.Message{8: batch(8, 2)}) {
		t.Fatalf("replay past snapshot 7 = %v, want record 8", got)
	}
	if got := segments(); !reflect.DeepEqual(got, []string{"seg-00000000000000000008.wal"}) {
		t.Fatalf("segments after the next append = %v", got)
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

// TestReplayTextsByteExact: a text replays as the bytes it was appended
// with, whatever they are — invalid UTF-8, NUL, U+2028 and the rest of
// what a JSON encoder would escape or replace.
func TestReplayTextsByteExact(t *testing.T) {
	texts := []string{
		"quake\xff\xfe struck",
		"",
		"nul \x00 inside\x00",
		"line\u2028and\u2029separators",
		"quotes \" and \\ backslashes, <html> & tabs\t",
		"truncated rune \xe6\x97",
		"lone continuation \x80 and overlong \xc0\xaf",
		"unicode ünïcödé 日本語 🦀",
	}
	msgs := make([]stream.Message, len(texts))
	for i, txt := range texts {
		msgs[i] = stream.Message{ID: uint64(i) << 40, User: ^uint64(i), Time: -int64(i) << 50, Text: txt}
	}
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(msgs); err != nil {
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
	got := collect(t, l2, 0)[1]
	if len(got) != len(msgs) {
		t.Fatalf("replayed %d messages, appended %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i] != msgs[i] {
			t.Errorf("message %d replayed as %#v, appended as %#v", i, got[i], msgs[i])
		}
	}
}

// frameRecord frames payload as one record, the way Append does.
func frameRecord(payload []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// writeRetiredJSONLog lays out the directory an older build leaves: one
// segment holding a JSON batch record (kind 'B') as record 1, and, when
// snap is set, that build's clean-shutdown snapshot covering it.
func writeRetiredJSONLog(t *testing.T, dir string, snap bool) {
	t.Helper()
	r := &Log{dir: dir}
	body := []byte(`[{"id":1,"user":1,"time":0,"text":"quake struck"}]`)
	if err := os.WriteFile(r.segPath(1), frameRecord(append([]byte{recJSONBatch}, body...)), 0o644); err != nil { //repro:vfs-exempt hand-built directory of an older build, not storage-layer I/O
		t.Fatal(err)
	}
	if snap {
		if err := os.WriteFile(r.snapPath(1), []byte("state after record 1"), 0o644); err != nil { //repro:vfs-exempt hand-built directory of an older build, not storage-layer I/O
			t.Fatal(err)
		}
	}
}

// TestRetiredJSONRecordBehindSnapshot: a directory that a build writing
// JSON batch records shut down cleanly opens and replays, because records
// at or below the snapshot are skipped before their kind is read, and
// takes new records after the old one.
func TestRetiredJSONRecordBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	writeRetiredJSONLog(t, dir, true)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 1 || l.SnapshotSeq() != 1 {
		t.Fatalf("LastSeq %d, SnapshotSeq %d; want 1 and 1", l.LastSeq(), l.SnapshotSeq())
	}
	if got := collect(t, l, l.SnapshotSeq()); len(got) != 0 {
		t.Fatalf("replay past the snapshot = %v, want nothing", got)
	}
	if seq, err := appendAcked(l, batch(2, 2)); err != nil || seq != 2 {
		t.Fatalf("append after the old record: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2, l2.SnapshotSeq()); !reflect.DeepEqual(got, map[uint64][]stream.Message{2: batch(2, 2)}) {
		t.Fatalf("replay after reopen = %v, want record 2", got)
	}
}

// TestRetiredJSONRecordPastSnapshotRefused: a JSON batch record that no
// snapshot covers fails Replay, with an error that names the record kind
// and the way out.
func TestRetiredJSONRecordPastSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	writeRetiredJSONLog(t, dir, false)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.Replay(l.SnapshotSeq(), func(uint64, []stream.Message, bool) error {
		t.Fatal("Replay delivered a retired record")
		return nil
	})
	if err == nil {
		t.Fatal("Replay read a retired JSON batch record")
	}
	for _, want := range []string{"retired JSON batch record", "previous build", "stop it cleanly"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Replay error %q does not say %q", err, want)
		}
	}
}

// TestReplayAllocsPerRecord: past the reused batch slice, replay costs
// one allocation per batch record — the string its texts share — and
// none per flush record; the rest of a Replay (listing and opening the
// segments) does not grow with the log.
func TestReplayAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	replayAllocs := func() float64 {
		t.Helper()
		if err := l.Replay(0, func(uint64, []stream.Message, bool) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			l.Replay(0, func(uint64, []stream.Message, bool) error { return nil }) //nolint:errcheck // checked above
		})
	}
	appendRecords := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := l.Append(msgs); err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendFlush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 32
	appendRecords(n)
	before := replayAllocs()
	appendRecords(n)
	if perRecord := (replayAllocs() - before) / n; perRecord != 1 {
		t.Fatalf("replay allocates %.2f times per batch record, want 1", perRecord)
	}
}

// segmentBytes sums the sizes of the segment files in dir.
func segmentBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, s := range segs {
		st, err := os.Stat(s)
		if err != nil {
			tb.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// BenchmarkWALAppend measures the acknowledged append of one batch at a
// typical ingest size (64 messages, ~20 bytes of text each), uncontended:
// encode and frame, then a Commit that writes and fsyncs it alone. It
// reports ns/msg and the segment bytes on disk per message, B/msg.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
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
	b.StopTimer()
	n := float64(b.N * len(msgs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/msg")
	b.ReportMetric(float64(segmentBytes(b, dir))/n, "B/msg")
}

// BenchmarkWALReplay measures raw segment replay (read, CRC, decode)
// over a 512-batch log, reporting ns/msg and the segment bytes on disk
// per message, B/msg.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	msgs := batch(1, 64)
	const batches = 512
	for i := 0; i < batches; i++ {
		if _, err := l.Append(msgs); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Replay(0, func(uint64, []stream.Message, bool) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != batches {
			b.Fatalf("replayed %d", n)
		}
	}
	b.StopTimer()
	n := float64(batches * len(msgs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(n*float64(b.N)), "ns/msg")
	b.ReportMetric(float64(segmentBytes(b, dir))/n, "B/msg")
}
