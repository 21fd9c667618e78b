package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

// seqRecord re-exposes the eviction ordinal Record keeps off the wire
// (`json:"-"`), so the JSON oracles of this package still see a dropped
// or renumbered Seq.
type seqRecord struct {
	Seq uint64 `json:"seq"`
	Record
}

// seqJSON marshals records with their ordinals.
func seqJSON(recs ...Record) string {
	out := make([]seqRecord, len(recs))
	for i, r := range recs {
		out[i] = seqRecord{Seq: r.Seq, Record: r}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// queryJSON snapshots a scan's full result set as JSON — the
// byte-identity oracle the seal and restart tests compare against.
func queryJSON(t *testing.T, l *Log, from, to int, kw string) string {
	t.Helper()
	recs, _ := scanMatching(t, l, from, to, kw)
	return seqJSON(recs...)
}

// seedArchive fills dir with n records through tiny rotation bounds so
// the sealed list holds many small segments, then closes the Log.
func seedArchive(t *testing.T, dir string, n int, opt Options) {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		r := rec(uint64(i), i%40, i%40+3, "common", fmt.Sprintf("kw-%d", i%7))
		if i%5 == 0 {
			r.Keywords = nil // exercise nil-vs-empty through the rewrite
			r.AllKeywords = []string{}
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotDir reads every file in dir into memory.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// restoreDir resets dir to exactly the given snapshot.
func restoreDir(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
			t.Fatal(err)
		}
	}
	for name, raw := range snap {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
			t.Fatal(err)
		}
	}
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for name := range snapshotDir(t, dir) {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, raw := range snapshotDir(t, dir) {
		total += int64(len(raw))
	}
	return total
}

// TestSmallSegmentsNeverAppear: restarts and Syncs under the segment
// bound leave the buffer file and no sealed segment, with every record
// still served; past the bound there is exactly one sealed segment per
// SegmentEvents records.
func TestSmallSegmentsNeverAppear(t *testing.T) {
	const segEvents = 8
	dir := t.TempDir()
	opt := Options{SegmentEvents: segEvents, BucketQuanta: 1 << 20, BlockEvents: 3}
	var all []Record
	appendN := func(l *Log, n int) {
		t.Helper()
		for range n {
			seq := uint64(len(all) + 1)
			r := rec(seq, int(seq), int(seq)+2, "common", fmt.Sprintf("kw-%d", seq%3))
			all = append(all, r)
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func() *Log {
		t.Helper()
		l, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := queryJSON(t, l, 0, -1, ""), seqJSON(all...); got != want {
			t.Fatalf("records after reopen:\n want %s\n have %s", want, got)
		}
		return l
	}

	for restart := 0; restart < 3; restart++ {
		l := open()
		for range 2 {
			appendN(l, 1)
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if n := l.ColumnarSegmentCount(); n != 0 {
			t.Fatalf("restart %d: %d sealed segments under the bound", restart, n)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if names := dirNames(t, dir); !slices.Equal(names, []string{bufferName}) {
			t.Fatalf("restart %d: directory holds %v, want only %s", restart, names, bufferName)
		}
	}

	l := open()
	appendN(l, 3*segEvents-len(all)+3) // three full segments and three buffered records
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l = open()
	defer l.Close()
	views := l.Segments()
	if l.ColumnarSegmentCount() != 3 || len(views) != 4 {
		t.Fatalf("%d sealed segments, %d views; want 3 sealed and the buffer", l.ColumnarSegmentCount(), len(views))
	}
	for i, v := range views[:3] {
		if !v.Sealed || v.Count != segEvents || v.FirstSeq != uint64(i*segEvents+1) {
			t.Fatalf("segment %d = %+v, want %d records from seq %d", i, v, segEvents, i*segEvents+1)
		}
	}
	want := []string{segName(1, colExt), segName(9, colExt), segName(17, colExt), bufferName}
	slices.Sort(want)
	if names := dirNames(t, dir); !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// TestSealDirSyncFailureKeepsBuffer: the directory fsync after a Sync's
// commit rename fails. Sync must return the error — the serving layer
// then skips the WAL snapshot it guards — and the records stay buffered
// and served; the next Sync commits them.
func TestSealDirSyncFailureKeepsBuffer(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	l, err := Open(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: dir, After: 1, Count: 1}) // the file's sync, then the directory's
	if err := l.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want EIO from the directory sync", err)
	}
	if views := l.Segments(); len(views) != 1 || views[0].Sealed || views[0].Count != 3 {
		t.Fatalf("views after the failed Sync = %+v, want the 3 records still buffered", views)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{bufferName}) {
		t.Fatalf("directory after the retried Sync holds %v, want only %s", names, bufferName)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs, _ := scanMatching(t, l2, 0, -1, ""); len(recs) != 3 {
		t.Fatalf("records after reopen = %d, want 3", len(recs))
	}
}

// TestBoundSealDirSyncFailureKeepsBufferFile: the directory fsync after
// a bound seal's commit rename fails. Until that rename is durable a
// power cut could undo it, so the Append must report the error, keep the
// records buffered and leave the buffer file on disk; the next Append
// commits the seal, and a reopen serves every record once.
func TestBoundSealDirSyncFailureKeepsBufferFile(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	opt := Options{SegmentEvents: 4, FS: ffs}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: dir, After: 1, Count: 1}) // the segment's sync, then the directory's
	if err := l.Append(rec(4, 4, 5, "kw")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append = %v, want EIO from the seal's directory sync", err)
	}
	if _, err := os.Stat(l.bufferPath()); err != nil {
		t.Fatalf("buffer file removed before the seal was durable: %v", err)
	}
	if views := l.Segments(); len(views) != 1 || views[0].Sealed || views[0].Count != 4 {
		t.Fatalf("views after the failed seal = %+v, want the 4 records still buffered", views)
	}
	if err := l.Append(rec(5, 5, 6, "kw")); err != nil {
		t.Fatal(err)
	}
	if views := l.Segments(); len(views) != 1 || !views[0].Sealed || views[0].Count != 5 {
		t.Fatalf("views after the retried seal = %+v, want one sealed segment of 5", views)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{segName(1, colExt)}) {
		t.Fatalf("directory after the seal holds %v, want only the segment", names)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs, _ := scanMatching(t, l2, 0, -1, ""); len(recs) != 5 {
		t.Fatalf("records after reopen = %d, want 5", len(recs))
	}
}

// TestCompactionRewritesColdSegments covers segments too far apart in
// time to share one: the time bucket seals each pair on its own, and time
// skipping works across them after a reopen.
func TestCompactionRewritesColdSegments(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentEvents: 2, BucketQuanta: 1024}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for i := 1; i <= 8; i++ { // one pair per bucket, buckets 1000 quanta apart
		q := (i-1)/2*1000 + (i-1)%2
		all = append(all, rec(uint64(i), q, q+3, "common", fmt.Sprintf("kw-%d", i)))
		if err := l.Append(all[i-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := l.ColumnarSegmentCount(); n != 4 {
		t.Fatalf("columnar segments = %d, want 4", n)
	}
	want := seqJSON(all...)
	if got := queryJSON(t, l, 0, -1, ""); got != want {
		t.Fatalf("full scan differs after reopen:\n want %s\n have %s", want, got)
	}
	mid, qs := scanMatching(t, l, 2000, 2999, "")
	if len(mid) != 2 || mid[0].Seq != 5 {
		t.Fatalf("range scan after reopen = %+v", mid)
	}
	if qs.byTime != 3 {
		t.Fatalf("time skips after reopen = %+v, want 3", qs)
	}
}

// TestSealCrashWindows stages what a kill -9 leaves at each step of a
// Sync and of a bound seal, and verifies Open converges every one to
// exactly-once records: a temp file is swept and the records it held
// are gone (the serving layer's WAL tail re-evicts them); after a
// rename the new file is whole; and a bound seal that committed its
// segment before removing the buffer file leaves the buffer's records
// in both, which Open serves once and removes the buffer file.
func TestSealCrashWindows(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentEvents: 4}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendSeq := func(from, to uint64) {
		t.Helper()
		for i := from; i <= to; i++ {
			if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendSeq(1, 6) // {1..4} sealed, {5,6} buffered
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	pre := snapshotDir(t, dir)
	appendSeq(7, 7)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := snapshotDir(t, dir)[bufferName]
	appendSeq(8, 8) // fills the buffer: seals {5..8}
	segment := segName(5, colExt)
	sealed := snapshotDir(t, dir)[segment]
	if sealed == nil || len(snapshotDir(t, dir)) != 2 {
		t.Fatalf("directory after the seal = %v, want two segments", dirNames(t, dir))
	}

	for _, w := range []struct {
		name   string
		files  map[string][]byte // staged over pre
		events int
	}{
		{"TmpWritten", map[string][]byte{bufferName + ".tmp": synced}, 6},
		{"AfterRename", map[string][]byte{bufferName: synced}, 7},
		{"SealTmpWritten", map[string][]byte{bufferName: synced, segment + ".tmp": sealed}, 7},
		{"SealRenamed", map[string][]byte{bufferName: synced, segment: sealed}, 8},
	} {
		t.Run(w.name, func(t *testing.T) {
			restoreDir(t, dir, pre)
			for name, raw := range w.files {
				stageFile(t, dir, name, raw)
			}
			l, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if n := l.EventCount(); n != w.events || l.LastSeq() != uint64(w.events) {
				t.Fatalf("events = %d, last seq %d; want %d", n, l.LastSeq(), w.events)
			}
			recs, _ := scanMatching(t, l, 0, -1, "")
			for i, r := range recs {
				if r.Seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d: lost or duplicated records", i, r.Seq)
				}
			}
			for _, name := range dirNames(t, dir) {
				if strings.HasSuffix(name, ".tmp") {
					t.Fatalf("tmp file %s survived recovery", name)
				}
				if name == bufferName && w.events == 8 {
					t.Fatal("a buffer file the sealed segment covers survived recovery")
				}
			}
		})
	}
}

// TestCompactionConcurrentScans scans every segment over and over while
// appends fill and seal the buffer and Syncs rewrite the buffer file
// underneath: each pass must see a gap-free prefix of the records, in
// order and exactly once, whichever side of a seal its views were taken.
func TestCompactionConcurrentScans(t *testing.T) {
	const n = 256
	l, err := Open(t.TempDir(), Options{SegmentEvents: 8, BucketQuanta: 1 << 20, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= n; i++ {
			if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
				done <- err
				return
			}
			if i%3 == 0 {
				if err := l.Sync(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	seen := uint64(0)
	for appending := true; appending; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			appending = false // one more pass over the final layout
		default:
		}
		next := uint64(1)
		for _, v := range l.Segments() {
			if _, _, err := v.ScanPred(Pred{To: -1}, func(r *Record) error {
				if r.Seq != next {
					return fmt.Errorf("seq %d where %d was due", r.Seq, next)
				}
				next++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if next-1 < seen {
			t.Fatalf("pass saw %d records after an earlier one saw %d", next-1, seen)
		}
		seen = next - 1
	}
	if seen != n {
		t.Fatalf("final pass saw %d records, want %d", seen, n)
	}
	if got := l.ColumnarSegmentCount(); got != n/8 {
		t.Fatalf("sealed segments = %d, want %d", got, n/8)
	}
}

// TestCompactionFootprint pins what sealing only full segments buys on
// disk: the same event set, synced every 16 records, is ≥ 3× smaller as
// one buffer file than as the small segments sealing at every Sync would
// leave behind (each of which carries a 1 KiB segment Bloom filter in
// its index).
func TestCompactionFootprint(t *testing.T) {
	const n = 1024
	synced, small := t.TempDir(), t.TempDir()
	seedArchive(t, small, n, Options{SegmentEvents: 16, BucketQuanta: 1 << 20})

	l, err := Open(synced, Options{SegmentEvents: n + 1, BucketQuanta: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= n; i++ {
		if err := l.Append(rec(uint64(i), i%40, i%40+3, "common", fmt.Sprintf("kw-%d", i%7))); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if names := dirNames(t, synced); !slices.Equal(names, []string{bufferName}) {
		t.Fatalf("synced directory holds %v, want only %s", names, bufferName)
	}
	syncedBytes, smallBytes := dirSize(t, synced), dirSize(t, small)
	if syncedBytes*3 > smallBytes {
		t.Fatalf("footprint: small segments %d B, one buffer file %d B (%.1f×), want ≥ 3×",
			smallBytes, syncedBytes, float64(smallBytes)/float64(syncedBytes))
	}
}

// TestCompactionBlockSkipping verifies ScanPred prunes below segment
// granularity on every zone-map dimension.
func TestCompactionBlockSkipping(t *testing.T) {
	dir := t.TempDir()
	// SegmentEvents 16: the 16th append seals the whole batch as one
	// segment of four blocks.
	l, err := Open(dir, Options{SegmentEvents: 16, BucketQuanta: 1 << 20, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 16 records → 4 blocks of 4: quanta 0-3, 100-103, 200-203, 300-303;
	// ranks rise with seq; block-local keywords.
	for i := 0; i < 16; i++ {
		q := i / 4 * 100
		r := rec(uint64(i+1), q+i%4, q+i%4, fmt.Sprintf("blk-%d", i/4))
		r.PeakRank = float64(i)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed || views[0].Blocks() != 4 {
		t.Fatalf("views = %+v", views)
	}
	v := &views[0]

	cases := []struct {
		name    string
		pred    Pred
		records int
		scanned int
		skipped func(BlockStats) int
	}{
		{"time", Pred{From: 100, To: 103}, 4, 1, func(b BlockStats) int { return b.SkippedByTime }},
		{"rank", Pred{To: -1, MinRank: 12.5}, 4, 1, func(b BlockStats) int { return b.SkippedByRank }},
		{"keyword", Pred{To: -1, Keywords: []string{"blk-2"}}, 4, 1, func(b BlockStats) int { return b.SkippedByKeyword }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := 0
			bs, _, err := v.ScanPred(c.pred, func(*Record) error { n++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if bs.Blocks != 4 || bs.Scanned != c.scanned || c.skipped(bs) != 3 {
				t.Fatalf("stats = %+v", bs)
			}
			if n != c.records || bs.Records != c.records {
				t.Fatalf("records = %d (stats %d), want %d", n, bs.Records, c.records)
			}
		})
	}
}

// TestCompactionMixedFormatReopen: a directory sealed under one set of
// bounds and grown under another — small segments of one size, a
// buffer file beside them — opens as one archive and answers
// identically before and after a restart.
func TestCompactionMixedFormatReopen(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 8, Options{SegmentEvents: 2}) // {1,2}..{7,8}
	opt := Options{SegmentEvents: 4, BucketQuanta: 1024, BlockEvents: 4}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{rec(9, 9, 12, "common", "kw-2"), rec(10, 10, 13, "common", "kw-3"), rec(11, 11, 14, "common", "kw-4")} {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil { // {9,10,11} in the buffer file
		t.Fatal(err)
	}
	if n := l.EventCount(); n != 11 {
		t.Fatalf("events = %d, want 11", n)
	}
	want := queryJSON(t, l, 0, -1, "")
	wantKw := queryJSON(t, l, 0, -1, "kw-4")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := queryJSON(t, l, 0, -1, ""); got != want {
		t.Fatalf("reopen differs:\n want %s\n have %s", want, got)
	}
	if got := queryJSON(t, l, 0, -1, "kw-4"); got != wantKw {
		t.Fatalf("keyword reopen differs")
	}
}

// TestDamagedBufferFileQuarantinedAtOpen: a buffer file whose block no
// longer checks out is set aside when the archive opens, and the sealed
// history is served.
func TestDamagedBufferFileQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 3, Options{SegmentEvents: 2}) // {1,2} sealed, 3 in the buffer file
	path := filepath.Join(dir, bufferName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[colHeaderLen+frameHdrLen] ^= 0xff // inside the first block's payload
	stageFile(t, dir, bufferName, raw)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.QuarantinedSegments(); got != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", got)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("quarantined file: %v", err)
	}
	if recs, _ := scanMatching(t, l, 0, -1, ""); len(recs) != 2 || l.LastSeq() != 2 {
		t.Fatalf("records after quarantine = %+v, want seqs 1 and 2", recs)
	}
}

// TestOverlappingSegmentQuarantinedAtOpen: segments never overlap, so
// one whose first ordinal an earlier segment already covers — damage, or
// the leftover input of a build that merged segments — is set aside at
// open instead of serving its records twice.
func TestOverlappingSegmentQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 4, Options{SegmentEvents: 4}) // {1..4}
	var recs []Record
	for i := uint64(3); i <= 4; i++ {
		recs = append(recs, rec(i, int(i), int(i)+1, "kw"))
	}
	if _, err := writeSegment(vfs.OS, filepath.Join(dir, segName(3, colExt)), recs, 4); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.QuarantinedSegments(); got != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", got)
	}
	if recs, _ := scanMatching(t, l, 0, -1, ""); len(recs) != 4 || l.EventCount() != 4 {
		t.Fatalf("records = %d (count %d), want 4 once each", len(recs), l.EventCount())
	}
}

// stageFile writes one file of a staged crash window.
func stageFile(t *testing.T, dir, name string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
		t.Fatal(err)
	}
}
