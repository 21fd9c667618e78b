package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
// the sealed list holds many small segments, and returns the Log, whose
// buffer holds the records past the last seal.
func seedArchive(t *testing.T, dir string, n int, opt Options) *Log {
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
	return l
}

// reopen restarts l the way the serving layer does across a WAL
// snapshot: the buffer's image (WriteBuffer) is all that survives of it,
// and a fresh Log over the same directory takes it back (RestoreBuffer).
func reopen(t testing.TB, l *Log, opt Options) *Log {
	t.Helper()
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(l.dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreBuffer(&image, func(err error) { t.Fatal(err) }); err != nil {
		t.Fatal(err)
	}
	return l2
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

// TestSmallSegmentsNeverAppear: restarts under the segment bound leave
// no file behind — the buffer travels as its image — with every record
// still served after each; past the bound there is exactly one sealed
// segment per SegmentEvents records and nothing else in the directory.
func TestSmallSegmentsNeverAppear(t *testing.T) {
	const segEvents = 8
	dir := t.TempDir()
	opt := Options{SegmentEvents: segEvents, BucketQuanta: 1 << 20, BlockEvents: 3}
	var all []Record
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	appendN := func(n int) {
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
	restart := func() {
		t.Helper()
		l = reopen(t, l, opt)
		if got, want := queryJSON(t, l, 0, -1, ""), seqJSON(all...); got != want {
			t.Fatalf("records after reopen:\n want %s\n have %s", want, got)
		}
	}

	for i := 0; i < 3; i++ {
		appendN(2)
		if n := l.ColumnarSegmentCount(); n != 0 {
			t.Fatalf("restart %d: %d sealed segments under the bound", i, n)
		}
		if names := dirNames(t, dir); len(names) != 0 {
			t.Fatalf("restart %d: directory holds %v, want nothing", i, names)
		}
		restart()
	}

	appendN(3*segEvents - len(all) + 3) // three full segments and three buffered records
	restart()
	views := l.Segments()
	if l.ColumnarSegmentCount() != 3 || len(views) != 4 {
		t.Fatalf("%d sealed segments, %d views; want 3 sealed and the buffer", l.ColumnarSegmentCount(), len(views))
	}
	for i, v := range views[:3] {
		if !v.Sealed || v.Count != segEvents || v.FirstSeq != uint64(i*segEvents+1) {
			t.Fatalf("segment %d = %+v, want %d records from seq %d", i, v, segEvents, i*segEvents+1)
		}
	}
	want := []string{segName(1, colExt), segName(9, colExt), segName(17, colExt)}
	if names := dirNames(t, dir); !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// TestSealDirSyncFailureKeepsBuffer: the directory fsync after a bound
// seal's commit rename fails. Until that rename is durable a power cut
// could undo it, so the Append must report the error and keep the
// records buffered and served; the next Append commits the seal, and a
// reopen serves every record once.
func TestSealDirSyncFailureKeepsBuffer(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	l, err := Open(dir, Options{SegmentEvents: 4, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: dir, After: 1, Count: 1}) // the segment's sync, then the directory's
	if err := l.Append(rec(4, 4, 5, "kw")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append = %v, want EIO from the seal's directory sync", err)
	}
	if views := l.Segments(); len(views) != 1 || views[0].Sealed || views[0].Count != 4 {
		t.Fatalf("views after the failed seal = %+v, want the 4 records still buffered", views)
	}
	if recs, _ := scanMatching(t, l, 0, -1, ""); len(recs) != 4 {
		t.Fatalf("records served after the failed seal = %d, want 4", len(recs))
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
	if recs, _ := scanMatching(t, reopen(t, l, Options{}), 0, -1, ""); len(recs) != 5 {
		t.Fatalf("records after reopen = %d, want 5", len(recs))
	}
}

// TestBoundSealDirSyncFailureKeepsBufferFile: a bound seal whose
// directory fsync fails leaves its segment file renamed into place but
// not durable, so a power cut may keep or undo it. The buffer's image —
// what a WAL snapshot carries in place of the buffer file earlier builds
// kept — must still hold every record, so that a restart from it serves
// each record once either way.
func TestBoundSealDirSyncFailureKeepsBufferFile(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	l, err := Open(dir, Options{SegmentEvents: 4, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: dir, After: 1, Count: 1}) // the segment's sync, then the directory's
	if err := l.Append(rec(4, 4, 5, "kw")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Append = %v, want EIO from the seal's directory sync", err)
	}
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	for _, undone := range []bool{false, true} {
		if undone { // the power cut undid the rename
			if err := os.Remove(filepath.Join(dir, segName(1, colExt))); err != nil { //repro:vfs-exempt staging the directory under test
				t.Fatal(err)
			}
		}
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l2.RestoreBuffer(bytes.NewReader(image.Bytes()), func(err error) { t.Fatal(err) }); err != nil {
			t.Fatal(err)
		}
		if recs, _ := scanMatching(t, l2, 0, -1, ""); len(recs) != 4 || l2.EventCount() != 4 || l2.LastSeq() != 4 {
			t.Fatalf("rename undone %v: records after restart = %d (count %d, last %d), want 4 once each",
				undone, len(recs), l2.EventCount(), l2.LastSeq())
		}
	}
}

// TestTimeBucketSealsSkipAfterReopen covers segments too far apart in
// time to share one: the time bucket seals each pair on its own, and time
// skipping works across them after a reopen.
func TestTimeBucketSealsSkipAfterReopen(t *testing.T) {
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
// bound seal, and verifies that Open plus the hand-back of the last
// snapshot's buffer image converge every one to exactly-once records:
// a temp file is swept and the image serves its records (the serving
// layer's WAL tail re-evicts the later ones); after the rename the
// segment is whole, and the image's records it holds are dropped by
// ordinal.
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
	appendSeq(1, 7) // {1..4} sealed, {5,6,7} buffered
	pre := snapshotDir(t, dir)
	var image bytes.Buffer // what the last snapshot carries
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
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
		{"SealTmpWritten", map[string][]byte{segment + ".tmp": sealed}, 7},
		{"SealRenamed", map[string][]byte{segment: sealed}, 8},
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
			if err := l.RestoreBuffer(bytes.NewReader(image.Bytes()), func(err error) { t.Fatal(err) }); err != nil {
				t.Fatal(err)
			}
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
			}
		})
	}
}

// TestScansRaceSeals scans every segment over and over, and encodes the
// buffer's image as a snapshot would, while appends fill and seal the
// buffer underneath: each pass must see a gap-free prefix of the
// records, in order and exactly once, whichever side of a seal its
// views were taken.
func TestScansRaceSeals(t *testing.T) {
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
		if err := l.WriteBuffer(io.Discard); err != nil {
			t.Fatal(err)
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

// TestFullSegmentFootprint pins what sealing only full segments buys on
// disk: the same event set is ≥ 3× smaller as one buffer image — what a
// WAL snapshot carries — than as the small segments sealing at every
// 16 records would leave behind (each of which carries a 1 KiB segment
// Bloom filter in its index).
func TestFullSegmentFootprint(t *testing.T) {
	const n = 1024
	buffered, small := t.TempDir(), t.TempDir()
	seedArchive(t, small, n, Options{SegmentEvents: 16, BucketQuanta: 1 << 20})
	l := seedArchive(t, buffered, n, Options{SegmentEvents: n + 1, BucketQuanta: 1 << 20})
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, buffered); len(names) != 0 {
		t.Fatalf("buffered directory holds %v, want nothing", names)
	}
	imageBytes, smallBytes := int64(image.Len()), dirSize(t, small)
	if imageBytes*3 > smallBytes {
		t.Fatalf("footprint: small segments %d B, one buffer image %d B (%.1f×), want ≥ 3×",
			smallBytes, imageBytes, float64(smallBytes)/float64(imageBytes))
	}
}

// TestZoneMapBlockSkipping verifies ScanPred prunes below segment
// granularity on every zone-map dimension.
func TestZoneMapBlockSkipping(t *testing.T) {
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

// TestReopenUnderMixedBounds: a directory sealed under one set of bounds
// and grown under another — small segments of one size, a buffer beside
// them — opens as one archive and answers identically before and after
// a restart.
func TestReopenUnderMixedBounds(t *testing.T) {
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
	if n := l.EventCount(); n != 11 {
		t.Fatalf("events = %d, want 11", n)
	}
	want := queryJSON(t, l, 0, -1, "")
	wantKw := queryJSON(t, l, 0, -1, "kw-4")
	l = reopen(t, l, opt) // {9,10,11} through the buffer image
	if got := queryJSON(t, l, 0, -1, ""); got != want {
		t.Fatalf("reopen differs:\n want %s\n have %s", want, got)
	}
	if got := queryJSON(t, l, 0, -1, "kw-4"); got != wantKw {
		t.Fatalf("keyword reopen differs")
	}
}

// TestDamagedBufferFileQuarantinedAtOpen: a damaged buffer never has
// its records served. A buffer.col an earlier build left — once
// quarantined at open — is refused with an error naming it, and nothing
// in the directory is touched; a damaged buffer image handed back from a
// WAL snapshot is refused with ErrCorrupt, nothing of it is appended,
// and the sealed history is served.
func TestDamagedBufferFileQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	l := seedArchive(t, dir, 3, Options{SegmentEvents: 2}) // {1,2} sealed, 3 buffered
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	raw := image.Bytes()
	raw[colHeaderLen+frameHdrLen] ^= 0xff // inside the first block's payload

	stageFile(t, dir, bufferName, raw)
	pre := snapshotDir(t, dir)
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, bufferName)) {
		t.Fatalf("Open with a damaged %s = %v, want an error naming it", bufferName, err)
	}
	if post := snapshotDir(t, dir); !reflect.DeepEqual(post, pre) {
		t.Fatalf("refused Open changed the directory: %d files before, %d after", len(pre), len(post))
	}
	if err := os.Remove(filepath.Join(dir, bufferName)); err != nil { //repro:vfs-exempt staging the directory under test
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreBuffer(bytes.NewReader(raw), func(err error) { t.Fatal(err) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RestoreBuffer of a damaged image = %v, want ErrCorrupt", err)
	}
	if recs, _ := scanMatching(t, l2, 0, -1, ""); len(recs) != 2 || l2.LastSeq() != 2 || l2.QuarantinedSegments() != 0 {
		t.Fatalf("records after the refused image = %+v (last %d, quarantined %d), want seqs 1 and 2",
			recs, l2.LastSeq(), l2.QuarantinedSegments())
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
	_, image, err := encodeSegment(recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	stageFile(t, dir, segName(3, colExt), image)
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
