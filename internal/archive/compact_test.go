package archive

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// byte-identity oracle the compaction tests compare against.
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

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestCompactionMergesSmallSegments: the small segments frequent seals
// leave behind are merged into one, with identical scan results.
func TestCompactionMergesSmallSegments(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2}) // {1,2}{3,4}{5,6}{7,8}{9}
	l, err := Open(dir, Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := queryJSON(t, l, 0, -1, "")
	beforeKw := queryJSON(t, l, 0, -1, "kw-3")

	st, worked, err := l.CompactOnce()
	if err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	if st.Compactions != 1 || st.SegmentsIn != 5 || st.Records != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesReclaimed == 0 {
		t.Fatal("merge reclaimed no bytes")
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	if got := queryJSON(t, l, 0, -1, ""); got != before {
		t.Fatalf("full scan changed:\n before %s\n after  %s", before, got)
	}
	if got := queryJSON(t, l, 0, -1, "kw-3"); got != beforeKw {
		t.Fatalf("keyword scan changed:\n before %s\n after  %s", beforeKw, got)
	}
	c, segs, bytes := l.CompactTotals()
	if c != 1 || segs != 5 || bytes == 0 {
		t.Fatalf("totals = %d/%d/%d", c, segs, bytes)
	}
	// A lone segment is never re-picked: compaction converges.
	if _, worked, err := l.CompactOnce(); err != nil || worked {
		t.Fatalf("second CompactOnce: worked=%v err=%v", worked, err)
	}
	// Inputs are gone from disk.
	if _, err := os.Stat(l.colPath(3)); !os.IsNotExist(err) {
		t.Fatal("input segment survived compaction")
	}
}

// TestCompactionDirSyncFailureKeepsInputs: the directory fsync after a
// merge's commit rename fails. Until that rename is durable a power cut
// could undo it, so the step must report the error and leave every input
// on disk; the merged segment is served meanwhile, and a reopen deletes
// the inputs it supersedes.
func TestCompactionDirSyncFailureKeepsInputs(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2}) // {1,2}{3,4}{5,6}{7,8}{9}
	ffs := vfs.NewFaultFS(nil)
	opt := Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4, FS: ffs}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := queryJSON(t, l, 0, -1, "")
	// The first sync under dir is the merged file's own; the second is the
	// directory's.
	ffs.Inject(vfs.Rule{Op: vfs.OpSync, Path: dir, After: 1, Count: 1})

	if _, worked, err := l.CompactOnce(); !errors.Is(err, syscall.EIO) || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v, want a committed merge and EIO", worked, err)
	}
	for _, file := range []uint64{3, 5, 7, 9} {
		if _, err := os.Stat(l.colPath(file)); err != nil {
			t.Fatalf("input deleted before the directory sync: %v", err)
		}
	}
	if got := queryJSON(t, l, 0, -1, ""); got != want {
		t.Fatalf("scan changed after the merge:\n want %s\n have %s", want, got)
	}
	if l, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments after reopen = %d, want 1", n)
	}
	if got := queryJSON(t, l, 0, -1, ""); got != want {
		t.Fatalf("scan changed after reopen:\n want %s\n have %s", want, got)
	}
}

// TestSealDirSyncFailureKeepsBuffer: the directory fsync after a seal's
// commit rename fails. The seal must return the error — the serving layer
// then skips the WAL snapshot it guards — and keep the records buffered;
// the next seal commits them.
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
	if err := l.Seal(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Seal = %v, want EIO from the directory sync", err)
	}
	if views := l.Segments(); len(views) != 1 || views[0].Sealed || views[0].Count != 3 {
		t.Fatalf("views after the failed seal = %+v, want the 3 records still buffered", views)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if views := l.Segments(); len(views) != 1 || !views[0].Sealed || views[0].Count != 3 {
		t.Fatalf("views after the retried seal = %+v, want one sealed segment of 3", views)
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

// TestCompactionRewritesColdSegments covers segments too far apart in
// time to merge: compaction finds nothing to do, and time skipping
// works across them after a reopen.
func TestCompactionRewritesColdSegments(t *testing.T) {
	dir := t.TempDir()
	opt := Options{SegmentEvents: 2, BucketQuanta: 1024}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	var all []Record
	for i := 1; i <= 8; i++ { // one pair per bucket, buckets 1000 quanta apart: no merge run
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
	if st, err := l.CompactAll(); err != nil || st.Compactions != 0 {
		t.Fatalf("CompactAll over unmergeable segments: %+v, %v", st, err)
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

// TestCompactionCrashRecovery stages the on-disk state a kill -9 leaves
// at each step of the compaction commit protocol and verifies Open
// converges every one of them to the same exactly-once record set.
func TestCompactionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2})
	opt := Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4}
	pre := snapshotDir(t, dir)

	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := queryJSON(t, l, 0, -1, "")
	wantKw := queryJSON(t, l, 0, -1, "kw-2")
	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	post := snapshotDir(t, dir)
	colName := filepath.Base(l.colPath(1))
	if _, ok := post[colName]; !ok {
		t.Fatalf("no merged col file in %v", post)
	}

	windows := []struct {
		name  string
		stage func()
	}{
		{"BeforeRename", func() { // crash mid-write: only a tmp exists
			restoreDir(t, dir, pre)
			stageFile(t, dir, colName+".tmp", []byte("torn"))
		}},
		{"AfterRename", func() { // merged file committed over the first input, the other inputs alive
			restoreDir(t, dir, pre)
			stageFile(t, dir, colName, post[colName])
		}},
		{"MidDeletes", func() { // some inputs deleted, the rest alive
			restoreDir(t, dir, pre)
			stageFile(t, dir, colName, post[colName])
			for _, seq := range []uint64{3, 7} {
				if err := os.Remove(l.colPath(seq)); err != nil { //repro:vfs-exempt staging the directory under test
					t.Fatal(err)
				}
			}
		}},
	}
	for _, w := range windows {
		t.Run(w.name, func(t *testing.T) {
			w.stage()
			l, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if n := l.EventCount(); n != 9 {
				t.Fatalf("events = %d, want 9 (lost or duplicated records)", n)
			}
			if got := queryJSON(t, l, 0, -1, ""); got != want {
				t.Fatalf("recovered query differs:\n want %s\n have %s", want, got)
			}
			if got := queryJSON(t, l, 0, -1, "kw-2"); got != wantKw {
				t.Fatalf("recovered keyword query differs")
			}
			// Recovery converged the directory: no tmp files, no superseded
			// inputs.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("tmp file %s survived recovery", e.Name())
				}
				if e.Name() == "ev-00000000000000000003.col" && w.name != "BeforeRename" {
					t.Fatal("superseded input segment survived recovery")
				}
			}
		})
	}
}

// TestSealCrashWindows stages what a kill -9 leaves at each step of a
// seal and verifies Open converges: with only the temp file written the
// records are gone (the serving layer's WAL tail re-evicts them) and the
// temp file is swept; after the rename the segment is whole.
func TestSealCrashWindows(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 4, Options{SegmentEvents: 2}) // {1,2}{3,4}
	pre := snapshotDir(t, dir)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(5); i <= 6; i++ {
		if err := l.Append(rec(i, int(i), int(i)+1, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := segName(5, colExt)
	sealed := snapshotDir(t, dir)[name]
	for _, w := range []struct {
		name   string
		file   string
		events int
	}{
		{"TmpWritten", name + ".tmp", 4},
		{"AfterRename", name, 6},
	} {
		t.Run(w.name, func(t *testing.T) {
			restoreDir(t, dir, pre)
			stageFile(t, dir, w.file, sealed)
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if n := l.EventCount(); n != w.events || l.LastSeq() != uint64(w.events) {
				t.Fatalf("events = %d, last seq %d; want %d", n, l.LastSeq(), w.events)
			}
			if _, err := os.Stat(filepath.Join(dir, name+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("tmp file survived recovery: %v", err)
			}
		})
	}
}

// TestCompactionScanFallback takes views, compacts their segments away
// underneath them, and verifies in-flight scans still return exactly
// the original record sets via the covering-segment fallback.
func TestCompactionScanFallback(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2})
	l, err := Open(dir, Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	views := l.Segments()
	if len(views) != 5 {
		t.Fatalf("views = %d, want 5", len(views))
	}
	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	var got []uint64
	for i := range views {
		v := &views[i]
		if _, _, err := v.ScanPred(Pred{To: -1}, func(r *Record) error {
			got = append(got, r.Seq)
			return nil
		}); err != nil {
			t.Fatalf("stale view %d scan: %v", i, err)
		}
	}
	if len(got) != 9 {
		t.Fatalf("stale views yielded %d records, want 9: %v", len(got), got)
	}
	seen := map[uint64]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate seq %d through fallback", s)
		}
		seen[s] = true
	}
}

// TestCompactionConcurrentScans scans every segment over and over while
// compaction merges them away underneath: each pass must see every
// record exactly once, whichever side of a commit its views were taken.
func TestCompactionConcurrentScans(t *testing.T) {
	const n = 64
	dir := t.TempDir()
	seedArchive(t, dir, n, Options{SegmentEvents: 2})
	// Merges cap at 8 records, so compaction takes many steps.
	l, err := Open(dir, Options{SegmentEvents: 8, BucketQuanta: 1024, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		_, err := l.CompactAll()
		done <- err
	}()
	for compacting := true; compacting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			compacting = false // one more pass over the final layout
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
		if next != n+1 {
			t.Fatalf("pass saw %d records, want %d", next-1, n)
		}
	}
	if got := l.SegmentCount(); got != n/8 {
		t.Fatalf("segments after compaction = %d, want %d", got, n/8)
	}
}

// TestCompactionFootprint pins what compaction buys on disk: the same
// event set is ≥ 3× smaller as one compacted segment than as the small
// segments frequent seals leave behind (each of which carries a 1 KiB
// segment Bloom filter in its index).
func TestCompactionFootprint(t *testing.T) {
	dir := t.TempDir()
	n := 4096
	seedArchive(t, dir, n, Options{SegmentEvents: 16, BucketQuanta: 1024})
	smallBytes := dirSize(t, dir)

	l, err := Open(dir, Options{SegmentEvents: n, BucketQuanta: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.CompactAll(); err != nil {
		t.Fatal(err)
	}
	mergedBytes := dirSize(t, dir)
	if l.EventCount() != n {
		t.Fatalf("events = %d, want %d", l.EventCount(), n)
	}
	if mergedBytes*3 > smallBytes {
		t.Fatalf("footprint: small %d B → merged %d B (%.1f×), want ≥ 3×",
			smallBytes, mergedBytes, float64(smallBytes)/float64(mergedBytes))
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
// bounds and grown under another — small segments of two sizes side by
// side, a compaction half worked through them — opens as one archive
// and answers identically before and after a restart.
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
	if err := l.Seal(); err != nil { // {9,10,11}
		t.Fatal(err)
	}
	if n := l.EventCount(); n != 11 {
		t.Fatalf("events = %d, want 11", n)
	}
	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
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

// stageFile writes one file of a staged crash window.
func stageFile(t *testing.T, dir, name string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
		t.Fatal(err)
	}
}
