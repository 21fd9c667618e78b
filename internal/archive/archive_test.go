package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// rec builds a record: one event alive over [born, last] with keywords.
func rec(seq uint64, born, last int, kws ...string) Record {
	return Record{
		Seq:         seq,
		ID:          seq * 10,
		State:       "ended",
		Keywords:    kws,
		AllKeywords: kws,
		Rank:        float64(seq),
		BornQuantum: born,
		LastQuantum: last,
	}
}

// skipStats counts what scanMatching's segment-level planning did.
type skipStats struct {
	segments, scanned, byTime, byBloom int
}

// scanMatching is the tests' reader over the scan surface (Segments +
// ScanPred): every record whose span intersects [from, to] (to < 0 =
// unbounded) and, when kw is non-empty, carries it — in eviction order,
// skipping segments on their index bounds the way a planner would.
func scanMatching(t testing.TB, l *Log, from, to int, kw string) ([]Record, skipStats) {
	t.Helper()
	if to < 0 {
		to = maxInt
	}
	var out []Record
	var st skipStats
	for _, v := range l.Segments() {
		st.segments++
		if v.MaxQuantum < from || v.MinQuantum > to {
			st.byTime++
			continue
		}
		if kw != "" && !v.MayContain(kw) {
			st.byBloom++
			continue
		}
		st.scanned++
		if _, _, err := v.ScanPred(Pred{To: -1}, func(r *Record) error {
			if r.LastQuantum >= from && r.BornQuantum <= to && (kw == "" || slices.Contains(r.AllKeywords, kw)) {
				out = append(out, *r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out, st
}

// TestAppendQueryRotation drives three time buckets through sealing and
// checks range scans, keyword scans, and the skip statistics that prove
// the segment index is doing its job.
func TestAppendQueryRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Segments: {1,2} quanta 0..19, {3,4} quanta 100..119, {5} buffered 200..209.
	for i, r := range []Record{
		rec(1, 0, 9, "earthquake", "turkey"),
		rec(2, 10, 19, "flood", "river"),
		rec(3, 100, 109, "storm", "coast"),
		rec(4, 110, 119, "election", "debate"),
		rec(5, 200, 209, "wildfire", "evacuation"),
	} {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := l.SegmentCount(); n != 3 {
		t.Fatalf("segments = %d, want 3", n)
	}
	if n := l.EventCount(); n != 5 {
		t.Fatalf("events = %d, want 5", n)
	}

	// Full range, no keyword: everything, in eviction order.
	all, stats := scanMatching(t, l, 0, -1, "")
	if len(all) != 5 {
		t.Fatalf("full scan = %d records", len(all))
	}
	for i, r := range all {
		if r.Seq != uint64(i+1) {
			t.Fatalf("order broken: %v", all)
		}
	}
	if stats.scanned != 3 || stats.segments != 3 {
		t.Fatalf("full scan stats = %+v", stats)
	}

	// Range scan hitting only the middle bucket skips the other two.
	mid, stats := scanMatching(t, l, 100, 119, "")
	if len(mid) != 2 || mid[0].Seq != 3 || mid[1].Seq != 4 {
		t.Fatalf("mid scan = %v", mid)
	}
	if stats.byTime != 2 || stats.scanned != 1 {
		t.Fatalf("mid scan stats = %+v, want 2 time-skips", stats)
	}

	// Keyword present in one sealed segment: Bloom skips the others.
	storm, stats := scanMatching(t, l, 0, -1, "storm")
	if len(storm) != 1 || storm[0].Seq != 3 {
		t.Fatalf("storm scan = %v", storm)
	}
	if stats.byBloom != 2 || stats.scanned != 1 {
		t.Fatalf("storm scan stats = %+v, want 2 bloom-skips", stats)
	}

	// Absent keyword: every segment skipped, nothing scanned.
	none, stats := scanMatching(t, l, 0, -1, "nosuchkeyword")
	if len(none) != 0 || stats.scanned != 0 || stats.byBloom != 3 {
		t.Fatalf("absent keyword: records = %v stats = %+v", none, stats)
	}

	// Nothing but columnar files ever reaches the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), colExt) {
			t.Fatalf("unexpected file %s in archive directory", e.Name())
		}
	}
}

// TestBucketRotationByQuanta seals on time span even when the event
// count stays under the segment cap.
func TestBucketRotationByQuanta(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 100, BucketQuanta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, 0, 10, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2, 40, 60, "b")); err != nil { // span 0..60 ≥ 50: seal
		t.Fatal(err)
	}
	if err := l.Append(rec(3, 100, 110, "c")); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 2 {
		t.Fatalf("segments = %d, want 2 (time-bucket rotation)", n)
	}
}

// TestReopenDedup kills an archive with a non-empty buffer and verifies
// the WAL-replay idempotence contract on reopen: the buffered record is
// gone, replayed ordinals the archive still holds are dropped, and the
// lost one plus fresh ones append without a gap.
func TestReopenDedup(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i)*10, int(i)*10+5, fmt.Sprintf("kw%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulates a kill. {1,2} were sealed; 3 was only buffered.
	l2, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq after reopen = %d, want 2 (buffered record lost)", l2.LastSeq())
	}
	// Replayed evictions 1..2 are dropped; 3 is re-archived; 4 is new.
	for i := uint64(1); i <= 4; i++ {
		if err := l2.Append(rec(i, int(i)*10, int(i)*10+5, fmt.Sprintf("kw%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	all, _ := scanMatching(t, l2, 0, -1, "")
	if len(all) != 4 || l2.Gaps() != 0 {
		t.Fatalf("records after dedup = %d (gaps %d), want 4 and no gap", len(all), l2.Gaps())
	}
	// An ordinal gap (records lost for good) is skipped over and
	// counted, not allowed to wedge all future archiving.
	if err := l2.Append(rec(99, 0, 1, "gap")); err != nil {
		t.Fatalf("gap append failed: %v", err)
	}
	if l2.Gaps() != 1 || l2.LastSeq() != 99 {
		t.Fatalf("gaps = %d lastSeq = %d, want 1/99", l2.Gaps(), l2.LastSeq())
	}
	if err := l2.Append(rec(100, 0, 1, "after-gap")); err != nil {
		t.Fatalf("append after gap: %v", err)
	}
}

// TestOpenRefusesLegacySegment: a directory still holding a JSON-lines
// segment is refused with an error naming the file, and nothing in it is
// touched — a build with the converter can still open it.
func TestOpenRefusesLegacySegment(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 3, Options{SegmentEvents: 2})
	name := segName(5, ".jsonl")
	stageFile(t, dir, name, []byte(`{"seq":5,"id":50,"state":"ended","keywords":["alpha"]}`+"\n"))
	stageFile(t, dir, segName(1, colExt)+".tmp", []byte("torn"))
	pre := snapshotDir(t, dir)

	l, err := Open(dir, Options{})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a directory holding a JSON-lines segment")
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, name)) {
		t.Fatalf("error does not name the file: %v", err)
	}
	if post := snapshotDir(t, dir); !reflect.DeepEqual(post, pre) {
		t.Fatalf("refused Open changed the directory: %d files before, %d after", len(pre), len(post))
	}

	// With the data file gone, the legacy sidecar a converting build's
	// mid-delete crash can strand is not a reason to refuse: it is left
	// alone and the columnar history opens.
	if err := os.Remove(filepath.Join(dir, name)); err != nil { //repro:vfs-exempt staging the directory under test
		t.Fatal(err)
	}
	stray := segName(5, ".meta.json")
	stageFile(t, dir, stray, []byte(`{}`))
	if l, err = Open(dir, Options{}); err != nil {
		t.Fatalf("Open refused a directory holding only a stray legacy sidecar: %v", err)
	}
	defer l.Close()
	if recs, _ := scanMatching(t, l, 0, -1, ""); len(recs) != 3 {
		t.Fatalf("records after reopen = %d, want 3", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, stray)); err != nil {
		t.Fatalf("stray legacy sidecar: %v", err)
	}
}

// TestOpenRefusesPreIndexSegments: a directory holding a segment of the
// format before the index moved into the segment file — a .col.meta.json
// sidecar, or a .col of format version 1 — is refused with an error
// naming the file, and nothing in it is touched.
func TestOpenRefusesPreIndexSegments(t *testing.T) {
	for _, c := range []struct {
		name  string
		stage func(t *testing.T, dir string) string
	}{
		{"Sidecar", func(t *testing.T, dir string) string {
			name := segName(1, colExt+".meta.json")
			stageFile(t, dir, name, []byte(`{"file":1,"first_seq":1,"last_seq":2,"count":2}`))
			return name
		}},
		{"Version1", func(t *testing.T, dir string) string {
			name := segName(3, colExt)
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			raw[4] = 1
			stageFile(t, dir, name, raw)
			return name
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			seedArchive(t, dir, 4, Options{SegmentEvents: 2})
			name := c.stage(t, dir)
			stageFile(t, dir, segName(5, colExt)+".tmp", []byte("torn"))
			pre := snapshotDir(t, dir)
			l, err := Open(dir, Options{})
			if err == nil {
				l.Close()
				t.Fatal("Open accepted a directory holding a pre-index segment")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, name)) {
				t.Fatalf("error does not name the file: %v", err)
			}
			if post := snapshotDir(t, dir); !reflect.DeepEqual(post, pre) {
				t.Fatalf("refused Open changed the directory: %d files before, %d after", len(pre), len(post))
			}
		})
	}
}

// TestDamagedIndexQuarantinedAtOpen: a segment whose index no longer
// checks out is set aside when the archive opens, as a scan sets aside a
// segment with a damaged block, and the rest of the history is served.
func TestDamagedIndexQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 6, Options{SegmentEvents: 2}) // {1,2}{3,4}{5,6}
	path := filepath.Join(dir, segName(3, colExt))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-trailerLen-1] ^= 0xff // the index payload's last byte
	stageFile(t, dir, segName(3, colExt), raw)
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
	recs, _ := scanMatching(t, l, 0, -1, "")
	if len(recs) != 4 || recs[0].Seq != 1 || recs[2].Seq != 5 {
		t.Fatalf("records after quarantine = %+v, want seqs 1, 2, 5, 6", recs)
	}
}

// TestCorruptSealedSegmentQuarantined flips a byte inside a sealed
// segment's block: the frame CRC catches it, the scan reports
// ErrCorrupt, and quarantining the view renames the segment aside and
// drops it from the sealed list, so the surviving history keeps being
// served — instead of every scan failing forever.
func TestCorruptSealedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ { // 3 seal a segment, 1 stays buffered
		if err := l.Append(rec(i, int(i)*10, int(i)*10+5, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	seg := l.colPath(1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first block's payload.
	raw[colHeaderLen+frameHdrLen] ^= 0xff
	if err := os.WriteFile(seg, raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
		t.Fatal(err)
	}
	views := l.Segments()
	if _, _, err := views[0].ScanPred(Pred{To: -1}, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
	if !views[0].Quarantine() || views[0].Quarantine() {
		t.Fatal("Quarantine must set the segment aside exactly once")
	}
	if got := l.QuarantinedSegments(); got != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", got)
	}
	// The damaged files are renamed aside, not deleted.
	if _, err := os.Stat(seg + quarantineSuffix); err != nil {
		t.Fatalf("quarantined data file: %v", err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatal("corrupt data file still at its serving path")
	}
	// Later scans serve cleanly — only the buffered record survives.
	if recs, _ := scanMatching(t, l, 0, -1, ""); len(recs) != 1 || recs[0].Seq != 4 {
		t.Fatalf("post-quarantine scan = %+v, want just seq 4", recs)
	}
	// And a reopen does not resurrect the quarantined segment.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if recs, _ := scanMatching(t, l2, 0, -1, ""); len(recs) != 1 {
		t.Fatalf("scan after reopen = %+v", recs)
	}
}

// TestBloomNoFalseNegatives is the Bloom correctness property the
// skipping depends on: an added keyword is always reported present.
func TestBloomNoFalseNegatives(t *testing.T) {
	bf := newBloom(8 * segBloomBytes)
	for i := 0; i < 1000; i++ {
		bf.add(fmt.Sprintf("keyword-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !bf.mayContain(fmt.Sprintf("keyword-%d", i)) {
			t.Fatalf("false negative for keyword-%d", i)
		}
	}
	// And at this load the false-positive rate stays usable.
	fp := 0
	for i := 0; i < 1000; i++ {
		if bf.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 200 {
		t.Fatalf("false positives = %d/1000, filter useless", fp)
	}
}
