package archive

import (
	"errors"
	"io"
	"os"
	"testing"
)

func iterRec(seq uint64, born, last int, kws ...string) Record {
	return Record{Seq: seq, ID: seq, State: "ended",
		Keywords: kws, BornQuantum: born, LastQuantum: last}
}

// TestSegmentViewPointInTime: a record is scannable from the moment
// Append returns; a view taken of the buffer must not see records
// appended after Segments() returned, stays readable after the seal
// that empties the buffer, and a sealed view scans exactly its count.
func TestSegmentViewPointInTime(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteBuffer(io.Discard); err != nil { // the image is a copy: the buffer keeps serving
		t.Fatal(err)
	}
	views := l.Segments()
	if len(views) != 1 || views[0].Sealed || views[0].Count != 3 {
		t.Fatalf("active view = %+v, want unsealed count 3", views)
	}
	// Concurrent-append simulation: two more records land after the
	// view, the second filling the buffer, whose seal moves everything
	// to disk.
	for i := 4; i <= 5; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	bs, stopped, err := views[0].ScanPred(Pred{To: -1}, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if bs.Records != 3 || stopped {
		t.Fatalf("point-in-time scan saw %d records (stopped=%v), want exactly 3", bs.Records, stopped)
	}
	views = l.Segments()
	if len(views) != 1 || !views[0].Sealed || views[0].Count != 5 {
		t.Fatalf("sealed view = %+v, want one sealed segment of 5", views)
	}
	if bs, _, err := views[0].ScanPred(Pred{To: -1}, func(*Record) error { return nil }); err != nil || bs.Records != 5 {
		t.Fatalf("sealed scan saw %d records (err %v), want 5", bs.Records, err)
	}
}

// TestSealedSegmentOverCountIsCorruption: a sealed data file holding
// MORE records than its index states is corruption and must surface
// as an error, not be silently capped at the indexed count.
func TestSealedSegmentOverCountIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := []Record{iterRec(1, 1, 1, "kw"), iterRec(2, 2, 2, "kw"), iterRec(3, 3, 3, "kw")}
	for _, r := range recs[:2] {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed {
		t.Fatalf("want one sealed segment, got %+v", views)
	}
	// Corrupt: replace the data file with one whose block holds a third
	// record, under a header still claiming the view's two.
	_, raw, err := encodeSegment(recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	hdr := appendColHeader(nil, colHeader{firstSeq: 1, lastSeq: 2, count: 2, minQ: 1, maxQ: 2})
	if err := os.WriteFile(l.colPath(1), append(hdr, raw[colHeaderLen:]...), 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
		t.Fatal(err)
	}
	if _, _, err := views[0].ScanPred(Pred{To: -1}, func(*Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-count sealed segment scan = %v, want ErrCorrupt", err)
	}
	// The corrupt segment can be set aside; nothing else is left to serve.
	if !views[0].Quarantine() || len(l.Segments()) != 0 {
		t.Fatalf("quarantine left segments %+v", l.Segments())
	}
}

// TestSegmentViewScanStop: ErrStop from the callback ends the scan
// early and is reported as stopped, not as an error. One record per
// block, so the decoded-record count shows where the scan stopped.
func TestSegmentViewScanStop(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 4, BlockEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 4; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed {
		t.Fatalf("want one sealed segment, got %+v", views)
	}
	n := 0
	bs, stopped, err := views[0].ScanPred(Pred{To: -1}, func(*Record) error {
		n++
		if n == 2 {
			return ErrStop
		}
		return nil
	})
	if err != nil || !stopped || bs.Records != 2 {
		t.Fatalf("stopped scan = seen %d stopped %v err %v, want 2 true nil", bs.Records, stopped, err)
	}
}
