package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/archive"
)

// pageJSON snapshots what a client sees — events and cursor. Stats are
// deliberately excluded: segment/block counts legitimately change with
// the archive's physical layout; answers must not.
func pageJSON(t *testing.T, res Result) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Events []archive.Record `json:"events"`
		Cursor string           `json:"cursor"`
	}{records(res.Events), res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// reopenArchive restarts l the way the serving layer does across a WAL
// snapshot: the buffer's image (WriteBuffer) is all that survives of it,
// and a fresh Log over the same directory takes it back (RestoreBuffer).
func reopenArchive(t testing.TB, l *archive.Log, dir string, opt archive.Options) *archive.Log {
	t.Helper()
	var image bytes.Buffer
	if err := l.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	l2, err := archive.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.RestoreBuffer(&image, func(err error) { t.Fatal(err) }); err != nil {
		t.Fatal(err)
	}
	return l2
}

// collectPages walks a paginated query to exhaustion.
func collectPages(t *testing.T, arch Archive, req Request) []string {
	t.Helper()
	var pages []string
	for i := 0; ; i++ {
		res, err := Run(nil, arch, req)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, pageJSON(t, res))
		if res.Cursor == "" {
			return pages
		}
		if i > 100 {
			t.Fatal("cursor walk did not terminate")
		}
		req.Cursor = res.Cursor
	}
}

// TestQueryEquivalenceAcrossSeal is the seal policy's acceptance
// criterion at the engine layer: every query — including a full cursor
// walk — returns byte-identical pages whether the records all sit in an
// in-memory buffer, or went through a buffer image and a restart into
// segments sealed at the bound, before and after another restart.
func TestQueryEquivalenceAcrossSeal(t *testing.T) {
	fill := func(l *archive.Log, from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			r := rec(uint64(i), uint64(1000+i), i, i+2, "common", fmt.Sprintf("kw-%d", i%6))
			r.PeakRank = float64(i%10) / 2
			if i%7 == 0 {
				r.Keywords, r.AllKeywords = nil, nil
			}
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func(dir string, opt archive.Options) *archive.Log {
		t.Helper()
		l, err := archive.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	requests := []Request{
		{To: -1},
		{To: -1, Keywords: []string{"kw-2"}},
		{To: -1, Keywords: []string{"common", "kw-4"}},
		{From: 5, To: 9},
		{To: -1, MinRank: 3},
		{To: -1, Limit: 7}, // cursor-walked
	}
	// The reference: every record in the buffer of an archive whose
	// bound is never reached.
	ref := open(t.TempDir(), archive.Options{SegmentEvents: 1 << 20})
	fill(ref, 1, 39)
	baseline := make([][]string, len(requests))
	for i, req := range requests {
		baseline[i] = collectPages(t, ref, req)
	}
	check := func(label string, l *archive.Log) {
		t.Helper()
		for i, req := range requests {
			pages := collectPages(t, l, req)
			if len(pages) != len(baseline[i]) {
				t.Fatalf("%s: request %d paginates differently: %d pages vs %d",
					label, i, len(pages), len(baseline[i]))
			}
			for p := range pages {
				if pages[p] != baseline[i][p] {
					t.Fatalf("%s: request %d page %d diverges:\n was %s\n now %s",
						label, i, p, baseline[i][p], pages[p])
				}
			}
		}
	}

	dir := t.TempDir()
	opt := archive.Options{SegmentEvents: 16, BucketQuanta: 1 << 20, BlockEvents: 4}
	l := open(dir, opt)
	fill(l, 1, 15) // one short of the bound
	l = reopenArchive(t, l, dir, opt)
	if n := l.ColumnarSegmentCount(); n != 0 {
		t.Fatalf("%d sealed segments under the bound", n)
	}
	fill(l, 16, 39)
	if n := l.ColumnarSegmentCount(); n != 2 {
		t.Fatalf("sealed segments = %d, want 2", n)
	}
	check("sealed", l)
	l = reopenArchive(t, l, dir, opt)
	check("sealed and reopened", l)

	// The zone-map pushdown must actually engage on the columnar body: a
	// narrow time-range query reads only a fraction of the blocks.
	res, err := Run(nil, l, Request{From: 5, To: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Blocks == 0 {
		t.Fatalf("no columnar blocks visible in stats: %+v", res.Stats)
	}
	if res.Stats.BlocksSkippedByTime == 0 || res.Stats.BlocksScanned >= res.Stats.Blocks {
		t.Fatalf("zone maps skipped nothing: %+v", res.Stats)
	}
	// And the rank floor prunes at segment granularity via the index
	// bound or below it via zone maps — either way, blocks are skipped.
	res, err = Run(nil, l, Request{To: -1, MinRank: 4.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedByRank+res.Stats.BlocksSkippedByRank == 0 {
		t.Fatalf("rank floor skipped nothing: %+v", res.Stats)
	}
}
