package query

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/archive"
)

// pageJSON snapshots what a client sees — events and cursor. Stats are
// deliberately excluded: segment/block counts legitimately change when
// the archive is compacted; answers must not.
func pageJSON(t *testing.T, res Result) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Events []archive.Record `json:"events"`
		Cursor string           `json:"cursor"`
	}{res.Events, res.Cursor})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
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

// TestQueryEquivalenceAcrossCompaction is the tentpole acceptance
// criterion at the engine layer: every query — including a full cursor
// walk — returns byte-identical pages whether the archive body is the
// small segments frequent seals leave, partly merged after one
// compaction step, or fully compacted.
func TestQueryEquivalenceAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := archive.Open(dir, archive.Options{SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 39; i++ {
		r := rec(uint64(i), uint64(1000+i), i, i+2, "common", fmt.Sprintf("kw-%d", i%6))
		r.PeakRank = float64(i%10) / 2
		if i%7 == 0 {
			r.Keywords, r.AllKeywords = nil, nil
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with merge-friendly bounds so compaction has runs to merge.
	opt := archive.Options{SegmentEvents: 16, BucketQuanta: 1 << 20, BlockEvents: 4}
	l, err = archive.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	requests := []Request{
		{To: -1},
		{To: -1, Keywords: []string{"kw-2"}},
		{To: -1, Keywords: []string{"common", "kw-4"}},
		{From: 5, To: 9},
		{To: -1, MinRank: 3},
		{To: -1, Limit: 7}, // cursor-walked below
	}
	baseline := make([][]string, len(requests))
	for i, req := range requests {
		baseline[i] = collectPages(t, l, req)
	}

	check := func(label string) {
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

	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	check("partly merged")

	if _, err := l.CompactAll(); err != nil {
		t.Fatal(err)
	}
	check("fully compacted")

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
