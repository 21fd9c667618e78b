package query

import (
	"fmt"
	"testing"

	"repro/internal/archive"
	"repro/internal/detect"
)

// buildBenchArchive fills dir with 4096 records sealed into segments of
// 512, in 256 keyword groups of 16 quanta each, with one rare keyword
// confined to a handful of groups — enough structure for every planner
// path (time skip, Bloom skip, limit pushdown) to show up in the
// numbers.
func buildBenchArchive(b *testing.B, dir string) {
	b.Helper()
	l, err := archive.Open(dir, archive.Options{SegmentEvents: 512, BucketQuanta: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	seq := uint64(0)
	for s := 0; s < 256; s++ {
		for i := 0; i < 16; i++ {
			seq++
			q := s*16 + i
			kws := []string{"common", fmt.Sprintf("seg-%d", s)}
			if s%64 == 0 && i == 0 {
				kws = append(kws, "rare")
			}
			appendAll(b, l, rec(seq, seq, q, q, kws...))
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchArchive opens a freshly built bench archive.
func benchArchive(b *testing.B) *archive.Log {
	b.Helper()
	dir := b.TempDir()
	buildBenchArchive(b, dir)
	l, err := archive.Open(dir, archive.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

// benchSnap is a 64-event live overlay above the archive's quantum
// range, so the merge path runs in every case.
func benchSnap() *fakeSnap {
	evs := make([]*detect.Event, 0, 64)
	for i := 0; i < 64; i++ {
		evs = append(evs, view(uint64(10000+i), 4090+i, 4100+i, "common", "live"))
	}
	return newFakeSnap(evs...)
}

// BenchmarkUnifiedQuery measures the executor over a sealed
// 4096-record archive plus a 64-event live overlay. The headline
// comparison: limit10 vs fullscan (LIMIT pushdown must scan strictly
// fewer segments, reported as segscanned/op).
func BenchmarkUnifiedQuery(b *testing.B) {
	cases := []struct {
		name string
		req  Request
	}{
		{"limit10", Request{To: -1, Limit: 10}},
		{"fullscan", Request{To: -1}},
		{"keyword-rare", Request{To: -1, Keywords: []string{"rare"}, Limit: 10}},
		{"timerange", Request{From: 4000, To: 4100, Limit: 100}},
		// Four matches under the server's page ceiling: the cost must
		// follow the matches, not the limit.
		{"keyword-rare-limit10000", Request{To: -1, Keywords: []string{"rare"}, Limit: 10000}},
	}
	arch := benchArchive(b)
	snap := benchSnap()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var segs, scanned, blocks, blkScanned, events float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(snap, arch, c.req)
				if err != nil {
					b.Fatal(err)
				}
				segs += float64(res.Stats.Segments)
				scanned += float64(res.Stats.SegmentsScanned)
				blocks += float64(res.Stats.Blocks)
				blkScanned += float64(res.Stats.BlocksScanned)
				events += float64(len(res.Events))
				res.Release()
			}
			b.ReportMetric(segs/float64(b.N), "segments/op")
			b.ReportMetric(scanned/float64(b.N), "segscanned/op")
			b.ReportMetric(blocks/float64(b.N), "blocks/op")
			b.ReportMetric(blkScanned/float64(b.N), "blkscanned/op")
			b.ReportMetric(events/float64(b.N), "events/op")
		})
	}
}
