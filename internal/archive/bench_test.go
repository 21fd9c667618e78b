package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildBenchDir fills dir with 4096 records, 16 quanta per keyword
// group, sealed into 512-record segments — the same shape the
// query-engine benchmarks use, so numbers compare across layers.
func buildBenchDir(b *testing.B, dir string) {
	b.Helper()
	l, err := Open(dir, Options{SegmentEvents: 512, BucketQuanta: 1 << 20})
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
			if err := l.Append(rec(seq, q, q, kws...)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchLog opens a freshly built bench directory.
func benchLog(b *testing.B) *Log {
	b.Helper()
	dir := b.TempDir()
	buildBenchDir(b, dir)
	l, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	return l
}

func scanAll(b *testing.B, l *Log, pred Pred) (records int, bs BlockStats) {
	b.Helper()
	for _, v := range l.Segments() {
		if v.MaxQuantum < pred.From || (pred.To >= 0 && v.MinQuantum > pred.To) {
			continue
		}
		st, _, err := v.ScanPred(pred, func(r *Record) error {
			records++
			_ = r.Keywords
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		bs.Blocks += st.Blocks
		bs.Scanned += st.Scanned
	}
	return records, bs
}

// BenchmarkArchiveScan is the storage-layer half of the columnar
// story: fullscan-v2 is the decode speed and allocation of a whole-
// history scan; zonemap-hit-v2 shows predicate pushdown reading only
// the blocks a narrow time range touches.
func BenchmarkArchiveScan(b *testing.B) {
	cases := []struct {
		name string
		pred Pred
		want int // records the scan must hand out (0 = unchecked)
	}{
		{"fullscan-v2", Pred{To: -1}, 4096},
		{"zonemap-hit-v2", Pred{From: 2048, To: 2079}, 0},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			l := benchLog(b)
			b.ReportAllocs()
			b.ResetTimer()
			var records, scanned, blocks float64
			for i := 0; i < b.N; i++ {
				n, bs := scanAll(b, l, c.pred)
				if c.want > 0 && n != c.want {
					b.Fatalf("scan yielded %d records, want %d", n, c.want)
				}
				records += float64(n)
				scanned += float64(bs.Scanned)
				blocks += float64(bs.Blocks)
			}
			b.ReportMetric(records/float64(b.N), "records/op")
			if blocks > 0 {
				b.ReportMetric(blocks/float64(b.N), "blocks/op")
				b.ReportMetric(scanned/float64(b.N), "blkscanned/op")
			}
		})
	}
}

// BenchmarkArchiveFootprint reports the on-disk size of 4096 events as
// a columnar body of full segments (segment files, bytes). The work loop is
// trivial — the metric is the result.
func BenchmarkArchiveFootprint(b *testing.B) {
	size := func(l *Log) float64 {
		dir := filepath.Dir(l.colPath(1))
		var total int64
		entries, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				b.Fatal(err)
			}
			total += info.Size()
		}
		return float64(total)
	}
	v2 := size(benchLog(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = i
	}
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(v2, "v2_bytes")
}
