package query

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/archive"
)

// TestDamageAfterCachingCaughtAtNextMiss: a block damaged on disk after
// its first verified read keeps being served from the block cache —
// nothing re-reads it — and is caught as corruption, its segment
// quarantined and the page flagged degraded, at the block's next miss:
// after an eviction, or by a Log opened anew over the directory.
func TestDamageAfterCachingCaughtAtNextMiss(t *testing.T) {
	opt := archive.Options{SegmentEvents: 32, BlockEvents: 8}
	setup := func(t *testing.T) (string, *archive.Log) {
		dir := t.TempDir()
		l, err := archive.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		for i := uint64(1); i <= 64; i++ { // two segments of four blocks
			appendAll(t, l, rec(i, i, int(i), int(i)+1, "kw"))
		}
		if res := fullPage(t, l); len(res.Events) != 64 || res.Stats.Degraded {
			t.Fatalf("%d rows, degraded %v before any damage", len(res.Events), res.Stats.Degraded)
		}
		// Flip a byte of the first segment's first block payload: 41
		// header bytes, then the frame's length and CRC.
		path := filepath.Join(dir, fmt.Sprintf("ev-%020d.col", 1))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[41+8] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
			t.Fatal(err)
		}
		return dir, l
	}
	degraded := func(t *testing.T, l *archive.Log) {
		t.Helper()
		res := fullPage(t, l)
		if len(res.Events) != 32 || !res.Stats.Degraded || res.Stats.SegmentsQuarantined != 1 || l.QuarantinedSegments() != 1 {
			t.Fatalf("%d rows, degraded %v, %d quarantined; want the second segment's 32, degraded, the first quarantined",
				len(res.Events), res.Stats.Degraded, res.Stats.SegmentsQuarantined)
		}
	}

	t.Run("eviction", func(t *testing.T) {
		_, l := setup(t)
		if res := fullPage(t, l); len(res.Events) != 64 || res.Stats.Degraded {
			t.Fatalf("cached blocks: %d rows, degraded %v; want all 64 from the cache", len(res.Events), res.Stats.Degraded)
		}
		// Keeps only the most recently used block, the second segment's
		// last.
		defer archive.SetBlockCacheBudgetForTesting(1)()
		degraded(t, l)
	})
	t.Run("new-log", func(t *testing.T) {
		dir, _ := setup(t)
		l, err := archive.Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		degraded(t, l)
	})
}

func fullPage(t *testing.T, arch Archive) Result {
	t.Helper()
	res, err := Run(nil, arch, Request{To: -1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}
