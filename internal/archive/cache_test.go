package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"

	"repro/internal/jsonw"
)

// cachedSegments seals n records into segments of segEvents records in
// blocks of blockEvents.
func cachedSegments(t testing.TB, n, segEvents, blockEvents int) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), Options{SegmentEvents: segEvents, BucketQuanta: 1 << 20, BlockEvents: blockEvents})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i := uint64(1); i <= uint64(n); i++ {
		if err := l.Append(rec(i, int(i), int(i)+2, "kw", fmt.Sprintf("kw-%d", i%7))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// residentWithin checks the cache against its budget: at most the
// budget, or one block over it when that block is all it holds.
func residentWithin(t *testing.T, c *blockCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resident > c.budget && len(c.entries) > 1 {
		t.Fatalf("%d entries hold %d bytes under a %d-byte budget", len(c.entries), c.resident, c.budget)
	}
}

// TestBlockCacheBudget: the cache holds its budget (plus at most one
// block), pushes out the least recently used block first, counts what
// it does per Log, and Quarantine takes the quarantined segment's
// blocks out with it.
func TestBlockCacheBudget(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		var read []*Block // eight blocks of eight records, cached nowhere
		var enc blockEncoder
		for i := uint64(0); i < 8; i++ {
			var recs []Record
			for j := uint64(1); j <= 8; j++ {
				recs = append(recs, rec(8*i+j, 0, 1, "kw"))
			}
			payload, _, err := enc.encode(recs)
			if err != nil {
				t.Fatal(err)
			}
			b := new(Block)
			if err := decodeBlock(payload, b); err != nil {
				t.Fatal(err)
			}
			read = append(read, b)
		}
		c, owner := newBlockCache(0), &cacheCounters{}
		size := read[0].size()
		c.budget = 3*size + size/2 // three blocks of these, not four
		for i, b := range read[:3] {
			if c.add(blockKey{log: 1, block: i}, b, owner) != b {
				t.Fatal("add handed back another block")
			}
		}
		c.get(blockKey{log: 1, block: 0}) // 1 is now the least recently used
		c.add(blockKey{log: 1, block: 3}, read[3], owner)
		if c.get(blockKey{log: 1, block: 1}) != nil || c.get(blockKey{log: 1, block: 0}) == nil {
			t.Fatal("the cache evicted a block other than the least recently used")
		}
		if owner.evictions.Load() != 1 || owner.resident.Load() != c.resident || c.resident > c.budget {
			t.Fatalf("%d evictions, %d of %d resident bytes counted; want 1 and all, within %d",
				owner.evictions.Load(), owner.resident.Load(), c.resident, c.budget)
		}
		// A concurrent miss caching the same block again gets the first.
		if c.add(blockKey{log: 1, block: 3}, read[4], owner) != read[3] {
			t.Fatal("a second add of one key replaced the cached block")
		}
		// A block larger than the whole budget stays, alone.
		c.budget = size / 2
		c.add(blockKey{log: 1, block: 5}, read[5], owner)
		if len(c.entries) != 1 || c.get(blockKey{log: 1, block: 5}) == nil {
			t.Fatalf("%d entries after an oversized block; want it alone", len(c.entries))
		}
	})

	t.Run("scans", func(t *testing.T) {
		l := cachedSegments(t, 512, 128, 16) // four segments of eight blocks
		var one int64
		views := l.Segments()
		views[0].ScanBlocks(Pred{To: -1}, func(b *Block) error {
			// Rendering the rows charges them to the block's entry.
			before := l.BlockCacheStats().ResidentBytes
			rows := len(b.RowJSON(0))
			if after := l.BlockCacheStats().ResidentBytes; after < before+int64(rows) {
				t.Fatalf("rendering %d bytes of rows took resident bytes from %d to %d", rows, before, after)
			}
			one = max(one, b.size())
			return ErrStop
		})
		defer SetBlockCacheBudgetForTesting(5 * one)()
		for pass := 0; pass < 2; pass++ {
			for _, v := range l.Segments() {
				if _, _, err := v.ScanBlocks(Pred{To: -1}, func(b *Block) error {
					b.RowJSON(0) // rendering charges the entry
					residentWithin(t, blocks)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := l.BlockCacheStats()
		if st.Evictions == 0 || st.Misses < 32 || st.ResidentBytes <= 0 || st.ResidentBytes > 6*one {
			t.Fatalf("stats %+v under a budget of %d bytes", st, 5*one)
		}
	})

	t.Run("quarantine", func(t *testing.T) {
		l := cachedSegments(t, 64, 32, 8) // two segments of four blocks
		views := l.Segments()
		for _, v := range views {
			if _, _, err := v.ScanBlocks(Pred{To: -1}, func(*Block) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		before := l.BlockCacheStats().ResidentBytes
		if !views[0].Quarantine() {
			t.Fatal("quarantine refused a sealed segment")
		}
		for i := range views[0].zones {
			if blocks.get(blockKey{log: l.id, seg: views[0].FirstSeq, block: i}) != nil {
				t.Fatalf("block %d of the quarantined segment is still cached", i)
			}
		}
		if blocks.get(blockKey{log: l.id, seg: views[1].FirstSeq}) == nil {
			t.Fatal("quarantine dropped another segment's blocks")
		}
		if after := l.BlockCacheStats().ResidentBytes; after <= 0 || after >= before {
			t.Fatalf("resident bytes %d → %d across the quarantine", before, after)
		}
		// Close drops the rest.
		l.Close()
		if got := l.BlockCacheStats().ResidentBytes; got != 0 {
			t.Fatalf("%d bytes resident after Close", got)
		}
	})
}

// TestCachedBlocksSharedUnderRace runs full scans and keyword scans
// over shared cached blocks — rendering rows, materialising Records —
// while the Log seals new segments and quarantines old ones, under a
// budget small enough that blocks come and go all the time. Every row
// read must be the one its Record says. Run it with -race.
func TestCachedBlocksSharedUnderRace(t *testing.T) {
	l := cachedSegments(t, 256, 32, 8)
	var one int64
	l.Segments()[0].ScanBlocks(Pred{To: -1}, func(b *Block) error { one = b.size(); return nil })
	defer SetBlockCacheBudgetForTesting(12 * one)()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	scan := func(pred Pred) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range l.Segments() {
				if !v.Sealed {
					continue
				}
				_, _, err := v.ScanBlocks(pred, func(b *Block) error {
					for i := 0; i < b.Len(); i++ {
						rec := b.Record(i)
						var want bytes.Buffer
						jw := jsonw.Body(&want)
						EncodeQueryEvent(jw, &rec)
						jw.Close()
						if got := b.RowJSON(i); !bytes.Equal(append(got[:len(got):len(got)], '\n'), want.Bytes()) {
							return fmt.Errorf("row %d of seq %d renders %s, its Record %s", i, rec.Seq, got, want.Bytes())
						}
					}
					return nil
				})
				// A segment quarantined mid-scan is renamed aside: a miss
				// on it may find no file, which is not a wrong row.
				if err != nil && !isNotExist(err) {
					errs <- err
					return
				}
			}
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go scan(Pred{To: -1})
		go scan(Pred{To: -1, Keywords: []string{"kw-3"}})
	}
	for i := uint64(257); i <= 512; i++ {
		if err := l.Append(rec(i, int(i), int(i)+2, "kw", fmt.Sprintf("kw-%d", i%7))); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			if v := l.Segments(); !v[0].Quarantine() {
				t.Fatal("quarantine refused the oldest segment")
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := l.BlockCacheStats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("stats %+v: the scans never shared a block or never evicted one", st)
	}
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
