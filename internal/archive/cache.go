package archive

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// blockCacheBytes is the byte budget of the block cache, shared by every
// Log in the process: enough for the decoded and rendered rows of some
// forty thousand archived events (about 800 bytes each).
const blockCacheBytes = 32 << 20

// blocks is the process-wide cache of verified, decoded sealed blocks,
// least recently used first out. A sealed block never changes, so a
// scan that finds its block here opens no file, checks no CRC and
// decodes nothing, and a block's /query rows, rendered by the first
// query that writes them (Block.RowJSON), serve every later one.
// Entries are Blocks nothing writes again, so eviction only drops the
// cache's reference: a query still holding the block keeps reading it.
var blocks = newBlockCache(blockCacheBytes)

// blockKey names one block of one sealed segment of one Log. Keying by
// the Log's identity rather than its directory means a Log opened anew
// over the same files starts cold: its first scan of each block reads
// and verifies it again.
type blockKey struct {
	log   uint64 // Log.id
	seg   uint64 // the segment's FirstSeq
	block int    // the block's index in the segment
}

// cacheEntry is one cached block, linked into the recency list.
type cacheEntry struct {
	key        blockKey
	b          *Block
	size       int64
	owner      *cacheCounters
	cached     bool // false once evicted or dropped
	prev, next *cacheEntry
}

// cacheCounters are one Log's share of the cache's work.
type cacheCounters struct {
	hits, misses, evictions atomic.Uint64
	resident                atomic.Int64
}

// BlockCacheStats is one Log's view of the block cache: the scans of
// its blocks that hit and missed, how many of its blocks the budget
// pushed out, and the bytes its cached blocks hold.
type BlockCacheStats struct {
	Hits, Misses, Evictions uint64
	ResidentBytes           int64
}

type blockCache struct {
	mu       sync.Mutex
	budget   int64
	resident int64
	entries  map[blockKey]*cacheEntry
	// lru is the recency list's sentinel: lru.next is the most recently
	// used entry, lru.prev the least.
	lru cacheEntry
}

func newBlockCache(budget int64) *blockCache {
	c := &blockCache{budget: budget, entries: make(map[blockKey]*cacheEntry)}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// get returns the cached block under k, marked most recently used, or
// nil.
func (c *blockCache) get(k blockKey) *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e.b
}

// add caches b, just read and verified, under k, and returns the block
// to hand out: b, or the one a concurrent miss on the same block cached
// first. Blocks past the budget leave least recently used first; the
// newest block stays even if it alone exceeds the budget, so the
// resident bytes never exceed the budget plus one block.
func (c *blockCache) add(k blockKey, b *Block, owner *cacheCounters) *Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		return e.b
	}
	e := &cacheEntry{key: k, b: b, size: b.size(), owner: owner, cached: true}
	b.ent = e
	c.entries[k] = e
	c.pushFront(e)
	c.resident += e.size
	owner.resident.Add(e.size)
	c.evict()
	return b
}

// charge adds n bytes, a block's rendered rows, to its entry.
func (c *blockCache) charge(e *cacheEntry, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !e.cached {
		return // evicted before its rows were written: its last holder frees them
	}
	e.size += n
	c.resident += n
	e.owner.resident.Add(n)
	c.evict()
}

// evict drops least recently used entries until the cache fits its
// budget or holds one entry. Caller holds c.mu.
func (c *blockCache) evict() {
	for c.resident > c.budget && len(c.entries) > 1 {
		e := c.lru.prev
		c.remove(e)
		e.owner.evictions.Add(1)
	}
}

// drop removes the entries of blocks [0, n) of segment seg of Log log.
func (c *blockCache) drop(log, seg uint64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < n; i++ {
		if e := c.entries[blockKey{log: log, seg: seg, block: i}]; e != nil {
			c.remove(e)
		}
	}
}

// setBudget replaces the budget, evicting down to it at once, and
// returns the previous one.
func (c *blockCache) setBudget(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.budget
	c.budget = n
	c.evict()
	return old
}

// SetBlockCacheBudgetForTesting sets the block cache's byte budget,
// evicting down to it at once, and returns a func restoring the
// previous budget. It lets tests run scans under a budget so small that
// every scan evicts; nothing else may call it, as the budget is a
// property of the build, not of a deployment.
func SetBlockCacheBudgetForTesting(n int64) (restore func()) {
	old := blocks.setBudget(n)
	return func() { blocks.setBudget(old) }
}

func (c *blockCache) remove(e *cacheEntry) {
	c.unlink(e)
	delete(c.entries, e.key)
	e.cached = false
	c.resident -= e.size
	e.owner.resident.Add(-e.size)
}

func (c *blockCache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *blockCache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// size is the bytes b holds: its struct, columns, dictionary and, once
// rendered, its rows.
func (b *Block) size() int64 {
	n := int64(unsafe.Sizeof(*b)) + int64(unsafe.Sizeof(cacheEntry{}))
	n += 8 * int64(cap(b.Seq)+cap(b.ID)+cap(b.MergedInto)+cap(b.SplitFrom))
	n += 8 * int64(cap(b.BornQuantum)+cap(b.LastQuantum)+cap(b.Size)+cap(b.Support)+cap(b.FirstReported))
	n += 8 * int64(cap(b.Rank)+cap(b.PeakRank))
	n += 4*int64(cap(b.State)+cap(b.kwOff)+cap(b.allOff)) + int64(cap(b.flags))
	n += 4 * int64(cap(b.kwIdx)+cap(b.allIdx))
	n += int64(unsafe.Sizeof(""))*int64(cap(b.Dict)) + int64(b.dictBytes)
	n += int64(cap(b.rows)) + 4*int64(cap(b.rowOff))
	return n
}
