package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed histogram resolution: bucket i holds
// observations whose nanosecond value has bit length i — power-of-2
// bounds from 1ns to ~2.3 centuries, so one layout covers every stage
// from a 40ns atomic to a multi-second fsync stall without per-stage
// tuning.
const NumBuckets = 64

// numShards spreads concurrent observers across independent counter
// arrays (selected by the observation's low bits) so parallel ingest
// handlers don't serialize on one cache line. Must be a power of two.
const numShards = 4

// histShard is one shard's counters, padded to cache-line multiples so
// adjacent shards never false-share.
type histShard struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	_       [6]uint64
}

// Histogram is a lock-free log-bucketed latency histogram. The zero
// value is ready to use; embed it by value (no constructor, no
// allocation). Observe is wait-free.
type Histogram struct {
	shards [numShards]histShard
}

// bucketOf maps a nanosecond value to its bucket: the value's bit
// length (0ns → bucket 0), clamped to the top bucket.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns bucket i's inclusive upper bound in nanoseconds
// (2^i - 1; the top bucket is unbounded).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one latency. Negative durations clamp to zero.
// Zero-alloc; safe for any number of concurrent callers.
func (h *Histogram) Observe(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	s := &h.shards[ns&(numShards-1)]
	s.buckets[bucketOf(ns)].Add(1)
	s.count.Add(1)
	s.sum.Add(ns)
}

// HistSnap is a point-in-time copy of a histogram, mergeable across
// tenants or processes. Concurrent observes make the copy slightly
// torn (count/sum/buckets race benignly); the skew is bounded by the
// observes in flight during the read.
type HistSnap struct {
	Count   uint64
	SumNs   uint64
	Buckets [NumBuckets]uint64
}

// Snapshot sums the shards into one portable snapshot.
func (h *Histogram) Snapshot() HistSnap {
	var s HistSnap
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.SumNs += sh.sum.Load()
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
	}
	return s
}
