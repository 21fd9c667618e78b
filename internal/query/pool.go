package query

import (
	"slices"

	"repro/internal/archive"
)

// pool accumulates candidate events. With a positive limit it is a
// bounded max-heap keyed by the engine's (LastQuantum, ID) order — the
// "merged heap" of the LIMIT pushdown: it keeps the limit smallest keys
// seen so far, its root (the worst kept key) is the bar a new candidate
// must beat once full, and overflowed records that at least one match
// was displaced, i.e. more matches exist than the page holds. With
// limit ≤ 0 it is a plain accumulator sorted at the end.
//
// The events themselves sit in an append-only side store; what the heap
// sifts and the final sort moves are 24-byte (key, slot) entries. Both
// grow with the matches, never with the limit: a limit=10000 request
// that matches ten events holds ten. The store is a list of fixed-size
// chunks, so growing it never moves (or re-zeroes room for) the events
// already held.
type pool struct {
	limit      int
	chunkCap   int                // min(limit, chunkEvents): a small page needs one small chunk
	chunks     [][]archive.Record // each of capacity chunkCap; all but the last full
	ents       []entry            // max-heap by key when limit > 0
	overflowed bool
}

// chunkEvents sizes a store chunk: ~10 KiB, small enough that a query
// with a handful of matches does not pay much for the slots it leaves
// empty, and a small-object allocation. 58 records of 176 B are
// 10,208 B, which fills the allocator's 10,240 B size class; 64 would
// round up to 12,288 B and waste a tenth of every chunk.
const chunkEvents = 58

// entry orders one candidate: its key and its slot in the store.
type entry struct {
	k key
	i int
}

func (p *pool) slot(i int) *archive.Record { return &p.chunks[i/p.chunkCap][i%p.chunkCap] }

func newPool(limit int) *pool {
	p := &pool{limit: limit, chunkCap: chunkEvents}
	if limit > 0 {
		p.chunkCap = min(limit, chunkEvents)
		p.ents = make([]entry, 0, p.chunkCap)
	}
	return p
}

func (p *pool) full() bool { return p.limit > 0 && len(p.ents) >= p.limit }

// worst returns the largest kept key. Only valid when full().
func (p *pool) worst() key { return p.ents[0].k }

func (p *pool) add(ev archive.Record, k key) {
	if p.limit <= 0 || len(p.ents) < p.limit {
		n := len(p.ents)
		if n%p.chunkCap == 0 {
			p.chunks = append(p.chunks, make([]archive.Record, 0, p.chunkCap))
		}
		last := &p.chunks[len(p.chunks)-1]
		*last = append(*last, ev)
		p.ents = append(p.ents, entry{k: k, i: n})
		if p.limit > 0 {
			p.siftUp(len(p.ents) - 1)
		}
		return
	}
	p.overflowed = true
	if k.less(p.ents[0].k) {
		// The displaced root's slot takes the newcomer.
		*p.slot(p.ents[0].i) = ev
		p.ents[0].k = k
		p.siftDown(0)
	}
}

func (p *pool) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.ents[parent].k.less(p.ents[i].k) {
			return
		}
		p.ents[parent], p.ents[i] = p.ents[i], p.ents[parent]
		i = parent
	}
}

func (p *pool) siftDown(i int) {
	n := len(p.ents)
	for {
		l, r, max := 2*i+1, 2*i+2, i
		if l < n && p.ents[max].k.less(p.ents[l].k) {
			max = l
		}
		if r < n && p.ents[max].k.less(p.ents[r].k) {
			max = r
		}
		if max == i {
			return
		}
		p.ents[i], p.ents[max] = p.ents[max], p.ents[i]
		i = max
	}
}

// ascending drains the pool into key-ascending order. The pool is
// consumed; call once.
func (p *pool) ascending() []archive.Record {
	slices.SortFunc(p.ents, func(a, b entry) int {
		switch {
		case a.k.less(b.k):
			return -1
		case b.k.less(a.k):
			return 1
		}
		return 0
	})
	out := make([]archive.Record, len(p.ents))
	for i, e := range p.ents {
		out[i] = *p.slot(e.i)
	}
	return out
}
