package query

import (
	"slices"

	"repro/internal/archive"
	"repro/internal/detect"
)

// Row is one event of a page, held by reference until the encoder
// writes it: exactly one of Event (an event the snapshot retains), Rec
// (a record of the archive's in-memory buffer) and Block (with Pos, a
// row of a decoded archive block) is set. Nothing it points at is
// copied or may be written; a Block row is valid until its Result is
// released.
type Row struct {
	Event *detect.Event
	Rec   *archive.Record
	Block *archive.Block
	Pos   int

	k key // the row's sort key, kept for the pool's heap
}

// Record materialises the row as the archive.Record it stands for.
func (r *Row) Record() archive.Record {
	switch {
	case r.Block != nil:
		return r.Block.Record(r.Pos)
	case r.Rec != nil:
		return *r.Rec
	}
	return archive.RecordOf(r.Event)
}

// pool accumulates candidate rows. With a positive limit it becomes,
// once it holds limit rows, a bounded max-heap keyed by the engine's
// (LastQuantum, ID) order — the "merged heap" of the LIMIT pushdown: it
// keeps the limit smallest keys seen so far, its root (the worst kept
// key) is the bar a new candidate must beat, and overflowed records
// that at least one match was displaced, i.e. more matches exist than
// the page holds. Until then, and with limit ≤ 0 throughout, it is a
// plain accumulator sorted at the end.
//
// A row is a reference, so what the heap sifts and the final sort moves
// are small (row, key) values, never the events themselves. The pool
// grows with the matches, never with the limit: a limit=10000 request
// that matches ten events holds ten.
type pool struct {
	limit      int
	rows       []Row // a max-heap by key once it holds limit rows
	overflowed bool
}

func newPool(limit int) *pool { return &pool{limit: limit} }

func (p *pool) full() bool { return p.limit > 0 && len(p.rows) >= p.limit }

// worst returns the largest kept key. Only valid when full().
func (p *pool) worst() key { return p.rows[0].k }

// add offers r (its key set) and reports whether the pool kept it.
func (p *pool) add(r Row) bool {
	if p.limit <= 0 || len(p.rows) < p.limit {
		p.rows = append(p.rows, r)
		if len(p.rows) == p.limit {
			for i := len(p.rows)/2 - 1; i >= 0; i-- {
				p.siftDown(i)
			}
		}
		return true
	}
	p.overflowed = true
	if !r.k.less(p.rows[0].k) {
		return false
	}
	p.rows[0] = r // displaces the root
	p.siftDown(0)
	return true
}

func (p *pool) siftDown(i int) {
	n := len(p.rows)
	for {
		l, r, max := 2*i+1, 2*i+2, i
		if l < n && p.rows[max].k.less(p.rows[l].k) {
			max = l
		}
		if r < n && p.rows[max].k.less(p.rows[r].k) {
			max = r
		}
		if max == i {
			return
		}
		p.rows[i], p.rows[max] = p.rows[max], p.rows[i]
		i = max
	}
}

// ascending sorts the pool's rows in place into key-ascending order and
// returns them, never nil. The pool is consumed; call once.
func (p *pool) ascending() []Row {
	if len(p.rows) == 0 {
		return []Row{}
	}
	slices.SortFunc(p.rows, func(a, b Row) int { return a.k.cmp(b.k) })
	return p.rows
}
