package query

import (
	"math/bits"
	"slices"

	"repro/internal/archive"
	"repro/internal/detect"
)

// Row is one event of a page, held by reference until the encoder
// writes it: exactly one of Event (an event the snapshot retains), Rec
// (a record of the archive's in-memory buffer) and Block (with Pos, a
// row of a decoded archive block, shared through the block cache) is
// set. Nothing it points at is copied or may be written.
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

// add offers r (its key set).
func (p *pool) add(r Row) {
	if p.limit <= 0 || len(p.rows) < p.limit {
		p.rows = append(p.rows, r)
		if len(p.rows) == p.limit {
			for i := len(p.rows)/2 - 1; i >= 0; i-- {
				p.siftDown(i)
			}
		}
		return
	}
	p.overflowed = true
	if !r.k.less(p.rows[0].k) {
		return
	}
	p.rows[0] = r // displaces the root
	p.siftDown(0)
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
// returns them, never nil. The pool is consumed; call once. Rows that
// already ascend — a page drawn from one sorted snapshot list, say — are
// returned as they are; others are put in order by sorting plain
// integers and then moving each row once. Keys are unique, so the order
// is the same either way.
func (p *pool) ascending() []Row {
	rows := p.rows
	if len(rows) == 0 {
		return []Row{}
	}
	i := 1
	for i < len(rows) && rows[i-1].k.less(rows[i].k) {
		i++
	}
	if i == len(rows) {
		return rows
	}
	order := keyOrder(rows)
	// Row j takes rows[order[j]]: follow each cycle of the permutation,
	// marking a placed row by pointing its entry at itself.
	for start := range order {
		if order[start] == uint64(start) {
			continue
		}
		held, j := rows[start], uint64(start)
		for order[j] != uint64(start) {
			next := order[j]
			rows[j], order[j] = rows[next], j
			j = next
		}
		rows[j], order[j] = held, j
	}
	return rows
}

// keyOrder returns the indexes of rows in key order. When a row's key,
// less the page's smallest quantum and ID, fits in one integer with
// its index — nearly always: a page spans far fewer than 2³² quanta and
// IDs — the indexes come from sorting those integers; otherwise from
// sorting the indexes by comparing keys.
func keyOrder(rows []Row) []uint64 {
	minQ, maxQ, minID, maxID := rows[0].k.q, rows[0].k.q, rows[0].k.id, rows[0].k.id
	for i := range rows {
		k := rows[i].k
		minQ, maxQ = min(minQ, k.q), max(maxQ, k.q)
		minID, maxID = min(minID, k.id), max(maxID, k.id)
	}
	// Differences in uint64 arithmetic are exact for any two ints.
	qBits := bits.Len64(uint64(maxQ) - uint64(minQ))
	idBits := bits.Len64(maxID - minID)
	ixBits := bits.Len64(uint64(len(rows) - 1))
	order := make([]uint64, len(rows))
	if qBits+idBits+ixBits > 64 {
		for i := range order {
			order[i] = uint64(i)
		}
		slices.SortFunc(order, func(a, b uint64) int { return rows[a].k.cmp(rows[b].k) })
		return order
	}
	for i := range rows {
		k := rows[i].k
		order[i] = (uint64(k.q)-uint64(minQ))<<(idBits+ixBits) | (k.id-minID)<<ixBits | uint64(i)
	}
	slices.Sort(order)
	for i := range order {
		order[i] &= 1<<ixBits - 1
	}
	return order
}
