// Epoch snapshots: after every quantum the detector can materialize a
// compact, immutable view of its queryable state. Serving layers publish
// the view through an atomic pointer so queries (top-k, history, single
// event, related pairs, keyword filter) are wait-free against the latest
// epoch instead of contending on the detector lock with ingest.
//
// The snapshot is built by structural sharing, so the per-quantum build
// costs one struct copy per live event plus whatever finished, however
// much history is retained. Everything an Event points at is immutable
// once a snapshot can see it:
//
//   - Keywords and users are replaced, never written in place, when
//     reconciliation recomputes a dirty cluster; AllKeywords is
//     copy-on-write. A view shares all three with the detector's event
//     and with every epoch since they last changed.
//   - RankHistory is append-only. A view holds hist[:n:n] of the
//     detector's array: later appends write at index n or beyond, or
//     into a fresh array, never into what the view can read, and the
//     capped capacity keeps a reader's own append off the shared array.
//   - A finished event is never written after it retires, and the
//     detector's finished list only grows past its length or moves to a
//     fresh array on a trim, so every epoch shares that list itself,
//     capacity-clipped, in eviction order.
//
// What no epoch may need — the ID order of the finished events, the
// related-pair list and the query engine's time and keyword-history
// indexes — is built lazily from the views on the first read.
package detect

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// byIDAsc orders snapshot views by event ID without sort.Slice's
// closure/reflection cost — this runs on the per-quantum apply path.
func byIDAsc(a, b *Event) int {
	if a.ID < b.ID {
		return -1
	}
	if a.ID > b.ID {
		return 1
	}
	return 0
}

// snapshotCounters count the sharing the epoch builder achieved; atomic
// because a metrics scrape reads them while ingest applies quanta.
type snapshotCounters struct {
	viewsReused   atomic.Uint64
	viewsRebuilt  atomic.Uint64
	relatedBuilds atomic.Uint64
}

// SnapshotCounters reports, over the detector's lifetime: live views
// published for clean clusters (everything but the header shared with
// the previous epoch), live views published for new or dirty clusters
// (fresh user community, possibly fresh keywords), and related-pair
// lists a reader actually demanded. Unlike every other Detector method
// it is safe to call concurrently with ingest.
func (d *Detector) SnapshotCounters() (viewsReused, viewsRebuilt, relatedBuilds uint64) {
	c := &d.snapCounters
	return c.viewsReused.Load(), c.viewsRebuilt.Load(), c.relatedBuilds.Load()
}

// Snapshot is an immutable view of the detector at one quantum boundary.
// Callers may read every reachable *Event from any goroutine for as long
// as they like, but must not mutate it or anything it points at: the
// views share their slices and maps with other epochs and with the
// detector (see the file comment).
type Snapshot struct {
	// Quantum is the epoch: the index of the last processed quantum.
	Quantum int
	// AKGNodes / AKGEdges size the active graph at the epoch boundary.
	AKGNodes int
	AKGEdges int

	fin      []*Event // finished events, eviction order (the detector's list)
	live     []*Event // live events, rank-descending (ties: ID)
	liveByID []*Event // the same live views, ID ascending

	// The finished events by ID ascending, for Find and AllEvents.
	finByIDOnce sync.Once
	finByID     []*Event

	// Live reported pairs, overlap-descending, built lazily from the
	// views' user communities on the first /related read: most epochs
	// are never asked, and the SSE payload does not carry the list.
	relatedOnce sync.Once
	related     []RelatedPair
	counters    *snapshotCounters

	// Retained-event indexes for the unified query engine, also built
	// lazily from the immutable views: byLast orders every retained
	// event (live + finished) by (LastQuantum, ID) — the engine's
	// deterministic merge order — and allKw inverts the full keyword
	// history the same way the archive's Bloom filters do, so a query
	// matches identically whether an event is still retained or already
	// evicted.
	rangeOnce sync.Once
	byLast    []*Event
	allKwOnce sync.Once
	allKw     map[string][]*Event
}

// finishedByID builds (once, thread-safely) the ID order of the
// finished events.
func (s *Snapshot) finishedByID() []*Event {
	s.finByIDOnce.Do(func() {
		s.finByID = slices.SortedFunc(slices.Values(s.fin), byIDAsc)
	})
	return s.finByID
}

// AllEvents returns every retained event in birth (ID) order, merged on
// demand from the finished events and the live overlay (a live event can
// be older than a finished one, so this is a two-way merge). The result
// is freshly allocated; the events it points at are snapshot-owned and
// read-only.
func (s *Snapshot) AllEvents() []*Event {
	fin := s.finishedByID()
	out := make([]*Event, 0, len(fin)+len(s.liveByID))
	i, j := 0, 0
	for i < len(fin) && j < len(s.liveByID) {
		if fin[i].ID < s.liveByID[j].ID {
			out = append(out, fin[i])
			i++
		} else {
			out = append(out, s.liveByID[j])
			j++
		}
	}
	out = append(out, fin[i:]...)
	out = append(out, s.liveByID[j:]...)
	return out
}

// TopK returns the k highest-ranked live reported events (k ≤ 0 = all).
func (s *Snapshot) TopK(k int) []*Event { return s.TopKKeyword(k, "") }

// Find returns the retained event with the given ID, or nil — a binary
// search of the finished events, then of the live overlay.
func (s *Snapshot) Find(id uint64) *Event {
	if ev := findByID(s.finishedByID(), id); ev != nil {
		return ev
	}
	return findByID(s.liveByID, id)
}

func findByID(sorted []*Event, id uint64) *Event {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].ID >= id })
	if i < len(sorted) && sorted[i].ID == id {
		return sorted[i]
	}
	return nil
}

// LiveCount returns the number of live events (reported or not).
func (s *Snapshot) LiveCount() int { return len(s.live) }

// TotalCount returns the number of retained events (live + finished).
func (s *Snapshot) TotalCount() int { return len(s.fin) + len(s.live) }

// relatedPairs builds (once, thread-safely) every live reported pair
// with its overlap, from the views alone.
func (s *Snapshot) relatedPairs() []RelatedPair {
	s.relatedOnce.Do(func() {
		reported := make([]*Event, 0, len(s.liveByID))
		for _, ev := range s.liveByID {
			if ev.Reported {
				reported = append(reported, ev)
			}
		}
		s.related = relatedPairs(reported)
		s.counters.relatedBuilds.Add(1)
	})
	return s.related
}

// Related returns the live reported event pairs with user-community
// overlap ≥ minOverlap as of the epoch boundary: a filter of the lazily
// built overlap-descending list, so reads never wait on ingest. Never
// nil.
func (s *Snapshot) Related(minOverlap float64) []RelatedPair {
	related := s.relatedPairs()
	out := make([]RelatedPair, 0, len(related))
	for _, p := range related {
		if p.UserJaccard >= minOverlap {
			out = append(out, p)
		}
	}
	return out
}

// byLastAsc orders snapshot views by (LastQuantum, ID) — the unified
// query engine's deterministic merge order.
func byLastAsc(a, b *Event) int {
	if a.LastQuantum != b.LastQuantum {
		if a.LastQuantum < b.LastQuantum {
			return -1
		}
		return 1
	}
	return byIDAsc(a, b)
}

// rangeIndex builds (once, thread-safely) the (LastQuantum, ID)-ordered
// view of every retained event, live and finished alike.
func (s *Snapshot) rangeIndex() []*Event {
	s.rangeOnce.Do(func() {
		all := make([]*Event, 0, len(s.fin)+len(s.liveByID))
		all = append(all, s.fin...)
		all = append(all, s.liveByID...)
		slices.SortFunc(all, byLastAsc)
		s.byLast = all
	})
	return s.byLast
}

// EventsSinceQuantum returns every retained event (live + finished)
// whose LastQuantum is at least from, ordered by (LastQuantum, ID)
// ascending — the suffix of the retained-event time index a range query
// starts from. The slice is shared with the snapshot: read-only.
func (s *Snapshot) EventsSinceQuantum(from int) []*Event {
	idx := s.rangeIndex()
	i := sort.Search(len(idx), func(i int) bool { return idx[i].LastQuantum >= from })
	return idx[i:]
}

// keywordHistoryIndex builds (once, thread-safely) the inverted index
// over retained events' full keyword history: KeywordHistory when
// recorded, else the current Keywords — the query engine's one keyword
// rule, so the candidates it is handed are the events the rule admits.
func (s *Snapshot) keywordHistoryIndex() map[string][]*Event {
	s.allKwOnce.Do(func() {
		m := make(map[string][]*Event)
		// rangeIndex is (LastQuantum, ID)-ordered, so each keyword's
		// list inherits that order without a per-list sort.
		for _, ev := range s.rangeIndex() {
			kws := ev.KeywordHistory()
			if len(kws) == 0 {
				kws = ev.Keywords
			}
			for _, kw := range kws {
				m[kw] = append(m[kw], ev)
			}
		}
		s.allKw = m
	})
	return s.allKw
}

// EventsWithKeyword returns the retained events (live + finished) whose
// keyword history contains kw, ordered by (LastQuantum, ID) ascending.
// The slice is shared with the snapshot: read-only.
func (s *Snapshot) EventsWithKeyword(kw string) []*Event {
	return s.keywordHistoryIndex()[kw]
}

// TopKKeyword is TopK restricted to events whose current keyword set
// contains kw (kw "" admits every event): a filter of the same
// rank-ordered live view, in one allocation. Never nil.
func (s *Snapshot) TopKKeyword(k int, kw string) []*Event {
	n := len(s.live)
	if k > 0 {
		n = min(n, k)
	}
	out := make([]*Event, 0, n)
	for _, ev := range s.live {
		if !ev.Reported || kw != "" && !slices.Contains(ev.Keywords, kw) {
			continue
		}
		out = append(out, ev)
		if len(out) == k {
			break
		}
	}
	return out
}

// Snapshot materializes the immutable epoch view of the detector's
// queryable state. res, when non-nil, is the QuantumResult that closed
// the epoch, whose carried and recomputed counts feed SnapshotCounters
// (pass nil after a restore or a trim, where no quantum closed). Like
// every other Detector method it must not race with ingest: callers
// serialise it on whichever goroutine applies quanta.
func (d *Detector) Snapshot(res *QuantumResult) *Snapshot {
	s := &Snapshot{
		Quantum:  d.akg.Quantum(),
		AKGNodes: d.akg.NodeCount(),
		AKGEdges: d.akg.EdgeCount(),
		fin:      slices.Clip(d.finished),
		counters: &d.snapCounters,
	}
	if res != nil {
		d.snapCounters.viewsReused.Add(uint64(res.Carried))
		d.snapCounters.viewsRebuilt.Add(uint64(res.Recomputed))
	}

	// One header copy per live event, carved from one allocation; the
	// two orderings of the overlay are by ID for history merges and
	// lookups, by rank for the top-k view.
	views := make([]Event, len(d.events))
	liveByID := make([]*Event, 0, len(d.events))
	for _, ev := range d.events { //repro:order-insensitive one header copy per event into its own slot; liveByID is sorted by ID before use
		v := &views[len(liveByID)]
		*v = *ev
		v.RankHistory = slices.Clip(ev.RankHistory)
		liveByID = append(liveByID, v)
	}
	slices.SortFunc(liveByID, byIDAsc)
	live := slices.Clone(liveByID)
	slices.SortFunc(live, func(a, b *Event) int {
		if a.Rank != b.Rank {
			if a.Rank > b.Rank {
				return -1
			}
			return 1
		}
		return byIDAsc(a, b)
	})
	s.live, s.liveByID = live, liveByID
	return s
}
