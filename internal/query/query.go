// Package query is the unified time-travel query engine: one request —
// a quantum range, keyword(s), a rank floor, a limit and an optional
// resume cursor — answered over both live state and history. The
// planner fans the request across the epoch snapshot's keyword index
// and its two ordered runs (events still retained in detector memory)
// and the archive's segment skip-index (events evicted to disk), and
// the executor merges the two source streams into one deterministic
// (LastQuantum, event-ID) ascending order, deduplicating events that
// appear on both sides of the eviction boundary.
//
// LIMIT is pushed down, NeedleTail-style, instead of applied after a
// full scan: candidates feed a bounded max-heap of the limit best
// (smallest-key) events, archive segments are visited in ascending
// MinQuantum order, and the scan stops the moment the heap is full and
// every unvisited segment's quantum floor proves it cannot hold a
// better candidate. Per-request Stats report exactly how much work the
// data skipping and the early exit saved.
//
// Materialisation is late: a page's rows are references — to a
// snapshot event, to a record of the archive's in-memory buffer, or to
// a row of a cached, immutable decoded block — and the filters read
// only the block columns they test, so nothing is copied between the
// scan and the encoder.
//
// Pagination is an opaque cursor encoding the last returned sort key;
// because the order is total and stable across snapshots epochs and
// segment rotations, a resumed scan continues exactly where the
// previous page ended even if events were evicted in between.
package query

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/detect"
	"repro/internal/obs"
)

// Snapshot is the live-source interface, implemented by
// *detect.Snapshot: range and keyword-history index access over the
// retained (live + finished) events, plus the ID probe the executor
// uses to deduplicate events that are both retained and archived.
type Snapshot interface {
	// EventsSinceQuantum returns the retained events with LastQuantum ≥
	// from as two runs, each in (LastQuantum, ID) ascending order and the
	// second's keys above the first's, so their concatenation is too.
	EventsSinceQuantum(from int) (finished, live []*detect.Event)
	// EventsWithKeyword returns retained events whose keyword history
	// contains kw, in (LastQuantum, ID) ascending order.
	EventsWithKeyword(kw string) []*detect.Event
	// Find returns the retained event with the given ID, or nil.
	Find(id uint64) *detect.Event
}

// Archive is the history-source interface, implemented by
// *archive.Log: a point-in-time list of segment views with index
// bounds for skipping and a record iterator for scanning.
type Archive interface {
	Segments() []archive.SegmentView
}

// Request is one unified query.
type Request struct {
	// From and To bound the quantum range (inclusive); an event matches
	// when its [BornQuantum, LastQuantum] span intersects [From, To].
	// To < 0 means unbounded.
	From, To int
	// Keywords, when non-empty, requires every listed keyword in the
	// event's keyword history (AllKeywords when recorded, else the
	// current Keywords) — AND semantics.
	Keywords []string
	// MinRank, when positive, keeps only events whose PeakRank reached
	// at least this value.
	MinRank float64
	// Limit caps the page size; 0 means unlimited (callers exposing the
	// engine over HTTP clamp this server-side). Negative is an error.
	Limit int
	// Cursor resumes a previous scan: the opaque Result.Cursor value.
	Cursor string

	// Trace, when non-nil, receives plan/snapshot-scan/archive-scan
	// spans with per-source stats annotations; Obs, when non-nil,
	// receives the same boundaries as stage-histogram observations.
	// Both are nil-safe and default off — plain queries pay nothing.
	Trace *obs.ReqTrace
	Obs   *obs.TenantObs
}

// Stats reports the work one request did and, more importantly, the
// work it proved it could skip.
type Stats struct {
	// SnapshotHits / ArchiveHits count matching events found per source
	// (before the limit trims the merged page).
	SnapshotHits int `json:"snapshot_hits"`
	ArchiveHits  int `json:"archive_hits"`
	// Deduped counts archive records dropped because the same event was
	// still retained in the snapshot (it straddled the eviction boundary
	// between the epoch publish and the scan).
	Deduped int `json:"deduped,omitempty"`
	// Segments is the number of archive segments considered;
	// SegmentsScanned the number actually read. The difference is
	// itemised by the Skipped* counters.
	Segments        int `json:"segments"`
	SegmentsScanned int `json:"segments_scanned"`
	SkippedByTime   int `json:"skipped_by_time"`
	SkippedByBloom  int `json:"skipped_by_bloom"`
	SkippedByCursor int `json:"skipped_by_cursor"`
	// SkippedByLimit counts segments never visited because the merged
	// heap held Limit candidates all provably better than anything the
	// remaining segments could contain — the LIMIT pushdown.
	SkippedByLimit int `json:"skipped_by_limit"`
	// SkippedByRank counts segments pruned because the segment's rank
	// bound proves no record reaches the requested MinRank.
	SkippedByRank int `json:"skipped_by_rank,omitempty"`
	// Blocks counts the blocks covered by the scanned segments (the
	// archive's in-memory buffer counts as one); BlocksScanned the
	// blocks actually decoded. The difference is itemised by the
	// BlocksSkippedBy* counters — the zone-map pushdown working below
	// segment granularity.
	Blocks                 int `json:"blocks,omitempty"`
	BlocksScanned          int `json:"blocks_scanned,omitempty"`
	BlocksSkippedByTime    int `json:"blocks_skipped_by_time,omitempty"`
	BlocksSkippedByRank    int `json:"blocks_skipped_by_rank,omitempty"`
	BlocksSkippedByKeyword int `json:"blocks_skipped_by_keyword,omitempty"`
	// RecordsScanned counts archive records decoded.
	RecordsScanned int `json:"records_scanned"`
	// Truncated marks a partial scan: matching events beyond this page
	// may exist (follow Cursor), and the counters above describe only
	// the work done before the scan stopped.
	Truncated bool `json:"truncated"`
	// Degraded flags that the scan hit corruption in a sealed archive
	// segment: the segment was quarantined (SegmentsQuarantined counts
	// the ones this request set aside) and the results may be missing
	// its history. Records the scan CRC-verified before the damage are
	// still served.
	Degraded            bool `json:"degraded,omitempty"`
	SegmentsQuarantined int  `json:"segments_quarantined,omitempty"`
	// EarlyExit names why the scan ended before exhausting the sources:
	// "limit" (pushdown stop), "empty-range", or "" (ran to the end).
	EarlyExit string `json:"early_exit,omitempty"`
}

// Result is one page of events in (LastQuantum, ID) ascending order.
// Each Row stands for the same archive.Record whether the event was
// read from the archive or is one the snapshot still retains
// (archive.RecordOf). Cursor, when non-empty, resumes the scan after the
// last event here.
type Result struct {
	Events []Row
	Stats  Stats
	Cursor string
}

// key is the engine's total order: (LastQuantum, event ID). IDs are
// unique, so the order is strict and cursor resumption is exact.
type key struct {
	q  int
	id uint64
}

func (k key) less(o key) bool {
	return k.q < o.q || (k.q == o.q && k.id < o.id)
}

// cmp is the three-way form of less, for sorting.
func (k key) cmp(o key) int {
	if k.q != o.q {
		return cmp.Compare(k.q, o.q)
	}
	return cmp.Compare(k.id, o.id)
}

// Run executes one unified query. snap and arch may each be nil (the
// corresponding source is skipped). The only errors are source scan
// failures and malformed requests (ErrBadCursor, negative limit).
func Run(snap Snapshot, arch Archive, req Request) (Result, error) {
	// clk gates every instrumentation time read on telemetry actually
	// being attached, keeping the plain path time-read free.
	instrumented := req.Trace != nil || req.Obs != nil
	var mark time.Time
	clk := func(stage obs.Stage) {
		if !instrumented {
			return
		}
		now := time.Now() //repro:wallclock-exempt optional instrumentation clock, gated on telemetry being attached; replay output unaffected
		if !mark.IsZero() {
			req.Obs.Observe(stage, now.Sub(mark))
		}
		mark = now
	}
	req.Trace.Step("plan")
	clk(0) // set the mark; no stage closes at the start

	res := Result{Events: []Row{}}
	if req.Limit < 0 {
		return res, fmt.Errorf("query: negative limit %d", req.Limit)
	}
	cur, hasCur, err := decodeCursor(req.Cursor)
	if err != nil {
		return res, err
	}
	from, to := req.From, req.To
	if from < 0 {
		from = 0
	}
	if to < 0 {
		to = math.MaxInt
	}
	if from > to {
		res.Stats.EarlyExit = "empty-range"
		return res, nil
	}
	// floor is the smallest LastQuantum that can still matter: range
	// start, tightened by the cursor (sort keys below cur.q are all ≤
	// the cursor and already served).
	floor := from
	if hasCur && cur.q > floor {
		floor = cur.q
	}

	s := &scan{req: req, from: from, to: to, cur: cur, hasCur: hasCur, p: newPool(req.Limit), st: &res.Stats}
	trunc := false
	clk(obs.StageQueryPlan)

	if snap != nil {
		req.Trace.Step("snapshot_scan")
		trunc = s.snapshot(snap, floor) || trunc
		clk(obs.StageQuerySnapshotScan)
		if req.Trace != nil {
			req.Trace.Annotate(fmt.Sprintf("hits=%d", res.Stats.SnapshotHits))
		}
	}
	if arch != nil {
		req.Trace.Step("archive_scan")
		t, err := s.archive(arch, snap)
		clk(obs.StageQueryArchiveScan)
		if req.Trace != nil {
			req.Trace.Annotate(fmt.Sprintf("hits=%d segments=%d/%d blocks=%d/%d records=%d",
				res.Stats.ArchiveHits, res.Stats.SegmentsScanned, res.Stats.Segments,
				res.Stats.BlocksScanned, res.Stats.Blocks, res.Stats.RecordsScanned))
		}
		if err != nil {
			return res, err
		}
		trunc = t || trunc
	}

	res.Events = s.p.ascending()
	res.Stats.Truncated = trunc || s.p.overflowed
	if res.Stats.Truncated && len(res.Events) > 0 {
		res.Cursor = encodeCursor(res.Events[len(res.Events)-1].k)
	}
	return res, nil
}

// scan is one request's execution: its bounds, the cursor, the pool the
// sources feed and the stats they count into.
type scan struct {
	req      Request
	from, to int
	cur      key
	hasCur   bool
	p        *pool
	st       *Stats
	kwIDs    []uint32 // the requested keywords in the current block's dictionary
}

// admits applies the range, cursor and rank filters — every rule but
// the keyword one — to a candidate and returns its key.
func (s *scan) admits(born, last int, id uint64, peakRank float64) (key, bool) {
	k := key{q: last, id: id}
	return k, born <= s.to && last >= s.from &&
		(!s.hasCur || s.cur.less(k)) &&
		(s.req.MinRank <= 0 || peakRank >= s.req.MinRank)
}

// snapshot feeds matching retained events into the pool: the shortest
// keyword posting list (the remaining keywords become filter probes)
// or, with no keywords, the two runs at the floor.
func (s *scan) snapshot(snap Snapshot, floor int) (trunc bool) {
	if len(s.req.Keywords) == 0 {
		fin, live := snap.EventsSinceQuantum(floor)
		return s.retained(fin) || s.retained(live)
	}
	var base []*detect.Event
	for i, kw := range s.req.Keywords {
		l := snap.EventsWithKeyword(kw)
		if i == 0 || len(l) < len(base) {
			base = l
		}
		if len(base) == 0 {
			return false
		}
	}
	i := sort.Search(len(base), func(i int) bool { return base[i].LastQuantum >= floor })
	return s.retained(base[i:])
}

// retained feeds the matching events of one (LastQuantum, ID)-ordered
// run into the pool. Once the pool is full and the next candidate's key
// is worse than the pool's worst, no later candidate — in this run or a
// later one — can improve the page and the scan stops (reported as
// trunc: more matches exist beyond the page).
func (s *scan) retained(run []*detect.Event) (trunc bool) {
	for _, ev := range run {
		k, ok := s.admits(ev.BornQuantum, ev.LastQuantum, ev.ID, ev.PeakRank)
		if !ok || !hasKeywords(ev.KeywordHistory(), ev.Keywords, s.req.Keywords) {
			continue
		}
		if s.p.full() && s.p.worst().less(k) {
			// Sorted source: every later candidate is worse still.
			s.st.EarlyExit = "limit"
			return true
		}
		s.st.SnapshotHits++
		s.p.add(Row{Event: ev, k: k})
	}
	return false
}

// archive plans over the segment indexes and scans the survivors
// in ascending MinQuantum order — the order that lets a full pool prove
// every remaining segment irrelevant (any record in a segment has
// LastQuantum ≥ its BornQuantum ≥ the segment's MinQuantum, so the
// segment's smallest possible sort key is (MinQuantum, 0)).
func (s *scan) archive(arch Archive, dedup Snapshot) (trunc bool, err error) {
	req, st, from, to := s.req, s.st, s.from, s.to
	// timed gates the block-scan stage clock on telemetry being
	// attached, like Run's clk.
	timed := req.Trace != nil || req.Obs != nil
	var colDur time.Duration
	segs := arch.Segments()
	st.Segments = len(segs)
	slices.SortStableFunc(segs, func(a, b archive.SegmentView) int {
		if a.MinQuantum != b.MinQuantum {
			return a.MinQuantum - b.MinQuantum
		}
		switch { // deterministic tie-break on the (unique) ordinal range
		case a.FirstSeq < b.FirstSeq:
			return -1
		case a.FirstSeq > b.FirstSeq:
			return 1
		}
		return 0
	})
	for i := range segs {
		v := &segs[i]
		if s.p.full() && s.p.worst().less(key{q: v.MinQuantum}) {
			// The pushdown stop: the pool already holds Limit candidates,
			// all with keys below anything this — or, MinQuantum being
			// ascending, any later — segment can contain.
			st.SkippedByLimit += len(segs) - i
			st.EarlyExit = "limit"
			return true, nil
		}
		if v.MaxQuantum < from || v.MinQuantum > to {
			st.SkippedByTime++
			continue
		}
		if s.hasCur && v.MaxQuantum < s.cur.q {
			st.SkippedByCursor++
			continue
		}
		if !segMayContainAll(v, req.Keywords) {
			st.SkippedByBloom++
			continue
		}
		if req.MinRank > 0 && v.MaxPeakRank < req.MinRank {
			st.SkippedByRank++
			continue
		}
		st.SegmentsScanned++
		// The surviving predicate is pushed below segment granularity:
		// the scan skips whole blocks on their zone maps. Block skipping
		// is conservative, so the row-level filters decide every answer.
		var colStart time.Time
		if timed {
			colStart = time.Now() //repro:wallclock-exempt columnar-scan latency telemetry; never feeds query results
		}
		var bs archive.BlockStats
		var err error
		if v.Sealed {
			pred := archive.Pred{From: from, To: to, MinRank: req.MinRank, Keywords: req.Keywords}
			bs, _, err = v.ScanBlocks(pred, func(b *archive.Block) error {
				s.block(b, dedup)
				return nil
			})
		} else {
			bs = s.buffer(v.Records(), dedup)
		}
		st.RecordsScanned += bs.Records
		st.Blocks += bs.Blocks
		st.BlocksScanned += bs.Scanned
		st.BlocksSkippedByTime += bs.SkippedByTime
		st.BlocksSkippedByRank += bs.SkippedByRank
		st.BlocksSkippedByKeyword += bs.SkippedByKeyword
		if timed {
			colDur += time.Since(colStart) //repro:wallclock-exempt columnar-scan latency telemetry; never feeds query results
		}
		if err != nil {
			if errors.Is(err, archive.ErrCorrupt) && v.Sealed {
				// Structural damage in this one segment: set it aside and
				// keep serving the rest of the archive, flagged degraded.
				// A concurrent request may have quarantined it first.
				if v.Quarantine() {
					st.SegmentsQuarantined++
				}
				st.Degraded = true
				continue
			}
			return false, err
		}
	}
	if colDur > 0 {
		req.Obs.Observe(obs.StageArchiveBlockScan, colDur)
	}
	return false, nil
}

// buffer feeds the matching records of the archive's in-memory buffer
// into the pool, by reference, and reports the buffer as one block.
func (s *scan) buffer(recs []archive.Record, dedup Snapshot) archive.BlockStats {
	for i := range recs {
		r := &recs[i]
		if k, ok := s.admits(r.BornQuantum, r.LastQuantum, r.ID, r.PeakRank); ok &&
			hasKeywords(r.AllKeywords, r.Keywords, s.req.Keywords) {
			s.archived(Row{Rec: r, k: k}, dedup)
		}
	}
	return archive.BlockStats{Blocks: 1, Scanned: 1, Records: len(recs)}
}

// block feeds the matching rows of one decoded block into the pool,
// reading only the columns the filters need: each requested keyword is
// looked up once in the block's dictionary, and a block whose
// dictionary lacks one has no row to test.
func (s *scan) block(b *archive.Block, dedup Snapshot) {
	s.kwIDs = s.kwIDs[:0]
	for _, kw := range s.req.Keywords {
		d := slices.Index(b.Dict, kw) // the writer interns: each string once
		if d < 0 {
			return
		}
		s.kwIDs = append(s.kwIDs, uint32(d))
	}
	for i := 0; i < b.Len(); i++ {
		if k, ok := s.admits(b.BornQuantum[i], b.LastQuantum[i], b.ID[i], b.PeakRank[i]); ok &&
			hasKeywords(b.AllKeywords(i), b.Keywords(i), s.kwIDs) {
			s.archived(Row{Block: b, Pos: i, k: k}, dedup)
		}
	}
}

// archived feeds one matching archive row into the pool, unless the
// snapshot still retains its event: evicted after the epoch published,
// the retained copy already represents it (identically — only
// finished, immutable events are ever evicted).
func (s *scan) archived(r Row, dedup Snapshot) {
	if dedup != nil && dedup.Find(r.k.id) != nil {
		s.st.Deduped++
		return
	}
	s.st.ArchiveHits++
	s.p.add(r)
}

func segMayContainAll(v *archive.SegmentView, kws []string) bool {
	for _, kw := range kws {
		if !v.MayContain(kw) {
			return false
		}
	}
	return true
}

// hasKeywords is the engine's keyword rule, the same on both sides of
// the eviction boundary: every requested keyword must appear in the
// event's keyword history, or in its current set when no history was
// recorded. Keywords are strings, or a block's dictionary indexes.
func hasKeywords[T comparable](history, current, kws []T) bool {
	if len(history) == 0 {
		history = current
	}
	for _, kw := range kws {
		if !slices.Contains(history, kw) {
			return false
		}
	}
	return true
}
