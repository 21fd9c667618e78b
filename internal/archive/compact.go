package archive

import (
	"fmt"
	"math"
)

// The background compactor: merges runs of small adjacent sealed
// segments into one (time-bucket defragmentation). The serving layer
// seals the buffer before every WAL snapshot, so the archive's steady
// state is a tail of small segments the compactor keeps folding into a
// body of full ones.
//
// Commit protocol (crash-safe at every step, verified by the
// Compaction crash tests):
//
//  1. write the merged segment, index included, to a temp file and
//     fsync it;
//  2. rename it over the first input's file, ev-<run[0].FirstSeq>.col —
//     the commit point; from here Open's supersession pass treats the
//     other inputs as dead — and splice the in-memory sealed list under
//     the same lock hold;
//  3. fsync the directory, so the rename survives power loss, then
//     delete the other inputs (redone by Open's supersession pass if a
//     crash lands mid-deletion). In-flight scans holding views of the
//     deleted inputs fall back to the merged segment, filtered to their
//     original ordinal range (SegmentView.rescanCompacted).

// CompactStats sums what compaction steps accomplished.
type CompactStats struct {
	// Compactions counts committed merges; SegmentsIn the input
	// segments they consumed (≥ 2 each).
	Compactions int
	SegmentsIn  int
	// Records is the number of records rewritten.
	Records int
	// BytesReclaimed is input minus output file bytes (≥ 0; a rewrite
	// that grows the data — possible only for tiny segments where fixed
	// overhead dominates — counts as 0).
	BytesReclaimed uint64
}

// CompactOnce performs at most one compaction step — one merge of an
// adjacent run of small sealed segments — and reports whether it
// committed one. The step reads and writes outside the archive lock;
// only the rename and the metadata splice hold it, so ingest and queries
// proceed throughout. Steps are serialized against each other. An error
// next to worked=true is the directory fsync failing after the commit:
// the merged segment is served, and its inputs stay on disk until the
// next Open deletes them as superseded.
func (l *Log) CompactOnce() (CompactStats, bool, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.mu.Lock()
	sealed := make([]segMeta, len(l.sealed))
	copy(sealed, l.sealed)
	l.mu.Unlock()

	lo, hi := pickCompactRun(sealed, l.opt)
	if lo < 0 {
		return CompactStats{}, false, nil
	}
	run := sealed[lo:hi]

	// Read every input record through the block reader queries use, in
	// ordinal order (inputs are adjacent and ordinal-disjoint, so
	// concatenation in list order is sorted).
	var recs []Record
	var bytesIn int64
	all := Pred{From: math.MinInt, To: math.MaxInt}
	for i := range run {
		if st, err := l.fs.Stat(l.colPath(run[i].FirstSeq)); err == nil {
			bytesIn += st.Size()
		}
		v := run[i].view(l)
		if _, _, err := v.ScanPred(all, func(rec *Record) error {
			recs = append(recs, *rec)
			return nil
		}); err != nil {
			return CompactStats{}, false, fmt.Errorf("archive: compact: %w", err)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			return CompactStats{}, false, fmt.Errorf("archive: compact: records out of order at seq %d", recs[i].Seq)
		}
	}

	// Commit. The rename lands on the first input's path, and it and the
	// sealed-list splice share one lock hold, so a scan that finds the
	// merged bytes behind a stale view also finds the merged segment in
	// the list to fall back to. Only the compactor rewrites the list and
	// we hold compactMu, so the run is still where we found it; seals
	// only append behind it.
	newPath := l.colPath(run[0].FirstSeq)
	tmp := newPath + ".tmp"
	m, err := writeSegment(l.fs, tmp, recs, l.opt.BlockEvents)
	if err != nil {
		return CompactStats{}, false, err
	}
	l.mu.Lock()
	if err := l.fs.Rename(tmp, newPath); err != nil {
		l.mu.Unlock()
		l.fs.Remove(tmp) //nolint:errcheck // best effort
		return CompactStats{}, false, fmt.Errorf("archive: compact: %w", err)
	}
	spliced := append([]segMeta{}, l.sealed[:lo]...)
	spliced = append(spliced, m)
	spliced = append(spliced, l.sealed[hi:]...)
	l.sealed = spliced
	l.mu.Unlock()
	// Deleting an input before the rename is durable would let a power
	// cut lose its records.
	if err := l.syncDir(); err != nil {
		return CompactStats{}, true, err
	}
	var bytesOut int64
	if st, err := l.fs.Stat(newPath); err == nil {
		bytesOut = st.Size()
	}
	for _, in := range run[1:] {
		l.fs.Remove(l.colPath(in.FirstSeq)) //nolint:errcheck // best effort; Open redoes it
	}
	st := CompactStats{Compactions: 1, SegmentsIn: len(run), Records: len(recs)}
	if bytesIn > bytesOut {
		st.BytesReclaimed = uint64(bytesIn - bytesOut)
	}
	l.mu.Lock()
	l.compactions++
	l.segsCompacted += uint64(len(run))
	l.bytesReclaimed += st.BytesReclaimed
	l.mu.Unlock()
	return st, true, nil
}

// CompactAll runs compaction steps until none applies. Seal the buffer
// first to include its records.
func (l *Log) CompactAll() (CompactStats, error) {
	var total CompactStats
	for {
		st, worked, err := l.CompactOnce()
		total.Compactions += st.Compactions
		total.SegmentsIn += st.SegmentsIn
		total.Records += st.Records
		total.BytesReclaimed += st.BytesReclaimed
		if err != nil || !worked {
			return total, err
		}
	}
}

// pickCompactRun chooses the next compaction step over a sealed-list
// snapshot: the first (oldest) maximal run of ≥ 2 adjacent segments
// that merged stay within the segment-size and time-bucket bounds, else
// nothing ([-1, -1)).
func pickCompactRun(sealed []segMeta, opt Options) (int, int) {
	for i := 0; i < len(sealed); i++ {
		if sealed[i].Count == 0 {
			continue
		}
		count := sealed[i].Count
		minQ, maxQ := sealed[i].MinQuantum, sealed[i].MaxQuantum
		j := i + 1
		for ; j < len(sealed); j++ {
			s := &sealed[j]
			if s.Count == 0 {
				break
			}
			nc := count + s.Count
			nMin, nMax := minQ, maxQ
			if s.MinQuantum < nMin {
				nMin = s.MinQuantum
			}
			if s.MaxQuantum > nMax {
				nMax = s.MaxQuantum
			}
			if nc > opt.SegmentEvents || nMax-nMin >= opt.BucketQuanta {
				break
			}
			count, minQ, maxQ = nc, nMin, nMax
		}
		if j-i >= 2 {
			return i, j
		}
	}
	return -1, -1
}

// CompactTotals reports the compactor's lifetime counters for this Log:
// committed compactions, input segments consumed, and bytes reclaimed
// (input minus output files).
func (l *Log) CompactTotals() (compactions, segmentsIn, bytesReclaimed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactions, l.segsCompacted, l.bytesReclaimed
}

// ColumnarSegmentCount returns how many columnar segments are sealed
// on disk.
func (l *Log) ColumnarSegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
}
