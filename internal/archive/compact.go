package archive

import (
	"fmt"
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
//  1. write the merged data file at ev-<run[0].File>.col via
//     tmp+fsync+rename — the commit point. From here Open's
//     supersession pass treats the inputs as dead.
//  2. splice the in-memory sealed list, under the same lock hold as
//     the rename.
//  3. write its sidecar (tmp+rename; rebuilt from the data file by the
//     next Open if a crash lands between 1 and 3 or the write fails —
//     a failed write is reported only after step 4, since the merge is
//     committed either way).
//  4. delete the input data files and sidecars (redone by Open's
//     supersession pass and orphan-sidecar sweep if a crash lands
//     mid-deletion). In-flight scans holding views of the deleted
//     inputs fall back to the merged segment, filtered to their
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
// only the final metadata splice holds it, so ingest and queries
// proceed throughout. Steps are serialized against each other. An error
// next to worked=true is the merged segment's sidecar write failing:
// the merge stands, its inputs are deleted and it is counted.
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

	// Read every input record, in ordinal order (inputs are adjacent and
	// ordinal-disjoint, so concatenation in list order is sorted).
	var recs []Record
	var bytesIn int64
	for i := range run {
		m := &run[i]
		path := l.colPath(m.File)
		if st, err := l.fs.Stat(path); err == nil {
			bytesIn += st.Size()
		}
		if st, err := l.fs.Stat(l.colMetaPath(m.File)); err == nil {
			bytesIn += st.Size()
		}
		before := len(recs)
		_, err := scanColFile(l.fs, path, func(rec *Record) error {
			recs = append(recs, *rec)
			return nil
		}, nil)
		if err != nil {
			return CompactStats{}, false, fmt.Errorf("archive: compact: read segment %d: %w", m.File, err)
		}
		if len(recs)-before != m.Count {
			return CompactStats{}, false, fmt.Errorf("archive: compact: segment %d has %d of %d records",
				m.File, len(recs)-before, m.Count)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			return CompactStats{}, false, fmt.Errorf("archive: compact: records out of order at seq %d", recs[i].Seq)
		}
	}

	// Commit. The rename is the commit point, and it lands on the first
	// input's path: it and the sealed-list splice share one lock hold, so
	// a scan that finds the merged bytes behind a stale view also finds
	// the merged segment in the list to fall back to. Only the compactor
	// rewrites the list and we hold compactMu, so the run is still where
	// we found it; seals only append behind it.
	newPath := l.colPath(run[0].File)
	tmp := newPath + ".tmp"
	m, err := writeSegmentTmp(l.fs, tmp, recs, l.opt.BlockEvents)
	if err != nil {
		return CompactStats{}, false, err
	}
	m.File = run[0].File
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
	// A sidecar lost here is rebuilt by the next Open and the segment is
	// served from m either way, so the failure must not keep the inputs
	// alive: a full disk is the likely cause and deleting them is what
	// frees space.
	metaErr := l.writeMeta(&m)
	var bytesOut int64
	if st, err := l.fs.Stat(newPath); err == nil {
		bytesOut += st.Size()
	}
	if st, err := l.fs.Stat(l.colMetaPath(m.File)); err == nil {
		bytesOut += st.Size()
	}

	// Cleanup: inputs are dead. The first one's files were just renamed
	// over by the merged segment, which keeps its name.
	for _, in := range run[1:] {
		l.removeSegmentFiles(in.File)
	}
	st := CompactStats{Compactions: 1, SegmentsIn: len(run), Records: len(recs)}
	if bytesIn > bytesOut {
		st.BytesReclaimed = uint64(bytesIn - bytesOut)
	}
	l.mu.Lock()
	l.compactions++
	l.segsCompacted += uint64(len(run))
	l.recordsCompacted += uint64(len(recs))
	l.bytesReclaimed += st.BytesReclaimed
	l.mu.Unlock()
	return st, true, metaErr
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
// committed compactions, input segments consumed, records rewritten,
// and bytes reclaimed (data + sidecar files, input minus output).
func (l *Log) CompactTotals() (compactions, segmentsIn, records, bytesReclaimed uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactions, l.segsCompacted, l.recordsCompacted, l.bytesReclaimed
}

// ColumnarSegmentCount returns how many columnar segments are sealed
// on disk.
func (l *Log) ColumnarSegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
}
