// Package archive is the queryable history of finished events. The
// serving layer's retention policy evicts finished events from detector
// memory (detect.TrimFinished); instead of losing them, an eviction hook
// appends each one here. Appended records sit in an in-memory buffer —
// the active segment, visible to queries at once — until a seal writes
// the buffer out as one columnar segment file ending in an index of zone
// maps and keyword Bloom filters, so time-range, rank and keyword
// queries skip the segments and blocks that cannot match and decode
// only the rest (the data-skipping idea of provenance-pruned scans,
// applied to event history). A background compactor merges the small
// segments frequent seals leave behind (compact.go).
//
// A tenant's archive directory holds one file per segment, named by its
// first record (segment2.go has the layout):
//
//	ev-00000000000000000001.col   records 1..k: header, blocks, index
//
// Records carry a 1-based eviction ordinal (Seq) matching the
// detector's cumulative trim counter, which makes appends idempotent
// across WAL replays: a replayed eviction whose ordinal the archive
// already holds is dropped. That is also the crash story of the buffer:
// the serving layer seals before every WAL snapshot, so a kill loses
// only buffered records whose evictions the WAL tail regenerates.
package archive

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/detect"
	"repro/internal/vfs"
)

const segPrefix = "ev-"

// Record is an event once it leaves the detector: what the eviction hook
// appends, what a scan hands back, and — its JSON tags — the element of
// a /query page, so an event reads the same from the live snapshot and
// from disk. Quanta double as the archive's time axis (the detector's
// clock).
type Record struct {
	// Seq is the 1-based eviction ordinal (detect's trim counter); zero
	// on the projection of an event still retained in memory.
	Seq           uint64   `json:"-"`
	ID            uint64   `json:"id"`
	State         string   `json:"state"`
	Keywords      []string `json:"keywords"`
	AllKeywords   []string `json:"all_keywords,omitempty"`
	Rank          float64  `json:"rank"`
	PeakRank      float64  `json:"peak_rank"`
	BornQuantum   int      `json:"born_quantum"`
	LastQuantum   int      `json:"last_quantum"`
	Evolved       bool     `json:"evolved"`
	Size          int      `json:"size"`
	Support       int      `json:"support"`
	Reported      bool     `json:"reported"`
	FirstReported int      `json:"first_reported,omitempty"`
	MergedInto    uint64   `json:"merged_into,omitempty"`
	SplitFrom     uint64   `json:"split_from,omitempty"`
	Spurious      bool     `json:"spurious"`
}

// RecordOf is the one projection of a detector event onto the row: the
// eviction hook archives it (after stamping Seq) and the query engine
// serves it for events still retained, so the two agree by construction.
// The keyword slices alias the event's — which a finished event or an
// epoch-snapshot view never rewrites; project nothing that can still
// change.
func RecordOf(ev *detect.Event) Record {
	return Record{
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      ev.Keywords,
		AllKeywords:   ev.KeywordHistory(),
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

// segMeta is what the archive holds in memory about a segment: enough to
// decide, without reading a block, whether a query's time range, rank
// floor or keywords can possibly match — for the segment as a whole and
// per block. A sealed segment's file is named by its FirstSeq.
type segMeta struct {
	FirstSeq    uint64
	LastSeq     uint64
	Count       int
	MinQuantum  int     // min BornQuantum
	MaxQuantum  int     // max LastQuantum
	MaxPeakRank float64 // max PeakRank, for rank-floor skipping
	// Blocks are the per-block zone maps, in file order (none for the
	// buffer).
	Blocks []blockZone

	bf bloom // keyword filter over every record
}

// observe folds one record into the seq/quantum/rank bounds and the
// keyword filter, creating the filter on first use.
func (m *segMeta) observe(rec *Record) {
	if m.Count == 0 {
		m.FirstSeq, m.MinQuantum, m.MaxQuantum = rec.Seq, rec.BornQuantum, rec.LastQuantum
		m.MaxPeakRank = rec.PeakRank
		m.bf = newBloom(8 * segBloomBytes)
	}
	m.LastSeq = rec.Seq
	m.Count++
	if rec.BornQuantum < m.MinQuantum {
		m.MinQuantum = rec.BornQuantum
	}
	if rec.LastQuantum > m.MaxQuantum {
		m.MaxQuantum = rec.LastQuantum
	}
	if rec.PeakRank > m.MaxPeakRank {
		m.MaxPeakRank = rec.PeakRank
	}
	for _, kw := range rec.Keywords {
		m.bf.add(kw)
	}
	for _, kw := range rec.AllKeywords {
		m.bf.add(kw)
	}
}

// Options tune one Log.
type Options struct {
	// SegmentEvents seals the buffer once it holds this many records,
	// and caps what the compactor merges into one segment. Zero selects
	// 512.
	SegmentEvents int
	// BucketQuanta seals the buffer once it spans more than this many
	// quanta (max observed LastQuantum − min BornQuantum) — the time
	// bucketing that keeps a segment's [min,max] window tight enough for
	// range skipping to bite. Zero selects 1024.
	BucketQuanta int
	// BlockEvents caps records per block inside a segment — the
	// granularity at which zone maps skip and scans decode. Zero selects
	// 256.
	BlockEvents int
	// FS overrides the filesystem behind every file operation — the
	// fault-injection seam for tests. Nil selects the real one.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = 512
	}
	if o.BucketQuanta <= 0 {
		o.BucketQuanta = 1024
	}
	if o.BlockEvents <= 0 {
		o.BlockEvents = defaultBlockEvents
	}
	o.FS = vfs.Default(o.FS)
	return o
}

// Log is one tenant's event archive. Safe for concurrent use: Segments
// snapshots the segment metadata under the internal lock and scans read
// the (immutable) data files without it, so a long history scan never
// blocks the ingest path that appends evictions.
type Log struct {
	dir string
	opt Options
	fs  vfs.FS

	mu     sync.Mutex
	sealed []segMeta // segments on disk, ascending FirstSeq
	// buf is the active segment: records appended since the last seal,
	// with active their bounds and keyword filter. Views alias buf, so
	// it only ever grows by append and a seal starts a fresh slice.
	buf    []Record
	active segMeta
	seq    uint64 // last appended ordinal
	gaps   uint64 // ordinal gaps observed (records lost before a crash)
	// quarantined counts segments renamed aside after hitting
	// corruption — history the service keeps serving around.
	quarantined uint64

	// Compaction bookkeeping: compactMu serializes compactor steps (the
	// sealed-list splice assumes one compactor); the counters (guarded by
	// mu) feed the service metrics.
	compactMu      sync.Mutex
	compactions    uint64
	segsCompacted  uint64
	bytesReclaimed uint64
}

// Open opens (creating if needed) an archive directory, reading each
// segment's header and index. A segment whose ordinal range an earlier
// segment covers is the leftover input of a compaction the process
// crashed out of after the commit rename — it is deleted here, and so is
// any temp file a crash left, which is what makes kill -9 at any point
// of a seal or a compaction converge to exactly-once records. A segment
// whose header or index is damaged is quarantined, as a scan that finds
// a damaged block does. A directory holding a segment of an older format
// — a JSON-lines ev-*.jsonl, a .col.meta.json sidecar, or a .col of
// format version 1 — is refused with an error naming the file, before
// anything in it changes: this build has no reader for them.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, fs: opt.FS}
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: list %s: %w", dir, err)
	}
	var metas []segMeta
	var corrupt []string
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, segPrefix) &&
			(strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, colExt+".meta.json")) {
			return nil, fmt.Errorf("archive: %s belongs to an older segment format, which this build cannot read "+
				"(docs/PERSISTENCE.md: legacy and pre-index directories)", path)
		}
		stem, isCol := strings.CutSuffix(name, colExt)
		num, ok := strings.CutPrefix(stem, segPrefix)
		start, err := strconv.ParseUint(num, 10, 64)
		if !isCol || !ok || err != nil {
			continue
		}
		m, err := loadIndex(l.fs, path)
		if err == nil && m.FirstSeq != start {
			err = fmt.Errorf("holds records from seq %d: %w", m.FirstSeq, ErrCorrupt)
		}
		switch {
		case errors.Is(err, ErrCorrupt):
			corrupt = append(corrupt, path)
		case err != nil:
			return nil, fmt.Errorf("archive: %s: %w", path, err)
		default:
			metas = append(metas, m)
		}
	}
	// Nothing on disk has changed up to here.
	for _, path := range corrupt {
		l.fs.Rename(path, path+quarantineSuffix) //nolint:errcheck // best effort
		l.quarantined++
	}
	if tmps, err := l.fs.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, tmp := range tmps {
			l.fs.Remove(tmp) //nolint:errcheck // best effort
		}
	}
	// The compactor replaces a run of whole segments by one that keeps the
	// first input's name, so in FirstSeq order a segment whose range an
	// earlier one reaches past is a merged input.
	sort.Slice(metas, func(i, j int) bool { return metas[i].FirstSeq < metas[j].FirstSeq })
	for _, m := range metas {
		if m.LastSeq <= l.seq {
			l.fs.Remove(l.colPath(m.FirstSeq)) //nolint:errcheck // best effort
			continue
		}
		l.sealed = append(l.sealed, m)
		l.seq = m.LastSeq
	}
	return l, nil
}

// loadIndex reads the header and index of the segment file at path.
func loadIndex(fsys vfs.FS, path string) (segMeta, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return segMeta{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return segMeta{}, err
	}
	return readIndex(f, st.Size())
}

// Append archives one record: it joins the in-memory buffer, where
// Segments-based scans see it at once. Records whose Seq is at or below
// the highest ordinal held are dropped (replayed evictions already
// archived). An ordinal gap — records lost to a crash whose evictions
// the WAL snapshot already covers, so replay will never regenerate
// them — is counted (Gaps) and skipped over: those records are gone
// either way, and refusing all future appends would turn a small hole
// into total history loss. A buffer that reaches the SegmentEvents or
// BucketQuanta bound is sealed; the only error Append returns is that
// seal's, and the record is held either way (see Seal for where).
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Seq <= l.seq {
		return nil // WAL replay re-evicted an event already archived
	}
	if rec.Seq != l.seq+1 {
		l.gaps++
	}
	l.buf = append(l.buf, rec)
	l.active.observe(&rec)
	l.seq = rec.Seq
	if len(l.buf) >= l.opt.SegmentEvents ||
		l.active.MaxQuantum-l.active.MinQuantum >= l.opt.BucketQuanta {
		return l.sealLocked()
	}
	return nil
}

// Seal makes every appended record durable: the buffer is written out
// as one segment file (tmp + fsync, then a rename and a directory fsync
// — the commit point) and a fresh buffer started. If any step fails the
// records stay buffered, still served, and the error is returned; the
// next seal writes them again under the same name. Callers that persist
// the eviction counter elsewhere (the serving layer's WAL snapshots)
// must seal first, or a crash loses the buffered records for good.
func (l *Log) Seal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

// sealLocked is Seal; caller holds l.mu.
func (l *Log) sealLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	path := l.colPath(l.buf[0].Seq)
	m, err := writeSegment(l.fs, path+".tmp", l.buf, l.opt.BlockEvents)
	if err != nil {
		return err
	}
	if err := l.fs.Rename(path+".tmp", path); err != nil {
		l.fs.Remove(path + ".tmp") //nolint:errcheck // best effort
		return fmt.Errorf("archive: seal: %w", err)
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, m)
	l.buf, l.active = nil, segMeta{}
	return nil
}

// syncDir fsyncs the archive directory, so the renames before it survive
// power loss.
func (l *Log) syncDir() error {
	d, err := l.fs.Open(l.dir)
	if err != nil {
		return fmt.Errorf("archive: sync %s: %w", l.dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("archive: sync %s: %w", l.dir, err)
	}
	return nil
}

// LastSeq returns the highest eviction ordinal the archive holds.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Gaps returns how many ordinal gaps Append has skipped over — each
// one marks records that were evicted but never made it to disk.
func (l *Log) Gaps() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gaps
}

// SegmentCount returns the number of segments Segments would list:
// sealed files plus the buffer when it holds records.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if len(l.buf) > 0 {
		n++
	}
	return n
}

// EventCount returns the number of archived events.
func (l *Log) EventCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.buf)
	for i := range l.sealed {
		n += l.sealed[i].Count
	}
	return n
}

// Close seals the buffer; the Log holds no open files between calls.
func (l *Log) Close() error { return l.Seal() }

// ErrStop, returned by a ScanPred callback, stops the scan early without
// error — the LIMIT-pushdown signal.
var ErrStop = fmt.Errorf("archive: stop scan")

// ErrCorrupt marks structural damage inside a sealed segment's data
// file — a CRC mismatch, a torn frame, a record count that disagrees
// with the index. Errors wrapping it are the quarantine signal: the
// damage is in the bytes, not the device, so retrying the read cannot
// help, but the rest of the archive is still good. Device-level read
// errors (EIO) deliberately do NOT wrap it.
var ErrCorrupt = errors.New("segment corrupt")

// quarantineSuffix is appended to a corrupt segment's file name. Open
// ignores the renamed file (wrong extension), so the damage survives for
// offline forensics without ever being served again.
const quarantineSuffix = ".quarantine"

// SegmentView is a point-in-time handle on one segment: the index
// bounds for planning (time-range, rank-floor, and Bloom data skipping)
// plus a record iterator. Views are snapshots — records appended to the
// buffer after Segments() returned are not visible through them, a
// buffer view outlives the seal that empties the buffer, and a sealed
// view stays readable even if the segment it describes is compacted
// away mid-scan: a vanished or replaced data file makes the scan fall
// back to the covering compacted segment, filtered to this view's
// ordinal range.
type SegmentView struct {
	// FirstSeq/LastSeq bound the eviction ordinals in the segment.
	FirstSeq uint64
	LastSeq  uint64
	// Count is the number of records the view covers.
	Count int
	// MinQuantum is the smallest BornQuantum of any covered record;
	// MaxQuantum the largest LastQuantum. Every record's sort span
	// falls inside [MinQuantum, MaxQuantum].
	MinQuantum int
	MaxQuantum int
	// MaxPeakRank bounds PeakRank across the covered records.
	MaxPeakRank float64
	// Sealed marks a segment on disk; false is the in-memory buffer.
	Sealed bool

	zones []blockZone // sealed: zone maps (immutable; shared)
	recs  []Record    // buffer: the records themselves (append-only; shared)
	bf    bloom
	l     *Log
}

// Blocks returns the number of on-disk blocks the view covers (0 for
// the buffer).
func (v *SegmentView) Blocks() int { return len(v.zones) }

// Quarantine sets this view's segment aside in its parent Log after a
// scan returned an error wrapping ErrCorrupt — see Log.Quarantine.
func (v *SegmentView) Quarantine() bool { return v.l.Quarantine(v) }

// MayContain reports whether the segment's keyword Bloom filter admits
// kw (false positives possible, false negatives not). A view with no
// filter admits everything.
func (v *SegmentView) MayContain(kw string) bool {
	return v.bf.mayContain(kw)
}

// Pred is the predicate ScanPred pushes below segment granularity: a
// scan skips whole blocks whose zone maps prove no record can match.
// Records handed to the callback are NOT individually filtered — block
// skipping is conservative, so callers apply their own record-level
// filter.
type Pred struct {
	// From/To bound the quantum range: a record matches when its
	// [BornQuantum, LastQuantum] span intersects [From, To]. To < 0
	// means unbounded. Note the zero value bounds the range to quantum
	// 0 — callers must set To.
	From, To int
	// MinRank, when positive, requires PeakRank ≥ MinRank.
	MinRank float64
	// Keywords requires every listed keyword (AND semantics), matched
	// against the block Bloom filters.
	Keywords []string

	// minSeq/maxSeq (0 = unbounded) restrict records by eviction
	// ordinal — set internally when a scan falls back from a compacted-
	// away segment to the covering rewrite, which holds more than the
	// original view's records.
	minSeq, maxSeq uint64
}

// skipReason classifies why a block was skipped.
type skipReason int

const (
	skipNone skipReason = iota
	skipTime
	skipRank
	skipKeyword
)

func (z *blockZone) skip(p *Pred) skipReason {
	if z.MaxQuantum < p.From || z.MinQuantum > p.To {
		return skipTime
	}
	if p.maxSeq > 0 && (z.FirstSeq > p.maxSeq || z.LastSeq < p.minSeq) {
		return skipTime // ordinal range disjoint: same bucket as time
	}
	if p.MinRank > 0 && z.MaxRank < p.MinRank {
		return skipRank
	}
	if len(p.Keywords) > 0 && !z.mayContainKeywords(p.Keywords) {
		return skipKeyword
	}
	return skipNone
}

// BlockStats reports one ScanPred's block-level work: how many blocks
// the segment holds, how many were read, and why the rest were skipped
// without touching the data file. The buffer counts as one block.
type BlockStats struct {
	Blocks           int // blocks covered by the view
	Scanned          int // blocks read and decoded
	SkippedByTime    int // zone quantum/ordinal range proved no match
	SkippedByRank    int // zone max PeakRank below the rank floor
	SkippedByKeyword int // zone Bloom filter refuted a keyword
	Records          int // records handed to the callback
}

// ScanPred streams the view's records to fn in eviction order, skipping
// blocks whose zone maps prove no record can match pred (see Pred for
// what the callback still must filter; Pred{To: -1} skips nothing). The
// *Record and its slices remain valid after fn returns, but the struct
// pointed to is reused — copy it to keep it. fn returning ErrStop ends
// the scan early (stopped=true, err=nil); any other error aborts and is
// returned. A block that decodes to a different record count than its
// zone map states is corruption and is reported as an error: silently
// truncating history would be worse than failing the query.
func (v *SegmentView) ScanPred(pred Pred, fn func(*Record) error) (BlockStats, bool, error) {
	return v.scanWithPred(pred, 0, fn)
}

// maxRescanDepth bounds compacted-away fallback nesting; one level is
// the steady state (old view → covering rewrite) and a second absorbs a
// re-compaction racing the fallback itself.
const maxRescanDepth = 2

// scanWithPred is the scan behind ScanPred: the buffer's
// records straight from memory, or zone-map skipping followed by a
// CRC-checked column-at-a-time decode of only the surviving blocks.
func (v *SegmentView) scanWithPred(pred Pred, depth int, fn func(*Record) error) (bs BlockStats, stopped bool, err error) {
	if !v.Sealed {
		bs.Blocks, bs.Scanned = 1, 1
		for i := range v.recs {
			rec := v.recs[i] // a copy: fn must not reach the shared buffer
			bs.Records++
			if err := fn(&rec); err == ErrStop {
				return bs, true, nil
			} else if err != nil {
				return bs, false, err
			}
		}
		return bs, false, nil
	}
	if pred.To < 0 {
		pred.To = maxInt
	}
	f, err := v.l.fs.Open(v.l.colPath(v.FirstSeq))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && depth < maxRescanDepth {
			return v.rescanCompacted(pred, depth, fn)
		}
		return bs, false, fmt.Errorf("archive: open segment: %w", err)
	}
	defer f.Close()
	// The open fd pins the inode, so the scan below is immune to a
	// concurrent re-compaction renaming over this path — but the path
	// may already BE the replacement. Verify the header matches the
	// view; a mismatch means the view's zone maps describe a replaced
	// file, so fall back as if it had vanished.
	var hdrBuf [colHeaderLen]byte
	if err := readFull(f, hdrBuf[:], 0); err != nil {
		return bs, false, fmt.Errorf("archive: segment %d: %w", v.FirstSeq, err)
	}
	hdr, err := parseColHeader(hdrBuf[:])
	if err != nil {
		return bs, false, fmt.Errorf("archive: segment %d: %w", v.FirstSeq, err)
	}
	if hdr.firstSeq != v.FirstSeq || hdr.lastSeq != v.LastSeq || hdr.count != v.Count {
		if depth < maxRescanDepth {
			return v.rescanCompacted(pred, depth, fn)
		}
		return bs, false, fmt.Errorf("archive: segment %d: file replaced mid-scan", v.FirstSeq)
	}

	bs.Blocks = len(v.zones)
	sc := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(sc)
	for zi := range v.zones {
		z := &v.zones[zi]
		switch z.skip(&pred) {
		case skipTime:
			bs.SkippedByTime++
			continue
		case skipRank:
			bs.SkippedByRank++
			continue
		case skipKeyword:
			bs.SkippedByKeyword++
			continue
		}
		bs.Scanned++
		payload, err := readFrame(f, z, &sc.frame)
		if err != nil {
			return bs, false, fmt.Errorf("archive: segment %d: %w", v.FirstSeq, err)
		}
		n, derr := decodeBlock(payload, sc, func(rec *Record) error {
			if (pred.minSeq > 0 && rec.Seq < pred.minSeq) || (pred.maxSeq > 0 && rec.Seq > pred.maxSeq) {
				return nil
			}
			bs.Records++
			return fn(rec)
		})
		if derr == ErrStop {
			return bs, true, nil
		}
		if derr != nil {
			if errors.Is(derr, errBlockCorrupt) {
				derr = fmt.Errorf("%w: %w", derr, ErrCorrupt)
			}
			return bs, false, fmt.Errorf("archive: segment %d: block at %d: %w", v.FirstSeq, z.Off, derr)
		}
		if n != z.Count {
			return bs, false, fmt.Errorf("archive: segment %d: block at %d has %d of %d records: %w",
				v.FirstSeq, z.Off, n, z.Count, ErrCorrupt)
		}
	}
	return bs, false, nil
}

// rescanCompacted re-resolves a scan whose data file was compacted away
// (or replaced) after the view was taken: the compactor only ever
// merges whole segments, so some current segment's ordinal range covers
// this view's — rescan it with the predicate narrowed to the view's
// ordinals, yielding exactly the original record set. The merged
// segment keeps its first input's file name, so the covering segment is
// told from the vanished one by its range, not its name.
func (v *SegmentView) rescanCompacted(pred Pred, depth int, fn func(*Record) error) (BlockStats, bool, error) {
	if pred.minSeq == 0 || pred.minSeq < v.FirstSeq {
		pred.minSeq = v.FirstSeq
	}
	if pred.maxSeq == 0 || pred.maxSeq > v.LastSeq {
		pred.maxSeq = v.LastSeq
	}
	views := v.l.Segments()
	for i := range views {
		w := &views[i]
		if !w.Sealed || (w.FirstSeq == v.FirstSeq && w.LastSeq == v.LastSeq) {
			continue // the buffer, or the vanished segment itself (stale list)
		}
		if w.FirstSeq <= v.FirstSeq && w.LastSeq >= v.LastSeq {
			return w.scanWithPred(pred, depth+1, fn)
		}
	}
	return BlockStats{}, false, fmt.Errorf("archive: segment %d vanished with no covering replacement", v.FirstSeq)
}

// Segments snapshots the archive's segments — sealed ones, then the
// buffer when it holds records — in ascending-FirstSeq order. The
// metadata is copied under the lock and the records (immutable files,
// replaced only via the rescan fallback above; an append-only buffer)
// are read without it, so planning and scanning never block concurrent
// appends.
func (l *Log) Segments() []SegmentView {
	l.mu.Lock()
	defer l.mu.Unlock()
	views := make([]SegmentView, 0, len(l.sealed)+1)
	for i := range l.sealed {
		views = append(views, l.sealed[i].view(l))
	}
	if n := len(l.buf); n > 0 {
		v := l.active.view(l)
		v.Sealed = false
		v.recs = l.buf[:n:n]
		v.bf = l.active.bf.clone() // the live filter keeps mutating under appends
		views = append(views, v)
	}
	return views
}

// view is a sealed segment's SegmentView. Its zone maps and filters are
// immutable once sealed, so views share them.
func (m *segMeta) view(l *Log) SegmentView {
	return SegmentView{
		FirstSeq:    m.FirstSeq,
		LastSeq:     m.LastSeq,
		Count:       m.Count,
		MinQuantum:  m.MinQuantum,
		MaxQuantum:  m.MaxQuantum,
		MaxPeakRank: m.MaxPeakRank,
		Sealed:      true,
		zones:       m.Blocks,
		bf:          m.bf,
		l:           l,
	}
}

// Quarantine renames a corrupt sealed segment's file aside
// (quarantineSuffix) and drops the segment from the sealed list, so
// every later query serves the surviving history instead of re-hitting
// the damage. The damaged bytes stay on disk for forensics. Reports
// whether the view named a segment still in the sealed list (false for
// buffer views, already-quarantined segments, or views of a
// compacted-away file — in all of those there is nothing to remove).
// Safe against a concurrent compaction: it takes the compactor's mutex,
// so the splice never invalidates a compaction step mid-flight.
func (l *Log) Quarantine(v *SegmentView) bool {
	if !v.Sealed {
		return false
	}
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := slices.IndexFunc(l.sealed, func(m segMeta) bool {
		return m.FirstSeq == v.FirstSeq && m.LastSeq == v.LastSeq
	})
	if idx < 0 {
		return false
	}
	// A rename failure is tolerated: the segment leaves the sealed list
	// either way, which is what stops the bleeding.
	path := l.colPath(v.FirstSeq)
	l.fs.Rename(path, path+quarantineSuffix) //nolint:errcheck // best effort
	l.sealed = slices.Delete(l.sealed, idx, idx+1)
	l.quarantined++
	return true
}

// QuarantinedSegments returns how many segments this Log has
// quarantined since open.
func (l *Log) QuarantinedSegments() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// segName is the file name of the segment file named by seq.
func segName(seq uint64, ext string) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, seq, ext)
}

func (l *Log) colPath(seq uint64) string { return filepath.Join(l.dir, segName(seq, colExt)) }
