// Package archive is the queryable history of finished events. The
// serving layer's retention policy evicts finished events from detector
// memory (detect.TrimFinished); instead of losing them, an eviction hook
// appends each one here. Appended records sit in an in-memory buffer —
// the active segment, visible to queries at once — until it is full;
// then a seal writes it out as one columnar segment file ending in an
// index of zone maps and keyword Bloom filters, so time-range, rank and
// keyword queries skip the segments and blocks that cannot match and
// decode only the rest (the data-skipping idea of provenance-pruned
// scans, applied to event history). Between seals, Sync makes the
// buffer durable by rewriting one buffer file in the same format.
//
// A tenant's archive directory holds one file per sealed segment, named
// by its first record, plus the buffer file (segment2.go has the
// layout):
//
//	ev-00000000000000000001.col   records 1..k: header, blocks, index
//	buffer.col                    the buffer as of the last Sync
//
// Records carry a 1-based eviction ordinal (Seq) matching the
// detector's cumulative trim counter, which makes appends idempotent
// across WAL replays: a replayed eviction whose ordinal the archive
// already holds is dropped. That is also the crash story of the buffer:
// the serving layer syncs before every WAL snapshot, so a kill loses
// only records appended since, whose evictions the WAL tail regenerates.
package archive

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/detect"
	"repro/internal/vfs"
)

const (
	segPrefix = "ev-"
	// bufferName is the file Sync rewrites with the buffer's records.
	bufferName = "buffer" + colExt
)

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
	// SegmentEvents seals the buffer once it holds this many records.
	// Zero selects 512.
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
	synced int    // len(buf) when the buffer file was last written
	seq    uint64 // last appended ordinal
	gaps   uint64 // ordinal gaps observed (records lost before a crash)
	// quarantined counts files renamed aside after hitting corruption —
	// history the service keeps serving around.
	quarantined uint64
}

// Open opens (creating if needed) an archive directory. It reads each
// sealed segment's header and index, then loads the buffer file into
// the buffer, dropping the records at or below the last sealed ordinal
// — a crash between a seal's commit and the buffer file's removal
// leaves them in both — and removing the file when nothing in it is
// left. Temp files a crash left are swept. That is what makes kill -9 at
// any step of a Sync or a seal converge to exactly-once records. A file
// whose header, index or (for the buffer file) blocks are damaged is
// quarantined, as a scan that finds a damaged block does, and so is a
// segment overlapping an earlier one, which nothing in this package
// writes. A directory holding a segment of an older format — a
// JSON-lines ev-*.jsonl, a .col.meta.json sidecar, or a .col of format
// version 1 — is refused with an error naming the file, before anything
// in it changes: this build has no reader for them.
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
	var buffered []Record
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
		num, isSeg := strings.CutPrefix(stem, segPrefix)
		start, perr := strconv.ParseUint(num, 10, 64)
		var m segMeta
		switch {
		case name == bufferName:
			_, buffered, err = loadSegment(l.fs, path, true)
		case isCol && isSeg && perr == nil:
			if m, _, err = loadSegment(l.fs, path, false); err == nil && m.FirstSeq != start {
				err = fmt.Errorf("holds records from seq %d: %w", m.FirstSeq, ErrCorrupt)
			}
		default:
			continue
		}
		switch {
		case errors.Is(err, ErrCorrupt):
			corrupt = append(corrupt, path)
		case err != nil:
			return nil, fmt.Errorf("archive: %s: %w", path, err)
		case name != bufferName:
			metas = append(metas, m)
		}
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].FirstSeq < metas[j].FirstSeq })
	for _, m := range metas {
		if m.FirstSeq <= l.seq {
			corrupt = append(corrupt, l.colPath(m.FirstSeq))
			continue
		}
		l.sealed = append(l.sealed, m)
		l.seq = m.LastSeq
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
	for i := range buffered {
		if buffered[i].Seq > l.seq {
			l.buf = append(l.buf, buffered[i])
			l.active.observe(&buffered[i])
			l.seq = buffered[i].Seq
		}
	}
	l.synced = len(l.buf)
	if len(l.buf) == 0 {
		l.fs.Remove(l.bufferPath()) //nolint:errcheck // best effort; every record it held is sealed
	}
	return l, nil
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
// seal's, and the record stays buffered either way (the next Append
// retries the seal).
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

// sealLocked commits the full buffer as segment file ev-<first>.col,
// starts a fresh buffer, and removes the buffer file, whose records the
// segment now holds. A crash before the removal leaves them in both,
// which Open resolves by ordinal. Caller holds l.mu.
func (l *Log) sealLocked() error {
	m, err := l.writeLocked(l.colPath(l.buf[0].Seq))
	if err != nil {
		return err
	}
	l.fs.Remove(l.bufferPath()) //nolint:errcheck // best effort; Open drops what the segment covers
	l.sealed = append(l.sealed, m)
	l.buf, l.active, l.synced = nil, segMeta{}, 0
	return nil
}

// Sync makes every appended record durable: the buffer is written to
// the buffer file (tmp + fsync, then a rename and a directory fsync —
// the commit point), replacing the previous one; it does nothing when
// nothing was appended since the last Sync or seal. If any step fails
// the error is returned, the previous buffer file stays in place, and
// the next Sync writes the buffer again. Callers that persist the
// eviction counter elsewhere (the serving layer's WAL snapshots) must
// Sync first, or a crash loses the records appended since for good.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buf) == l.synced {
		return nil
	}
	if _, err := l.writeLocked(l.bufferPath()); err != nil {
		return err
	}
	l.synced = len(l.buf)
	return nil
}

// writeLocked writes the buffer to path: to a temp file, fsynced, then
// renamed into place, and the directory fsynced so the rename survives
// power loss. Caller holds l.mu.
func (l *Log) writeLocked(path string) (segMeta, error) {
	m, err := writeSegment(l.fs, path+".tmp", l.buf, l.opt.BlockEvents)
	if err != nil {
		return segMeta{}, err
	}
	if err := l.fs.Rename(path+".tmp", path); err != nil {
		l.fs.Remove(path + ".tmp") //nolint:errcheck // best effort
		return segMeta{}, fmt.Errorf("archive: commit %s: %w", filepath.Base(path), err)
	}
	d, err := l.fs.Open(l.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return segMeta{}, fmt.Errorf("archive: sync %s: %w", l.dir, err)
	}
	return m, nil
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

// ColumnarSegmentCount returns how many segments are sealed on disk.
func (l *Log) ColumnarSegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed)
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

// Close is Sync; the Log holds no open files between calls.
func (l *Log) Close() error { return l.Sync() }

// ErrStop, returned by a ScanPred callback, stops the scan early without
// error — the LIMIT-pushdown signal.
var ErrStop = fmt.Errorf("archive: stop scan")

// ErrCorrupt marks structural damage inside an archive file — a CRC
// mismatch, a torn frame, a header or record count that disagrees with
// the index. Errors wrapping it are the quarantine signal: the damage is
// in the bytes, not the device, so retrying the read cannot help, but
// the rest of the archive is still good. Device-level read errors (EIO)
// deliberately do NOT wrap it.
var ErrCorrupt = errors.New("segment corrupt")

// quarantineSuffix is appended to a corrupt file's name. Open ignores
// the renamed file (wrong extension), so the damage survives for
// offline forensics without ever being served again.
const quarantineSuffix = ".quarantine"

// SegmentView is a point-in-time handle on one segment: the index
// bounds for planning (time-range, rank-floor, and Bloom data skipping)
// plus a record iterator. Views are snapshots — records appended to the
// buffer after Segments() returned are not visible through them, and a
// buffer view outlives the seal that empties the buffer.
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
	SkippedByTime    int // zone quantum range proved no match
	SkippedByRank    int // zone max PeakRank below the rank floor
	SkippedByKeyword int // zone Bloom filter refuted a keyword
	Records          int // records handed to the callback
}

// ScanPred streams the view's records to fn in eviction order: the
// buffer's straight from memory, a sealed segment's by zone-map skipping
// followed by a CRC-checked column-at-a-time decode of only the
// surviving blocks (see Pred for what the callback still must filter;
// Pred{To: -1} skips nothing). The *Record and its slices remain valid
// after fn returns, but the struct pointed to is reused — copy it to
// keep it. fn returning ErrStop ends the scan early (stopped=true,
// err=nil); any other error aborts and is returned. A data file whose
// header disagrees with the view, or a block that decodes to a different
// record count than its zone map states, is corruption and is reported
// as an error: silently truncating history would be worse than failing
// the query.
func (v *SegmentView) ScanPred(pred Pred, fn func(*Record) error) (bs BlockStats, stopped bool, err error) {
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
		return bs, false, fmt.Errorf("archive: open segment: %w", err)
	}
	defer f.Close()
	var hdrBuf [colHeaderLen]byte
	if err := readFull(f, hdrBuf[:], 0); err != nil {
		return bs, false, fmt.Errorf("archive: segment %d: %w", v.FirstSeq, err)
	}
	hdr, err := parseColHeader(hdrBuf[:])
	if err == nil && (hdr.firstSeq != v.FirstSeq || hdr.lastSeq != v.LastSeq || hdr.count != v.Count) {
		err = fmt.Errorf("header disagrees with the index: %w", ErrCorrupt)
	}
	if err == nil {
		bs.Blocks = len(v.zones)
		stopped, err = scanBlocks(f, v.zones, &pred, &bs, fn)
	}
	if err != nil {
		return bs, false, fmt.Errorf("archive: segment %d: %w", v.FirstSeq, err)
	}
	return bs, stopped, nil
}

// scanBlocks hands fn the records of every block in zones that pred does
// not rule out, reading the frames from f, and counts the work in bs.
func scanBlocks(f io.ReaderAt, zones []blockZone, pred *Pred, bs *BlockStats, fn func(*Record) error) (stopped bool, err error) {
	sc := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(sc)
	for zi := range zones {
		z := &zones[zi]
		switch z.skip(pred) {
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
			return false, err
		}
		n, err := decodeBlock(payload, sc, func(rec *Record) error {
			bs.Records++
			return fn(rec)
		})
		if err == ErrStop {
			return true, nil
		}
		if errors.Is(err, errBlockCorrupt) {
			err = fmt.Errorf("%w: %w", err, ErrCorrupt)
		}
		if err == nil && n != z.Count {
			err = fmt.Errorf("has %d of %d records: %w", n, z.Count, ErrCorrupt)
		}
		if err != nil {
			return false, fmt.Errorf("block at %d: %w", z.Off, err)
		}
	}
	return false, nil
}

// Segments snapshots the archive's segments — sealed ones, then the
// buffer when it holds records — in ascending-FirstSeq order. The
// metadata is copied under the lock and the records (immutable files;
// an append-only buffer) are read without it, so planning and scanning
// never block concurrent appends.
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
// buffer views and already-quarantined segments — there is nothing to
// remove).
func (l *Log) Quarantine(v *SegmentView) bool {
	if !v.Sealed {
		return false
	}
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

// QuarantinedSegments returns how many files this Log has quarantined
// since open.
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

func (l *Log) bufferPath() string { return filepath.Join(l.dir, bufferName) }
