// Package archive is the queryable history of finished events. The
// serving layer's retention policy evicts finished events from detector
// memory (detect.TrimFinished); instead of losing them, an eviction hook
// appends each one here. Appended records sit in an in-memory buffer —
// the active segment, visible to queries at once — until it is full;
// then a seal writes it out as one columnar segment file ending in an
// index of zone maps and keyword Bloom filters, so time-range, rank and
// keyword queries skip the segments and blocks that cannot match and
// decode only the rest (the data-skipping idea of provenance-pruned
// scans, applied to event history). Between seals the buffer is made
// durable by whoever persists the eviction counter: WriteBuffer encodes
// it as the same segment image, and the serving layer writes that into
// each WAL snapshot.
//
// A tenant's archive directory holds one file per sealed segment, named
// by its first record (segment2.go has the layout):
//
//	ev-00000000000000000001.col   records 1..k: header, blocks, index
//
// Records carry a 1-based eviction ordinal (Seq) matching the
// detector's cumulative trim counter, which makes appends idempotent
// across WAL replays: a replayed eviction whose ordinal the archive
// already holds is dropped. That is also the crash story of the buffer:
// the WAL snapshot carries the buffer as it stood at the counter it
// saves, RestoreBuffer hands it back, and replay of the WAL tail
// re-evicts everything since.
package archive

import (
	"errors"
	"fmt"
	"io"
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

const (
	segPrefix = "ev-"
	// bufferName is the file earlier builds rewrote with the buffer
	// before each WAL snapshot; Open refuses a directory still holding
	// one.
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
	seq    uint64 // last appended ordinal
	gaps   uint64 // ordinal gaps observed (records lost before a crash)
	// quarantined counts files renamed aside after hitting corruption —
	// history the service keeps serving around.
	quarantined uint64
}

// Open opens (creating if needed) an archive directory. It reads each
// sealed segment's header and index and sweeps the temp files a crash
// left; the buffer starts empty, for RestoreBuffer to refill. A segment
// whose header or index is damaged is quarantined, as a scan that finds
// a damaged block does, and so is a segment overlapping an earlier one,
// which nothing in this package writes. A directory holding a file of a
// retired layout — a JSON-lines ev-*.jsonl, a .col.meta.json sidecar, a
// .col of format version 1, or a buffer.col — is refused with an error
// naming the file, before anything in it changes: this build has no
// reader for them.
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
		if name == bufferName || strings.HasPrefix(name, segPrefix) &&
			(strings.HasSuffix(name, ".jsonl") || strings.HasSuffix(name, colExt+".meta.json")) {
			return nil, fmt.Errorf("archive: %s belongs to an older archive layout, which this build cannot read "+
				"(docs/PERSISTENCE.md: retired layouts)", path)
		}
		stem, isCol := strings.CutSuffix(name, colExt)
		num, isSeg := strings.CutPrefix(stem, segPrefix)
		start, perr := strconv.ParseUint(num, 10, 64)
		if !isCol || !isSeg || perr != nil {
			continue
		}
		m, err := loadSegment(l.fs, path)
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

// sealLocked commits the full buffer as segment file ev-<first>.col and
// starts a fresh buffer. The image is written to a temp file, fsynced,
// renamed into place, and the directory fsynced so the rename survives
// power loss. If any step fails the error is returned and the records
// stay buffered. Caller holds l.mu.
func (l *Log) sealLocked() error {
	m, b, err := encodeSegment(l.buf, l.opt.BlockEvents)
	if err != nil {
		return err
	}
	path := l.colPath(m.FirstSeq)
	f, err := l.fs.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(b)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = l.fs.Rename(path+".tmp", path)
		}
		if err != nil {
			l.fs.Remove(path + ".tmp") //nolint:errcheck // best effort
		}
	}
	if err != nil {
		return fmt.Errorf("archive: write %s: %w", filepath.Base(path), err)
	}
	d, err := l.fs.Open(l.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("archive: sync %s: %w", l.dir, err)
	}
	l.sealed = append(l.sealed, m)
	l.buf, l.active = nil, segMeta{}
	return nil
}

// WriteBuffer writes the buffer to w as one segment image — the bytes a
// seal would commit as a file — and nothing when the buffer is empty.
// The serving layer writes it into each WAL snapshot, after the detector
// state whose eviction counter the buffered records end at.
func (l *Log) WriteBuffer(w io.Writer) error {
	l.mu.Lock()
	recs := l.buf[:len(l.buf):len(l.buf)] // append-only: these never change
	l.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	_, b, err := encodeSegment(recs, l.opt.BlockEvents)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// RestoreBuffer reads the rest of r — an image WriteBuffer wrote, or
// nothing — and hands each of its records to Append, which drops the
// ordinals a segment sealed since already holds. A read error, or an
// image that fails its checks (an error wrapping ErrCorrupt), is
// returned and nothing is appended. An Append error — a failed seal,
// whose records stay buffered — goes to sealFailed.
func (l *Log) RestoreBuffer(r io.Reader, sealFailed func(error)) error {
	image, err := io.ReadAll(r)
	var recs []Record
	if err == nil && len(image) > 0 {
		recs, err = decodeSegment(image)
	}
	if err != nil {
		return fmt.Errorf("archive: buffer image: %w", err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			sealFailed(err)
		}
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

// Close does nothing: the Log holds no open files between calls, and
// the buffer is durable only through the snapshot that carries its
// image (WriteBuffer). It stays for the benchmark module, which calls
// it.
func (l *Log) Close() error { return nil }

// ErrStop, returned by a scan's callback, stops the scan early without
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
// plus its records: a sealed segment's through its decoded blocks, the
// buffer's as they stand in memory. Views are snapshots — records
// appended to the buffer after Segments() returned are not visible
// through them, and a buffer view outlives the seal that empties the
// buffer.
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

// Pred is the predicate a scan pushes below segment granularity: it
// skips whole blocks whose zone maps prove no record can match. The
// records it hands over are NOT individually filtered — block skipping
// is conservative, so callers apply their own record-level filter.
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

// BlockStats reports one scan's block-level work: how many blocks the
// segment holds, how many were read, and why the rest were skipped
// without touching the data file. The buffer counts as one block.
type BlockStats struct {
	Blocks           int // blocks covered by the view
	Scanned          int // blocks read and decoded
	SkippedByTime    int // zone quantum range proved no match
	SkippedByRank    int // zone max PeakRank below the rank floor
	SkippedByKeyword int // zone Bloom filter refuted a keyword
	Records          int // records decoded and handed over
}

// Records returns a buffer view's records, in eviction order, and nil
// for a sealed view. They are shared with the Log and never change:
// read them, do not write them.
func (v *SegmentView) Records() []Record { return v.recs }

// ScanPred streams the view's records to fn in eviction order: the
// buffer's straight from memory, a sealed segment's materialised from
// the blocks ScanBlocks decodes (see Pred for what the callback still
// must filter; Pred{To: -1} skips nothing). The *Record and its slices
// remain valid after fn returns, but the struct pointed to is reused —
// copy it to keep it. fn returning ErrStop ends the scan early
// (stopped=true, err=nil); any other error aborts and is returned.
// Readers that can work on columns use ScanBlocks and skip the Records;
// ScanPred remains for the benchmark module's archive read layer and
// goes once that layer scans blocks.
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
	var rec Record
	return v.ScanBlocks(pred, func(b *Block) error {
		defer b.Release()
		for i := 0; i < b.Len(); i++ {
			rec = b.Record(i)
			if err := fn(&rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// ScanBlocks hands fn, in eviction order, each block of a sealed
// segment that pred does not rule out on its zone map, read and
// CRC-checked, then decoded column-at-a-time into a pooled Block. fn
// owns the Block: it may keep it past its return, and calls Release
// once nothing reads it (a Block never released is left to the
// collector). BlockStats.Records counts the rows of every Block handed
// over. fn returning ErrStop ends the scan early (stopped=true,
// err=nil); any other error aborts and is returned. A data file whose
// header disagrees with the view, or a block that decodes to a different
// record count than its zone map states, is corruption and is reported
// as an error: silently truncating history would be worse than failing
// the query. A buffer view has no blocks (read its Records); scanning
// one is an error.
func (v *SegmentView) ScanBlocks(pred Pred, fn func(*Block) error) (bs BlockStats, stopped bool, err error) {
	if !v.Sealed {
		return bs, false, errors.New("archive: ScanBlocks of the in-memory buffer")
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

// framePool recycles the buffers scanBlocks reads block frames into.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// scanBlocks hands fn every block in zones that pred does not rule out,
// reading the frames from f and decoding each into a pooled Block that
// fn then owns, and counts the work in bs.
func scanBlocks(f io.ReaderAt, zones []blockZone, pred *Pred, bs *BlockStats, fn func(*Block) error) (stopped bool, err error) {
	frame := framePool.Get().(*[]byte)
	defer framePool.Put(frame)
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
		payload, err := readFrame(f, z, frame)
		if err != nil {
			return false, err
		}
		b := blockPool.Get().(*Block)
		err = decodeBlock(payload, b)
		if err != nil {
			err = fmt.Errorf("%w: %w", err, ErrCorrupt)
		} else if b.Len() != z.Count || b.Seq[0] != z.FirstSeq || b.Seq[b.Len()-1] != z.LastSeq {
			err = fmt.Errorf("has %d of %d records in seqs [%d, %d]: %w", b.Len(), z.Count, z.FirstSeq, z.LastSeq, ErrCorrupt)
		}
		if err != nil {
			b.Release()
			return false, fmt.Errorf("block at %d: %w", z.Off, err)
		}
		bs.Records += b.Len()
		if err := fn(b); err == ErrStop {
			return true, nil
		} else if err != nil {
			return false, err
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
