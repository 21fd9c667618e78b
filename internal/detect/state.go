package detect

import (
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"

	"repro/internal/akg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// checkpointMagic tags the checkpoint format Save writes, and a
// DetectorState that FromState accepts. The layout is in Save's comment;
// the gob format before it is read by loadV1.
const checkpointMagic = "repro-detector-v2"

// EventSnapshot is the serialisable form of an Event (AllKeywords
// flattened to a sorted slice; the lifecycle enum stored as an int).
type EventSnapshot struct {
	ID            uint64
	ClusterID     core.ClusterID
	BornQuantum   int
	LastQuantum   int
	Keywords      []string
	Rank          float64
	RankHistory   []float64
	PeakRank      float64
	Evolved       bool
	MergedInto    uint64
	SplitFrom     uint64
	Lifecycle     int
	Support       int
	Size          int
	Reported      bool
	FirstReported int
	AllKeywords   []string
	ExactMQC      bool
}

// DetectorState is a full checkpoint of a Detector: feed the same
// remaining stream to a restored detector and it produces exactly the
// same events as an uninterrupted run.
type DetectorState struct {
	Magic     string
	Cfg       Config
	Words     []string
	NounSeen  []dygraph.NodeID
	AKG       akg.State
	Events    []EventSnapshot
	Finished  []EventSnapshot
	NextEvent uint64
	Processed uint64
	// Trimmed is the cumulative TrimFinished eviction count; restoring it
	// keeps eviction ordinals stable across a snapshot + WAL replay, so
	// the archive can deduplicate re-evicted events exactly.
	Trimmed uint64
	Pending []stream.Message // partial quantum buffered at snapshot time
	// Time-quantizer grid position (meaningful when Cfg.QuantumTime > 0).
	TQStart   int64
	TQStarted bool
}

func snapshotEvent(ev *Event) EventSnapshot {
	return EventSnapshot{
		ID:            ev.ID,
		ClusterID:     ev.ClusterID,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Keywords:      append([]string(nil), ev.Keywords...),
		Rank:          ev.Rank,
		RankHistory:   append([]float64(nil), ev.RankHistory...),
		PeakRank:      ev.PeakRank,
		Evolved:       ev.Evolved,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Lifecycle:     int(ev.State),
		Support:       ev.Support,
		Size:          ev.Size,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		AllKeywords:   append(make([]string, 0, len(ev.AllKeywords)), ev.KeywordHistory()...),
		ExactMQC:      ev.ExactMQC,
	}
}

func restoreEvent(s EventSnapshot) *Event {
	all := make(map[string]struct{}, len(s.AllKeywords))
	for _, kw := range s.AllKeywords {
		all[kw] = struct{}{}
	}
	return &Event{
		ID:            s.ID,
		ClusterID:     s.ClusterID,
		BornQuantum:   s.BornQuantum,
		LastQuantum:   s.LastQuantum,
		Keywords:      append([]string(nil), s.Keywords...),
		Rank:          s.Rank,
		RankHistory:   append([]float64(nil), s.RankHistory...),
		PeakRank:      s.PeakRank,
		Evolved:       s.Evolved,
		MergedInto:    s.MergedInto,
		SplitFrom:     s.SplitFrom,
		State:         EventState(s.Lifecycle),
		Support:       s.Support,
		Size:          s.Size,
		Reported:      s.Reported,
		FirstReported: s.FirstReported,
		AllKeywords:   all,
		ExactMQC:      s.ExactMQC,
		history:       slices.Sorted(maps.Keys(all)),
	}
}

// State captures the detector. Must be called at a quantum boundary or
// before the first message of a quantum; buffered partial-quantum
// messages are included, so any point is actually safe.
func (d *Detector) State() DetectorState {
	s := DetectorState{
		Magic:     checkpointMagic,
		Cfg:       d.cfg,
		Words:     d.interner.WordList(),
		AKG:       d.akg.State(),
		NextEvent: d.nextEvent,
		Processed: d.processed,
		Trimmed:   d.trimmed,
	}
	for id, seen := range d.nounSeen {
		if seen {
			s.NounSeen = append(s.NounSeen, dygraph.NodeID(id))
		}
	}
	// Live events sorted by cluster ID for deterministic snapshots.
	for _, cid := range slices.Sorted(maps.Keys(d.events)) {
		s.Events = append(s.Events, snapshotEvent(d.events[cid]))
	}
	for _, ev := range d.finished {
		s.Finished = append(s.Finished, snapshotEvent(ev))
	}
	if d.tquant != nil {
		s.Pending = append(s.Pending, d.tquant.Buffered()...)
		s.TQStart, s.TQStarted = d.tquant.Pos()
	} else {
		s.Pending = append(s.Pending, d.quant.Buffered()...)
	}
	return s
}

// FromState reconstructs a detector from a checkpoint.
func FromState(s DetectorState) (*Detector, error) {
	if s.Magic != checkpointMagic {
		return nil, fmt.Errorf("detect: bad checkpoint magic %q", s.Magic)
	}
	d, hooks := newDetector(s.Cfg, textproc.FromWordList(s.Words))
	d.nextEvent, d.processed, d.trimmed = s.NextEvent, s.Processed, s.Trimmed
	if d.tquant != nil {
		d.tquant.Resume(s.TQStart, s.TQStarted)
	}
	// Keyword IDs index dense tables here and in the AKG layer, so none
	// may lie beyond the vocabulary the checkpoint itself carries.
	maxID := dygraph.NodeID(d.interner.Size())
	a, err := akg.FromState(s.AKG, hooks, maxID)
	if err != nil {
		return nil, err
	}
	d.akg = a
	d.growNounSeen()
	for _, id := range s.NounSeen {
		if id > maxID {
			return nil, fmt.Errorf("detect: noun-seen keyword %d beyond the vocabulary (%d)", id, maxID)
		}
		d.nounSeen[id] = true
	}
	for _, es := range s.Events {
		ev := restoreEvent(es)
		c := d.akg.Engine().Cluster(ev.ClusterID)
		if c == nil {
			return nil, fmt.Errorf("detect: event %d references missing cluster %d", ev.ID, ev.ClusterID)
		}
		// The user community is derived state: a checkpoint carries only
		// its size (Support), the restored window rebuilds the members.
		d.nodeScratch = c.AppendNodes(d.nodeScratch[:0])
		ev.users = d.unionUsers(d.nodeScratch)
		d.events[ev.ClusterID] = ev
	}
	for _, es := range s.Finished {
		d.finished = append(d.finished, restoreEvent(es))
	}
	for _, m := range s.Pending {
		if d.tquant != nil {
			// Checked before Add, which would cut one empty quantum per
			// period of a gap, however long.
			if d.tquant.Closes(m.Time) {
				return nil, fmt.Errorf("detect: checkpoint pending buffer crosses a time-quantum boundary")
			}
			d.tquant.Add(m)
		} else if batch := d.quant.Add(m); batch != nil {
			return nil, fmt.Errorf("detect: checkpoint pending buffer holds a full quantum")
		}
	}
	return d, nil
}

// Save writes a checkpoint: a framed image (codec.NewWriter) tagged
// checkpointMagic, streamed from the live structures through one
// frame-sized buffer, without a DetectorState or the whole image in
// memory. The payload, in order:
//
//   - the configuration (writeConfig);
//   - NextEvent, Processed and Trimmed;
//   - the word list: a count, then each word length-prefixed, in ID order
//     from ID 1;
//   - nounSeen as a bitmap over IDs 0 to the word count, bit i of byte
//     i/8 for ID i, the padding bits zero;
//   - the AKG layer (akg.AKG.Encode): quantum, window ring, engine graph
//     and clusters;
//   - the live events in cluster-ID order, then the finished events, each
//     list a count and then writeEvent's records;
//   - the pending partial quantum in the WAL's message layout: a count,
//     then per message uvarint ID, uvarint User, zigzag Time and the
//     length-prefixed text;
//   - the time quantizer's position: zigzag start, then a started byte.
//
// Counts, lengths, IDs and users are uvarints, signed values zigzag
// varints, floats their 8 IEEE 754 bytes little-endian, booleans a 0 or
// 1 byte. Equal detectors write equal bytes.
func (d *Detector) Save(w io.Writer) error {
	cw := codec.NewWriter(w, checkpointMagic)
	writeConfig(cw, d.cfg)
	cw.Uvarint(d.nextEvent)
	cw.Uvarint(d.processed)
	cw.Uvarint(d.trimmed)

	words := d.interner.Size()
	cw.Uvarint(uint64(words))
	for id := 1; id <= words; id++ {
		cw.String(d.interner.Word(dygraph.NodeID(id)))
	}
	var mask byte
	for id := 0; id <= words; id++ {
		if d.NounSeen(dygraph.NodeID(id)) {
			mask |= 1 << (id % 8)
		}
		if id%8 == 7 || id == words {
			cw.Byte(mask)
			mask = 0
		}
	}

	d.akg.Encode(cw)

	cids := slices.Sorted(maps.Keys(d.events))
	cw.Uvarint(uint64(len(cids)))
	for _, cid := range cids {
		writeEvent(cw, d.events[cid])
	}
	cw.Uvarint(uint64(len(d.finished)))
	for _, ev := range d.finished {
		writeEvent(cw, ev)
	}

	var pending []stream.Message
	var tqStart int64
	var tqStarted bool
	if d.tquant != nil {
		pending = d.tquant.Buffered()
		tqStart, tqStarted = d.tquant.Pos()
	} else {
		pending = d.quant.Buffered()
	}
	cw.Uvarint(uint64(len(pending)))
	for i := range pending {
		m := &pending[i]
		cw.Uvarint(m.ID)
		cw.Uvarint(m.User)
		cw.Varint(m.Time)
		cw.String(m.Text)
	}
	cw.Varint(tqStart)
	cw.Bool(tqStarted)
	if err := cw.Close(); err != nil {
		return fmt.Errorf("detect: write checkpoint: %w", err)
	}
	return nil
}

// writeConfig writes Delta, QuantumTime, the AKG layer's Tau, Beta,
// Window, P, Seed, MinHashOnly and NoMinHashScreen, SpuriousFactor,
// DisableNounFilter, and the synonym table as a count and then (variant,
// canonical) string pairs in variant order.
func writeConfig(w *codec.Writer, c Config) {
	w.Varint(int64(c.Delta))
	w.Varint(c.QuantumTime)
	w.Varint(int64(c.AKG.Tau))
	w.Float64(c.AKG.Beta)
	w.Varint(int64(c.AKG.Window))
	w.Varint(int64(c.AKG.P))
	w.Uvarint(c.AKG.Seed)
	w.Bool(c.AKG.MinHashOnly)
	w.Bool(c.AKG.NoMinHashScreen)
	w.Float64(c.SpuriousFactor)
	w.Bool(c.DisableNounFilter)
	w.Uvarint(uint64(len(c.Synonyms)))
	for _, word := range slices.Sorted(maps.Keys(c.Synonyms)) {
		w.String(word)
		w.String(c.Synonyms[word])
	}
}

func readConfig(r *codec.Reader) Config {
	var c Config
	c.Delta = r.Int()
	c.QuantumTime = r.Varint()
	c.AKG.Tau = r.Int()
	c.AKG.Beta = r.Float64()
	c.AKG.Window = r.Int()
	c.AKG.P = r.Int()
	c.AKG.Seed = r.Uvarint()
	c.AKG.MinHashOnly = r.Bool()
	c.AKG.NoMinHashScreen = r.Bool()
	c.SpuriousFactor = r.Float64()
	c.DisableNounFilter = r.Bool()
	if n := r.Count(2); n > 0 {
		c.Synonyms = make(map[string]string, n)
		for range n {
			word := r.String()
			c.Synonyms[word] = r.String()
		}
	}
	return c
}

// Event flag bits.
const (
	flagEvolved = 1 << iota
	flagReported
	flagExactMQC
)

// minEventBytes is the smallest event record: thirteen one-byte varints
// and counts, the flag byte and two 8-byte ranks.
const minEventBytes = 30

// writeEvent writes ID, ClusterID, BornQuantum, LastQuantum, Keywords
// (count, then strings), Rank, RankHistory (count, then floats),
// PeakRank, a flag byte (Evolved, Reported, ExactMQC from bit 0),
// MergedInto, SplitFrom, the lifecycle state, Support, Size,
// FirstReported and the keyword history (count, then strings).
func writeEvent(w *codec.Writer, ev *Event) {
	w.Uvarint(ev.ID)
	w.Uvarint(uint64(ev.ClusterID))
	w.Varint(int64(ev.BornQuantum))
	w.Varint(int64(ev.LastQuantum))
	w.Uvarint(uint64(len(ev.Keywords)))
	for _, kw := range ev.Keywords {
		w.String(kw)
	}
	w.Float64(ev.Rank)
	w.Uvarint(uint64(len(ev.RankHistory)))
	for _, r := range ev.RankHistory {
		w.Float64(r)
	}
	w.Float64(ev.PeakRank)
	var flags byte
	if ev.Evolved {
		flags |= flagEvolved
	}
	if ev.Reported {
		flags |= flagReported
	}
	if ev.ExactMQC {
		flags |= flagExactMQC
	}
	w.Byte(flags)
	w.Uvarint(ev.MergedInto)
	w.Uvarint(ev.SplitFrom)
	w.Varint(int64(ev.State))
	w.Varint(int64(ev.Support))
	w.Varint(int64(ev.Size))
	w.Varint(int64(ev.FirstReported))
	history := ev.KeywordHistory()
	w.Uvarint(uint64(len(history)))
	for _, kw := range history {
		w.String(kw)
	}
}

func readEvents(r *codec.Reader) []EventSnapshot {
	evs := make([]EventSnapshot, r.Count(minEventBytes))
	for i := range evs {
		e := &evs[i]
		e.ID = r.Uvarint()
		e.ClusterID = core.ClusterID(r.Uvarint())
		e.BornQuantum = r.Int()
		e.LastQuantum = r.Int()
		e.Keywords = r.Strings(nil, r.Count(1))
		e.Rank = r.Float64()
		e.RankHistory = make([]float64, r.Count(8))
		for j := range e.RankHistory {
			e.RankHistory[j] = r.Float64()
		}
		e.PeakRank = r.Float64()
		flags := r.Byte()
		if flags&^(flagEvolved|flagReported|flagExactMQC) != 0 {
			r.Fail(fmt.Errorf("event %d: unknown flags %#x", e.ID, flags))
		}
		e.Evolved = flags&flagEvolved != 0
		e.Reported = flags&flagReported != 0
		e.ExactMQC = flags&flagExactMQC != 0
		e.MergedInto = r.Uvarint()
		e.SplitFrom = r.Uvarint()
		e.Lifecycle = r.Int()
		e.Support = r.Int()
		e.Size = r.Int()
		e.FirstReported = r.Int()
		e.AllKeywords = r.Strings(nil, r.Count(1))
	}
	return evs
}

// decodeState reads a checkpoint's payload (what Save wrote after the
// magic, unframed) into a DetectorState for FromState to validate.
func decodeState(payload []byte) (DetectorState, error) {
	r := codec.NewReader(payload)
	s := DetectorState{Magic: checkpointMagic, Cfg: readConfig(&r)}
	s.NextEvent = r.Uvarint()
	s.Processed = r.Uvarint()
	s.Trimmed = r.Uvarint()

	words := r.Count(1)
	s.Words = r.Strings(make([]string, 0, words), words)
	bitmap := r.Next(words/8 + 1)
	for i, b := range bitmap {
		for b != 0 {
			id := 8*i + bits.TrailingZeros8(b)
			if id > words {
				r.Fail(fmt.Errorf("noun-seen bitmap sets bit %d past the %d words", id, words))
				break
			}
			s.NounSeen = append(s.NounSeen, dygraph.NodeID(id))
			b &= b - 1
		}
	}

	s.AKG = akg.DecodeState(&r, s.Cfg.AKG)
	s.Events = readEvents(&r)
	s.Finished = readEvents(&r)

	s.Pending = make([]stream.Message, r.Count(4)) // four one-byte fields and an empty text
	for i := range s.Pending {
		m := &s.Pending[i]
		m.ID = r.Uvarint()
		m.User = r.Uvarint()
		m.Time = r.Varint()
		m.Text = r.String()
	}
	s.TQStart = r.Varint()
	s.TQStarted = r.Bool()
	return s, r.End()
}

// Load reads a checkpoint written by Save — or by the gob format before
// it (loadV1) — and reconstructs the detector. It reads exactly the
// checkpoint's bytes, so whatever follows in r stays unread. A reader
// that tells its length (Len, as bytes.Reader does) is read as LoadSized
// reads it.
func Load(r io.Reader) (*Detector, error) {
	size := 0
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	return LoadSized(r, size)
}

// LoadSized is Load for a reader whose length the caller knows: size is
// how many bytes r holds — exactly or as an upper bound, such as the
// size of the snapshot file the checkpoint starts — or 0 when unknown.
// A known size lets the checkpoint's payload be read into one
// allocation instead of being grown frame by frame.
func LoadSized(r io.Reader, size int) (*Detector, error) {
	head := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("detect: read checkpoint: %w", err)
	}
	if string(head) != checkpointMagic {
		return loadV1(head, r)
	}
	payload, err := codec.ReadFrames(r, checkpointMagic, max(size-len(head), 0))
	if err != nil {
		return nil, fmt.Errorf("detect: read checkpoint: %w", err)
	}
	s, err := decodeState(payload)
	if err != nil {
		return nil, fmt.Errorf("detect: decode checkpoint: %w", err)
	}
	return FromState(s)
}
