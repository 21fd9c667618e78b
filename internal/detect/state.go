package detect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/bits"
	"slices"

	"repro/internal/akg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// checkpointMagic tags the checkpoint format Save writes and Load
// reads. The layout is in Save's comment.
const checkpointMagic = "repro-detector-v2"

// Save writes a checkpoint: a framed image (codec.NewWriter) tagged
// checkpointMagic, streamed from the live structures through one
// frame-sized buffer, without the whole image in memory. The payload, in
// order:
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
	for word := range d.interner.All() {
		cw.String(word)
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

// readEvent reads what writeEvent wrote. A live event's user community
// is not in the checkpoint: the caller derives it from the cluster.
func readEvent(r *codec.Reader) *Event {
	ev := &Event{ID: r.Uvarint()}
	ev.ClusterID = core.ClusterID(r.Uvarint())
	ev.BornQuantum = r.Int()
	ev.LastQuantum = r.Int()
	ev.Keywords = r.Strings(nil, r.Count(1))
	ev.Rank = r.Float64()
	ev.RankHistory = make([]float64, r.Count(8))
	for j := range ev.RankHistory {
		ev.RankHistory[j] = r.Float64()
	}
	ev.PeakRank = r.Float64()
	flags := r.Byte()
	if flags&^(flagEvolved|flagReported|flagExactMQC) != 0 {
		r.Fail(fmt.Errorf("event %d: unknown flags %#x", ev.ID, flags))
	}
	ev.Evolved = flags&flagEvolved != 0
	ev.Reported = flags&flagReported != 0
	ev.ExactMQC = flags&flagExactMQC != 0
	ev.MergedInto = r.Uvarint()
	ev.SplitFrom = r.Uvarint()
	ev.State = EventState(r.Int())
	ev.Support = r.Int()
	ev.Size = r.Int()
	ev.FirstReported = r.Int()
	ev.history = r.Strings(nil, r.Count(1))
	ev.AllKeywords = make(map[string]struct{}, len(ev.history))
	for _, kw := range ev.history {
		ev.AllKeywords[kw] = struct{}{}
	}
	if len(ev.AllKeywords) != len(ev.history) || !slices.IsSorted(ev.history) {
		ev.history = slices.Sorted(maps.Keys(ev.AllKeywords))
	}
	return ev
}

// gobCheckpointMark is in the first bytes of every repro-detector-v1
// checkpoint: gob sends a type's definition before its first value, and
// the definition of DetectorState, the gob-encoded struct, begins with
// its name.
const gobCheckpointMark = "DetectorSt"

// Load reads a checkpoint written by Save and reconstructs the detector.
// It reads exactly the checkpoint's bytes, so whatever follows in r
// stays unread. A reader that tells its length (Len, as bytes.Reader
// does) is read as LoadSized reads it.
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
//
// A gob checkpoint (repro-detector-v1), the format before Save's, is
// refused with an error that says how to move past it.
func LoadSized(r io.Reader, size int) (*Detector, error) {
	head := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("detect: read checkpoint: %w", err)
	}
	switch {
	case bytes.Contains(head, []byte(gobCheckpointMark)):
		return nil, errors.New("detect: the checkpoint is a retired gob checkpoint (repro-detector-v1), which this build does not read; " +
			"start the previous build once on this directory and stop it cleanly, so that it writes the checkpoint again as " +
			checkpointMagic + ", then start this one")
	case string(head) != checkpointMagic:
		return nil, fmt.Errorf("detect: bad checkpoint magic %q", head)
	}
	payload, err := codec.ReadFrames(r, checkpointMagic, max(size-len(head), 0))
	if err != nil {
		return nil, fmt.Errorf("detect: read checkpoint: %w", err)
	}
	pr := codec.NewReader(payload)
	d := decode(&pr)
	if err := pr.End(); err != nil {
		return nil, fmt.Errorf("detect: decode checkpoint: %w", err)
	}
	return d, nil
}

// decode reads a checkpoint's payload (what Save wrote after the magic,
// unframed) straight into a detector. Keyword IDs index dense tables
// here and in the AKG layer, so none may lie beyond the vocabulary the
// checkpoint itself carries. Whatever fails r, the detector returned is
// not to be used.
func decode(r *codec.Reader) *Detector {
	cfg := readConfig(r)
	nextEvent, processed, trimmed := r.Uvarint(), r.Uvarint(), r.Uvarint()
	words := r.Count(1)
	list := r.Strings(make([]string, 0, words), words)
	if r.Err() != nil {
		return nil
	}
	d, hooks := newDetector(cfg, textproc.FromWordList(list))
	d.nextEvent, d.processed, d.trimmed = nextEvent, processed, trimmed
	maxID := d.interner.Size() // below words if the list repeats a word

	d.growNounSeen()
	for i, b := range r.Next(words/8 + 1) {
		for ; b != 0; b &= b - 1 {
			id := 8*i + bits.TrailingZeros8(b)
			if id > maxID {
				r.Fail(fmt.Errorf("noun-seen bitmap sets keyword %d beyond the vocabulary (%d)", id, maxID))
				break
			}
			d.nounSeen[id] = true
		}
	}

	d.akg = akg.Decode(r, d.cfg.AKG, hooks, dygraph.NodeID(maxID))
	if r.Err() != nil {
		return nil
	}
	// Snapshots hand the query engine both lists as its (LastQuantum, ID)
	// order: live events at the checkpoint's quantum, the finished ones
	// strictly ascending below it.
	quantum := d.akg.Quantum()
	for range r.Count(minEventBytes) {
		ev := readEvent(r)
		if r.Err() != nil {
			return nil
		}
		if ev.LastQuantum != quantum {
			r.Fail(fmt.Errorf("live event %d was last seen at quantum %d, not at the checkpoint's quantum %d",
				ev.ID, ev.LastQuantum, quantum))
			return nil
		}
		c := d.akg.Engine().Cluster(ev.ClusterID)
		if c == nil {
			r.Fail(fmt.Errorf("event %d references missing cluster %d", ev.ID, ev.ClusterID))
			return nil
		}
		d.nodeScratch = c.AppendNodes(d.nodeScratch[:0])
		ev.users = d.unionUsers(d.nodeScratch)
		d.events[ev.ClusterID] = ev
	}
	d.finished = make([]*Event, r.Count(minEventBytes))
	prev := &Event{LastQuantum: math.MinInt}
	for i := range d.finished {
		ev := readEvent(r)
		switch {
		case ev.LastQuantum >= quantum:
			r.Fail(fmt.Errorf("finished event %d was last seen at quantum %d, not before the checkpoint's quantum %d",
				ev.ID, ev.LastQuantum, quantum))
		case ev.LastQuantum < prev.LastQuantum || ev.LastQuantum == prev.LastQuantum && ev.ID <= prev.ID:
			r.Fail(fmt.Errorf("finished events out of (LastQuantum, ID) order: event %d at quantum %d follows event %d at quantum %d",
				ev.ID, ev.LastQuantum, prev.ID, prev.LastQuantum))
		}
		d.finished[i], prev = ev, ev
	}

	// The pending quantum comes before the quantizer's position, which
	// it is checked against.
	pending := make([]stream.Message, r.Count(4)) // four one-byte fields and an empty text
	for i := range pending {
		m := &pending[i]
		m.ID = r.Uvarint()
		m.User = r.Uvarint()
		m.Time = r.Varint()
		m.Text = r.String()
	}
	tqStart, tqStarted := r.Varint(), r.Bool()
	if r.Err() != nil {
		return nil
	}
	if d.tquant != nil {
		d.tquant.Resume(tqStart, tqStarted)
	}
	for _, m := range pending {
		if d.tquant != nil {
			// Checked before Add, which would cut one empty quantum per
			// period of a gap, however long.
			if d.tquant.Closes(m.Time) {
				r.Fail(errors.New("pending buffer crosses a time-quantum boundary"))
				return nil
			}
			d.tquant.Add(m)
		} else if batch := d.quant.Add(m); batch != nil {
			r.Fail(errors.New("pending buffer holds a full quantum"))
			return nil
		}
	}
	return d
}
