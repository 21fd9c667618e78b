package detect

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"repro/internal/akg"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/stream"
)

// EventSnapshot is the plain-data form of an Event (AllKeywords
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

// DetectorState is everything a checkpoint says about a Detector, as
// plain data: the tests' oracle. The canonical golden walks it,
// equivalence tests compare it with reflect.DeepEqual, and writeState
// turns it, corrupted at will, into the bytes Load reads.
type DetectorState struct {
	Cfg       Config
	Words     []string
	NounSeen  []dygraph.NodeID
	AKG       akg.State
	Events    []EventSnapshot
	Finished  []EventSnapshot
	NextEvent uint64
	Processed uint64
	Trimmed   uint64
	Pending   []stream.Message // partial quantum buffered at snapshot time
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

// State captures the detector, a deep copy: live events in cluster-ID
// order, the buffered partial quantum included.
func (d *Detector) State() DetectorState {
	s := DetectorState{
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

// writeState writes s as a whole checkpoint in Save's layout, from the
// plain data rather than a live detector, so that a test can corrupt any
// field the layout carries. The AKG members (State.AKG.Present) are not
// in the layout. A noun-seen ID must fit the bitmap, whose last byte
// may have padding bits past the word count.
func writeState(t testing.TB, s DetectorState) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, checkpointMagic)
	writeConfig(w, s.Cfg)
	w.Uvarint(s.NextEvent)
	w.Uvarint(s.Processed)
	w.Uvarint(s.Trimmed)
	w.Uvarint(uint64(len(s.Words)))
	for _, word := range s.Words {
		w.String(word)
	}
	bitmap := make([]byte, len(s.Words)/8+1)
	for _, id := range s.NounSeen {
		if int(id/8) >= len(bitmap) {
			t.Fatalf("noun-seen ID %d does not fit a bitmap of %d bytes", id, len(bitmap))
		}
		bitmap[id/8] |= 1 << (id % 8)
	}
	w.Write(bitmap)

	w.Varint(int64(s.AKG.Quantum))
	w.Uvarint(uint64(len(s.AKG.Ring)))
	for _, q := range s.AKG.Ring {
		codec.WriteAscending(w, q.Keywords)
		for _, users := range q.Users {
			codec.WriteAscending(w, users)
		}
	}
	en := s.AKG.Engine
	codec.WriteAscending(w, en.Graph.Nodes)
	w.Uvarint(uint64(len(en.Graph.Edges)))
	var ew dygraph.EdgeWriter
	for i, e := range en.Graph.Edges {
		ew.Put(w, e)
		w.Float64(en.Graph.Weights[i])
	}
	w.Uvarint(uint64(len(en.Clusters)))
	var prev core.ClusterID
	for _, c := range en.Clusters {
		w.Uvarint(uint64(c.ID - prev))
		prev = c.ID
		w.Uvarint(c.Birth)
		w.Uvarint(uint64(len(c.Edges)))
		var ew dygraph.EdgeWriter
		for _, e := range c.Edges {
			ew.Put(w, e)
		}
	}
	w.Uvarint(uint64(en.NextID))
	w.Uvarint(en.Ops)

	for _, evs := range [][]EventSnapshot{s.Events, s.Finished} {
		w.Uvarint(uint64(len(evs)))
		for _, e := range evs {
			ev := &Event{
				ID: e.ID, ClusterID: e.ClusterID, BornQuantum: e.BornQuantum, LastQuantum: e.LastQuantum,
				Keywords: e.Keywords, Rank: e.Rank, RankHistory: e.RankHistory, PeakRank: e.PeakRank,
				Evolved: e.Evolved, MergedInto: e.MergedInto, SplitFrom: e.SplitFrom, State: EventState(e.Lifecycle),
				Support: e.Support, Size: e.Size, Reported: e.Reported, FirstReported: e.FirstReported,
				ExactMQC: e.ExactMQC, history: e.AllKeywords,
			}
			writeEvent(w, ev)
		}
	}
	w.Uvarint(uint64(len(s.Pending)))
	for _, m := range s.Pending {
		w.Uvarint(m.ID)
		w.Uvarint(m.User)
		w.Varint(m.Time)
		w.String(m.Text)
	}
	w.Varint(s.TQStart)
	w.Bool(s.TQStarted)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteStateMatchesSave holds writeState to Save: for the detectors
// the checkpoint tests use, the plain data written is Save's bytes.
func TestWriteStateMatchesSave(t *testing.T) {
	for name, d := range map[string]*Detector{
		"count quanta": smallDetector(t, 0),
		"time quanta":  smallDetector(t, 25),
		"empty":        New(Config{}),
	} {
		if got, want := writeState(t, d.State()), save(t, d); !bytes.Equal(got, want) {
			t.Errorf("%s: writeState gives %d bytes, Save %d, not the same", name, len(got), len(want))
		}
	}
}
