package detect

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"repro/internal/akg"
	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// checkpointMagic versions the checkpoint format.
const checkpointMagic = "repro-detector-v1"

// EventSnapshot is the serialisable form of an Event (AllKeywords
// flattened to a sorted slice for stable, gob-friendly encoding; the
// lifecycle enum stored as an int).
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
	CKG       *ckg.State // nil unless TrackCKG
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
	if d.ckg != nil {
		cs := d.ckg.State()
		s.CKG = &cs
	}
	// Live events sorted by cluster ID for deterministic snapshots.
	cids := make([]core.ClusterID, 0, len(d.events))
	for cid := range d.events {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	for _, cid := range cids {
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
	if s.CKG != nil {
		d.ckg = ckg.FromState(*s.CKG)
	} else if d.cfg.TrackCKG {
		return nil, fmt.Errorf("detect: checkpoint lacks CKG state but TrackCKG is set")
	}
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
			if batches := d.tquant.Add(m); len(batches) != 0 {
				return nil, fmt.Errorf("detect: checkpoint pending buffer crosses a time-quantum boundary")
			}
		} else if batch := d.quant.Add(m); batch != nil {
			return nil, fmt.Errorf("detect: checkpoint pending buffer holds a full quantum")
		}
	}
	return d, nil
}

// Save writes a gob-encoded checkpoint.
func (d *Detector) Save(w io.Writer) error {
	s := d.State()
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("detect: encode checkpoint: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save and reconstructs the detector.
func Load(r io.Reader) (*Detector, error) {
	var s DetectorState
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("detect: decode checkpoint: %w", err)
	}
	return FromState(s)
}
