package akg

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
)

// QuantumObs is the serialisable observation record of one quantum:
// keyword -> distinct users who used it. Slices are sorted for stable
// snapshots.
type QuantumObs struct {
	Keywords []dygraph.NodeID
	Users    [][]uint64 // parallel to Keywords
}

// State is a serialisable snapshot of the AKG layer. The per-keyword id
// sets are not stored: they are exactly the column sums of the window
// ring, and restore rebuilds those of the AKG members (Present) only —
// any other keyword is tracked again from the ring if it turns bursty.
type State struct {
	Cfg     Config
	Quantum int
	Ring    []QuantumObs
	Engine  core.EngineState
	Present []dygraph.NodeID
}

// State captures the layer.
func (a *AKG) State() State {
	s := State{
		Cfg:     a.cfg,
		Quantum: a.quantum,
		Engine:  a.eng.State(),
	}
	for _, obs := range a.ring {
		// The runtime ring is already keyword-ascending with users
		// ascending per keyword — exactly the snapshot shape.
		q := QuantumObs{Keywords: append([]dygraph.NodeID(nil), obs.keys...)}
		for i := range obs.keys {
			q.Users = append(q.Users, append([]uint64(nil), obs.usersOf(i)...))
		}
		s.Ring = append(s.Ring, q)
	}
	for _, r := range a.kw {
		if r != nil && r.present {
			s.Present = append(s.Present, r.id)
		}
	}
	return s
}

// Encode writes the layer from its live structures: the quantum
// counter, the window ring oldest first — per quantum its keywords as an
// ascending list, then each keyword's users as an ascending list
// (codec.WriteAscending) — and the engine (core.Engine.Encode). Cfg is
// the caller's to write, and Present is not written: FromState accepts
// only a present set equal to the engine graph's node set, so
// DecodeState takes it from there.
func (a *AKG) Encode(w *codec.Writer) {
	w.Varint(int64(a.quantum))
	w.Uvarint(uint64(len(a.ring)))
	for i := range a.ring {
		obs := &a.ring[i]
		codec.WriteAscending(w, obs.keys)
		for k := range obs.keys {
			codec.WriteAscending(w, obs.usersOf(k))
		}
	}
	a.eng.Encode(w)
}

// DecodeState reads what Encode wrote, with cfg as the layer's
// configuration. Structural damage fails r; FromState's checks still
// apply to what it returns.
func DecodeState(r *codec.Reader, cfg Config) State {
	s := State{Cfg: cfg, Quantum: r.Int()}
	s.Ring = make([]QuantumObs, r.Count(1))
	var users []uint64 // one backing array for many quanta's lists
	for i := range s.Ring {
		q := &s.Ring[i]
		q.Keywords = codec.ReadAscending[dygraph.NodeID](r, nil)
		q.Users = make([][]uint64, len(q.Keywords))
		for k := range q.Users {
			at := len(users)
			users = codec.ReadAscending(r, users)
			q.Users[k] = users[at:len(users):len(users)]
		}
	}
	s.Engine = core.DecodeEngineState(r)
	s.Present = slices.Clone(s.Engine.Graph.Nodes)
	return s
}

// FromState reconstructs the layer — the present keywords tracked, their
// id sets rebuilt from the ring — and re-attaches lifecycle hooks to the
// restored engine. The ring must have
// the shape State writes — keywords strictly ascending per quantum,
// users strictly ascending per keyword — because the id sets are
// maintained by merge and would be silently corrupted by anything else.
// maxID is the largest keyword ID the caller's vocabulary holds: the
// keyword table and the engine graph's node table are indexed by ID, so a
// state naming a larger one — in the ring or in the engine's graph — is
// refused rather than sized for.
func FromState(s State, hooks core.Hooks, maxID dygraph.NodeID) (*AKG, error) {
	if len(s.Ring) > s.Cfg.withDefaults().Window {
		return nil, fmt.Errorf("akg: ring holds %d quanta, window is %d", len(s.Ring), s.Cfg.withDefaults().Window)
	}
	eng, err := core.EngineFromState(s.Engine, hooks, maxID)
	if err != nil {
		return nil, err
	}
	a := New(s.Cfg, hooks)
	a.eng = eng
	a.quantum = s.Quantum
	for qi, q := range s.Ring {
		if len(q.Keywords) != len(q.Users) {
			return nil, fmt.Errorf("akg: ring entry has %d keywords, %d user lists", len(q.Keywords), len(q.Users))
		}
		if !strictlyAscending(q.Keywords) {
			return nil, fmt.Errorf("akg: ring entry %d: keywords not strictly ascending", qi)
		}
		if n := len(q.Keywords); n > 0 && q.Keywords[n-1] > maxID {
			return nil, fmt.Errorf("akg: ring entry %d: keyword %d beyond the vocabulary (%d)", qi, q.Keywords[n-1], maxID)
		}
		total := 0
		for _, users := range q.Users {
			total += len(users)
		}
		obs := quantumObs{
			keys:  slices.Clone(q.Keywords),
			off:   make([]int32, 1, len(q.Keywords)+1),
			users: make([]uint64, 0, total),
		}
		for i, k := range q.Keywords {
			if len(q.Users[i]) == 0 || !strictlyAscending(q.Users[i]) {
				return nil, fmt.Errorf("akg: ring entry %d: users of keyword %d empty or not strictly ascending", qi, k)
			}
			obs.users = append(obs.users, q.Users[i]...)
			obs.off = append(obs.off, int32(len(obs.users)))
		}
		a.ring = append(a.ring, obs)
	}
	for _, k := range s.Present {
		// The graph check comes first: it bounds k by the vocabulary
		// before the keyword table is sized for it.
		if !a.eng.Graph().HasNode(k) {
			return nil, fmt.Errorf("akg: present keyword %d missing from engine graph", k)
		}
		if a.rec(k) != nil {
			return nil, fmt.Errorf("akg: present keyword %d repeated", k)
		}
		r := a.track(k)
		if r.set.size() == 0 {
			return nil, fmt.Errorf("akg: present keyword %d unseen inside the window", k)
		}
		r.present = true
		a.nodes++
	}
	if a.eng.Graph().NodeCount() != a.nodes {
		return nil, fmt.Errorf("akg: engine graph has %d nodes but %d present keywords",
			a.eng.Graph().NodeCount(), a.nodes)
	}
	return a, nil
}

func strictlyAscending[T cmp.Ordered](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}
