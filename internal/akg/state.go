package akg

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dygraph"
)

// QuantumObs is the plain-data observation record of one quantum:
// keyword -> distinct users who used it, both ascending.
type QuantumObs struct {
	Keywords []dygraph.NodeID
	Users    [][]uint64 // parallel to Keywords
}

// State is a plain-data picture of the AKG layer, which tests compare
// layers by. The per-keyword id sets are not in it: they are the
// column sums of the window ring.
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
// (codec.WriteAscending) — and the engine (core.Engine.Encode). The
// configuration is the caller's to write. The AKG members are not
// written: they are exactly the engine graph's nodes.
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

// Decode reads what Encode wrote into a new layer over cfg whose engine
// reports to hooks. maxID is the largest keyword ID the caller's
// vocabulary holds: the keyword table and the graph's node table are
// indexed by ID, so a ring keyword or graph node above it fails r
// before anything is sized for it. The ring may be no longer than the
// window, and every keyword in it needs a user. The engine graph's nodes
// are the AKG members, each tracked with its id set rebuilt from the
// ring, which must therefore mention it. Whatever fails r, the layer
// returned is not to be used.
func Decode(r *codec.Reader, cfg Config, hooks core.Hooks, maxID dygraph.NodeID) *AKG {
	a := &AKG{cfg: cfg.withDefaults(), quantum: r.Int()}
	n := r.Count(1)
	if n > a.cfg.Window {
		r.Fail(fmt.Errorf("akg: ring holds %d quanta, window is %d", n, a.cfg.Window))
	}
	a.ring = make([]quantumObs, 0, n)
	var users []uint64 // an entry's lists, read here and then copied at their size
	for qi := 0; qi < n && r.Err() == nil; qi++ {
		obs := quantumObs{keys: codec.ReadAscending[dygraph.NodeID](r, nil)}
		if k := len(obs.keys); k > 0 && obs.keys[k-1] > maxID {
			r.Fail(fmt.Errorf("akg: ring entry %d: keyword %d beyond the vocabulary (%d)", qi, obs.keys[k-1], maxID))
		}
		obs.off = make([]int32, 1, len(obs.keys)+1)
		users = users[:0]
		for _, k := range obs.keys {
			users = codec.ReadAscending(r, users)
			if r.Err() == nil && int(obs.off[len(obs.off)-1]) == len(users) {
				r.Fail(fmt.Errorf("akg: ring entry %d: keyword %d has no users", qi, k))
			}
			obs.off = append(obs.off, int32(len(users)))
		}
		obs.users = append([]uint64(nil), users...)
		a.ring = append(a.ring, obs)
	}
	if r.Err() != nil {
		return a
	}
	a.eng = core.DecodeEngine(r, hooks, maxID)
	if r.Err() != nil {
		return a
	}
	// The members ascend, so the keyword table is sized once, for the last.
	var last dygraph.NodeID
	a.eng.Graph().ForEachNode(func(k dygraph.NodeID) { last = k })
	a.kw = make([]*keyword, last+1)
	a.eng.Graph().ForEachNode(func(k dygraph.NodeID) {
		rec := a.track(k)
		if rec.set.size() == 0 {
			r.Fail(fmt.Errorf("akg: member keyword %d unseen inside the window", k))
		}
		rec.present = true
		a.nodes++
	})
	return a
}
