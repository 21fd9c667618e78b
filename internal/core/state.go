package core

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/dygraph"
)

// ClusterState is the serialisable form of one cluster.
type ClusterState struct {
	ID    ClusterID
	Birth uint64
	Edges []dygraph.Edge
}

// EngineState is a serialisable snapshot of an Engine, sufficient to
// resume incremental maintenance exactly where it stopped.
type EngineState struct {
	Graph    dygraph.State
	Clusters []ClusterState
	NextID   ClusterID
	Ops      uint64
}

// State captures the engine. Clusters appear in ID order.
func (en *Engine) State() EngineState {
	s := EngineState{
		Graph:  en.g.State(),
		NextID: en.nextID,
		Ops:    en.ops,
	}
	for _, c := range en.Clusters() {
		s.Clusters = append(s.Clusters, ClusterState{
			ID:    c.id,
			Birth: c.birth,
			Edges: c.Edges(),
		})
	}
	return s
}

// Encode writes the engine from its live structures: the graph
// (dygraph.Graph.Encode), the cluster count, each cluster in ID order —
// its ID as a delta from the previous one's, its birth, and its edges
// (count, then dygraph.EdgeWriter deltas) — and NextID and Ops.
func (en *Engine) Encode(w *codec.Writer) {
	en.g.Encode(w)
	ids := en.AppendClusterIDs(make([]ClusterID, 0, len(en.clusters)))
	slices.Sort(ids)
	w.Uvarint(uint64(len(ids)))
	var prev ClusterID
	for _, id := range ids {
		c := en.clusters[id]
		w.Uvarint(uint64(id - prev))
		prev = id
		w.Uvarint(c.birth)
		w.Uvarint(uint64(len(c.edges)))
		var ew dygraph.EdgeWriter
		for _, e := range c.edges {
			ew.Put(w, e)
		}
	}
	w.Uvarint(uint64(en.nextID))
	w.Uvarint(en.ops)
}

// DecodeEngineState reads what Encode wrote. Structural damage fails r;
// EngineFromState's checks still apply to what it returns.
func DecodeEngineState(r *codec.Reader) EngineState {
	s := EngineState{Graph: dygraph.DecodeState(r)}
	n := r.Count(3) // ID delta, birth, edge count
	s.Clusters = make([]ClusterState, 0, n)
	var prev ClusterID
	for i := range n {
		d := ClusterID(r.Uvarint())
		if i > 0 && d == 0 {
			r.Fail(fmt.Errorf("core: cluster IDs not ascending after %d", prev))
		}
		prev += d
		cs := ClusterState{ID: prev, Birth: r.Uvarint()}
		cs.Edges = make([]dygraph.Edge, r.Count(2))
		var er dygraph.EdgeReader
		for j := range cs.Edges {
			cs.Edges[j] = er.Get(r)
		}
		if r.Err() != nil {
			return s
		}
		s.Clusters = append(s.Clusters, cs)
	}
	s.NextID = ClusterID(r.Uvarint())
	s.Ops = r.Uvarint()
	return s
}

// EngineFromState reconstructs an engine. The snapshot is validated:
// node IDs must not exceed maxID (the graph's node table is sized by the
// largest one, so the bound comes before anything is allocated), cluster
// edges must exist in the graph, be disjoint across clusters, and cluster
// IDs must not exceed NextID.
func EngineFromState(s EngineState, hooks Hooks, maxID dygraph.NodeID) (*Engine, error) {
	for _, n := range s.Graph.Nodes {
		if n > maxID {
			return nil, fmt.Errorf("core: graph node %d beyond the bound %d", n, maxID)
		}
	}
	for _, e := range s.Graph.Edges {
		if max(e.U, e.V) > maxID {
			return nil, fmt.Errorf("core: graph edge %v beyond the bound %d", e, maxID)
		}
	}
	g, err := dygraph.FromState(s.Graph)
	if err != nil {
		return nil, err
	}
	en := &Engine{
		g:        g,
		clusters: make(map[ClusterID]*Cluster, len(s.Clusters)),
		nextID:   s.NextID,
		ops:      s.Ops,
		hooks:    hooks,
	}
	for _, cs := range s.Clusters {
		if cs.ID == 0 || cs.ID > s.NextID {
			return nil, fmt.Errorf("core: cluster ID %d out of range (next %d)", cs.ID, s.NextID)
		}
		if _, dup := en.clusters[cs.ID]; dup {
			return nil, fmt.Errorf("core: duplicate cluster ID %d", cs.ID)
		}
		c := &Cluster{id: cs.ID, birth: cs.Birth, edges: make([]dygraph.Edge, 0, len(cs.Edges))}
		for _, e := range cs.Edges {
			if !g.HasEdge(e.U, e.V) {
				return nil, fmt.Errorf("core: cluster %d references missing edge %v", cs.ID, e)
			}
			e = dygraph.NewEdge(e.U, e.V)
			if owner := en.owner(e.U, e.V); owner != 0 {
				return nil, fmt.Errorf("core: edge %v claimed by clusters %d and %d", e, owner, cs.ID)
			}
			c.addEdge(e)
			en.setOwner(e, cs.ID)
		}
		if len(c.edges) < 3 {
			return nil, fmt.Errorf("core: cluster %d has %d edges; minimum cluster is a triangle", cs.ID, len(c.edges))
		}
		en.clusters[cs.ID] = c
	}
	return en, nil
}
