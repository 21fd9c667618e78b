package core

import (
	"fmt"
	"slices"

	"repro/internal/codec"
	"repro/internal/dygraph"
)

// ClusterState is the plain-data form of one cluster.
type ClusterState struct {
	ID    ClusterID
	Birth uint64
	Edges []dygraph.Edge
}

// EngineState is a plain-data picture of an Engine, which tests compare
// engines by.
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

// DecodeEngine reads what Encode wrote into a new engine whose lifecycle
// callbacks go to hooks. The graph is bounded by maxID
// (dygraph.Decode). Every cluster needs an ID from 1 to NextID, at
// least three edges, each an edge of the graph that no other cluster
// holds. Whatever fails r, the engine returned is not to be used.
func DecodeEngine(r *codec.Reader, hooks Hooks, maxID dygraph.NodeID) *Engine {
	en := &Engine{g: dygraph.Decode(r, maxID), hooks: hooks}
	n := r.Count(3) // ID delta, birth, edge count
	en.clusters = make(map[ClusterID]*Cluster, n)
	var id ClusterID
	for range n {
		d := ClusterID(r.Uvarint())
		if d == 0 || id+d < id {
			r.Fail(fmt.Errorf("core: cluster IDs not ascending from 1 after %d", id))
		}
		id += d
		c := &Cluster{id: id, birth: r.Uvarint(), edges: make([]dygraph.Edge, 0, r.Count(2))}
		var er dygraph.EdgeReader
		for range cap(c.edges) {
			e := er.Get(r)
			if r.Err() != nil {
				break
			}
			if !en.g.HasEdge(e.U, e.V) {
				r.Fail(fmt.Errorf("core: cluster %d references missing edge %v", id, e))
				break
			}
			if owner := en.owner(e.U, e.V); owner != 0 {
				r.Fail(fmt.Errorf("core: edge %v claimed by clusters %d and %d", e, owner, id))
				break
			}
			c.addEdge(e)
			en.setOwner(e, id)
		}
		if len(c.edges) < 3 {
			r.Fail(fmt.Errorf("core: cluster %d has %d edges; minimum cluster is a triangle", id, len(c.edges)))
		}
		if r.Err() != nil {
			return en
		}
		en.clusters[id] = c
	}
	en.nextID = ClusterID(r.Uvarint())
	en.ops = r.Uvarint()
	if id > en.nextID {
		r.Fail(fmt.Errorf("core: cluster ID %d out of range (next %d)", id, en.nextID))
	}
	return en
}
