package core

import (
	"fmt"

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
