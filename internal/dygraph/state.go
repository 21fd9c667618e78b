package dygraph

import "fmt"

// State is a serialisable snapshot of a Graph (for detector checkpoints).
// Edge owners are not part of it: they belong to the layer that set them.
type State struct {
	Nodes   []NodeID // includes isolated nodes
	Edges   []Edge
	Weights []float64 // parallel to Edges
}

// State captures the graph. Nodes and edges are emitted in sorted order so
// snapshots of equal graphs are byte-identical. AppendState is the
// buffer-reusing variant for periodic checkpointing.
func (g *Graph) State() State {
	return g.AppendState(State{})
}

// AppendState fills buf's slices (reusing their capacity) with the
// graph's current state and returns it. Callers that checkpoint on a
// cadence — the WAL snapshot path — pass the previous State with its
// slices truncated to amortise the three allocations across snapshots.
func (g *Graph) AppendState(buf State) State {
	s := State{
		Nodes:   g.AppendNodes(buf.Nodes[:0]),
		Edges:   g.AppendEdges(buf.Edges[:0]),
		Weights: buf.Weights[:0],
	}
	if cap(s.Weights) < len(s.Edges) {
		s.Weights = make([]float64, 0, len(s.Edges))
	}
	for _, e := range s.Edges {
		w, _ := g.Weight(e.U, e.V)
		s.Weights = append(s.Weights, w)
	}
	return s
}

// FromState reconstructs a graph from a snapshot. The graph's node table
// is sized by the largest ID the state names, so a caller restoring an
// untrusted state bounds its IDs first.
func FromState(s State) (*Graph, error) {
	if len(s.Edges) != len(s.Weights) {
		return nil, fmt.Errorf("dygraph: state has %d edges but %d weights", len(s.Edges), len(s.Weights))
	}
	g := New()
	for _, n := range s.Nodes {
		g.AddNode(n)
	}
	for i, e := range s.Edges {
		if e.U == e.V {
			return nil, fmt.Errorf("dygraph: state contains self-loop on node %d", e.U)
		}
		g.AddEdge(e.U, e.V, s.Weights[i])
	}
	return g, nil
}
