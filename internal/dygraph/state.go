package dygraph

import (
	"fmt"
	"math"

	"repro/internal/codec"
)

// State is a serialisable snapshot of a Graph (for detector checkpoints).
// Edge owners are not part of it: they belong to the layer that set them.
type State struct {
	Nodes   []NodeID // includes isolated nodes
	Edges   []Edge
	Weights []float64 // parallel to Edges
}

// State captures the graph. Nodes and edges are emitted in sorted order so
// snapshots of equal graphs are byte-identical. AppendState is the
// buffer-reusing variant.
func (g *Graph) State() State {
	return g.AppendState(State{})
}

// AppendState fills buf's slices (reusing their capacity) with the
// graph's current state and returns it.
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

// Encode writes the graph straight from its rows: the node IDs as an
// ascending list (codec.WriteAscending), then the edge count and every
// edge in (U,V) order (EdgeWriter) followed by its weight's 8 bytes.
func (g *Graph) Encode(w *codec.Writer) {
	w.Uvarint(uint64(g.nodes))
	var prev NodeID
	g.ForEachNode(func(n NodeID) {
		w.Uvarint(uint64(n - prev))
		prev = n
	})
	w.Uvarint(uint64(g.edges))
	var ew EdgeWriter
	g.ForEachEdge(func(e Edge, weight float64) {
		ew.Put(w, e)
		w.Float64(weight)
	})
}

// DecodeState reads what Encode wrote. Structural damage fails r;
// FromState's checks still apply to what it returns.
func DecodeState(r *codec.Reader) State {
	var s State
	s.Nodes = codec.ReadAscending(r, s.Nodes)
	n := r.Count(1 + 1 + 8) // two one-byte deltas and a weight
	s.Edges = make([]Edge, 0, n)
	s.Weights = make([]float64, 0, n)
	var er EdgeReader
	for range n {
		s.Edges = append(s.Edges, er.Get(r))
		s.Weights = append(s.Weights, r.Float64())
	}
	return s
}

// EdgeWriter writes a list of edges, sorted by (U,V) with U < V, as
// deltas: U from the previous edge's U, then V from the previous edge's
// V when U repeats, or from U when it does not.
type EdgeWriter struct{ prev Edge }

// Put writes e, the successor of the last edge put.
func (p *EdgeWriter) Put(w *codec.Writer, e Edge) {
	w.Uvarint(uint64(e.U - p.prev.U))
	if e.U == p.prev.U {
		w.Uvarint(uint64(e.V - p.prev.V))
	} else {
		w.Uvarint(uint64(e.V - e.U))
	}
	p.prev = e
}

// EdgeReader reads what an EdgeWriter wrote. An edge that does not
// follow its predecessor in (U,V) order, or leaves the NodeID range,
// fails the reader.
type EdgeReader struct{ prev Edge }

// Get reads the next edge.
func (p *EdgeReader) Get(r *codec.Reader) Edge {
	du := r.Uvarint()
	dv := r.Uvarint()
	u := uint64(p.prev.U) + du
	from := u
	if du == 0 {
		from = uint64(p.prev.V)
	}
	v := from + dv
	switch {
	case r.Err() != nil:
		return Edge{}
	case dv == 0 || du > math.MaxUint32 || dv > math.MaxUint32 || v > math.MaxUint32:
		r.Fail(fmt.Errorf("dygraph: edge delta (%d, %d) after %v out of order or range", du, dv, p.prev))
		return Edge{}
	}
	p.prev = Edge{U: NodeID(u), V: NodeID(v)}
	return p.prev
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
