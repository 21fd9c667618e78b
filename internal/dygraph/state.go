package dygraph

import (
	"fmt"
	"math"

	"repro/internal/codec"
)

// State is a plain-data picture of a Graph, in sorted order, which tests
// compare graphs by. Edge owners are not part of it: they belong to the
// layer that set them.
type State struct {
	Nodes   []NodeID // includes isolated nodes
	Edges   []Edge
	Weights []float64 // parallel to Edges
}

// State captures the graph. Nodes and edges are emitted in sorted order.
func (g *Graph) State() State {
	s := State{Nodes: g.Nodes(), Edges: make([]Edge, 0, g.edges), Weights: make([]float64, 0, g.edges)}
	g.ForEachEdge(func(e Edge, w float64) {
		s.Edges = append(s.Edges, e)
		s.Weights = append(s.Weights, w)
	})
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

// Decode reads what Encode wrote into a new graph. The node table is
// sized by the largest ID, so a node above maxID fails r before any
// node is added; an edge naming a node the list does not hold fails it
// too. Whatever fails r, the graph returned is not to be used.
func Decode(r *codec.Reader, maxID NodeID) *Graph {
	g := New()
	nodes := codec.ReadAscending[NodeID](r, nil)
	if n := len(nodes); n > 0 && nodes[n-1] > maxID {
		r.Fail(fmt.Errorf("dygraph: node %d beyond the bound %d", nodes[n-1], maxID))
	}
	if r.Err() != nil {
		return g
	}
	for _, n := range nodes {
		g.AddNode(n)
	}
	var er EdgeReader
	for range r.Count(1 + 1 + 8) { // two one-byte deltas and a weight
		e := er.Get(r)
		w := r.Float64()
		switch {
		case r.Err() != nil:
			return g
		case !g.HasNode(e.U) || !g.HasNode(e.V):
			r.Fail(fmt.Errorf("dygraph: edge %v names a node not in the graph", e))
			return g
		}
		g.AddEdge(e.U, e.V, w)
	}
	return g
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
// fails the reader; so every edge it returns has U < V.
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
