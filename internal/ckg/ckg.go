// Package ckg maintains the full Correlated Keyword Graph: every keyword
// in the current sliding window is a node, and two keywords share an edge
// when some user used both within one quantum (Section 1.1).
//
// The detector itself never clusters on the CKG — that is the point of the
// paper's AKG reduction — but the Section 7.4 experiment needs the CKG's
// size to demonstrate the reduction (AKG edges < 2% of CKG, < 5% of nodes
// bursty), so this package tracks it with reference-counted nodes and
// edges over the window ring.
package ckg

import (
	"repro/internal/dygraph"
)

// UserKeywords is one user's distinct keywords within one quantum.
type UserKeywords struct {
	User     uint64
	Keywords []dygraph.NodeID
}

// Graph is the windowed CKG. It counts, per node and per edge, how many
// (quantum, user) observations support it; observations expire as the
// window slides.
type Graph struct {
	window int
	ring   [][]UserKeywords // one entry per live quantum
	nodes  map[dygraph.NodeID]int
	edges  map[dygraph.Edge]int
}

// New returns a CKG over a window of w quanta. w must be ≥ 1.
func New(w int) *Graph {
	if w < 1 {
		w = 1
	}
	return &Graph{
		window: w,
		nodes:  make(map[dygraph.NodeID]int),
		edges:  make(map[dygraph.Edge]int),
	}
}

// AddQuantum ingests one quantum of per-user keyword sets and slides the
// window, expiring the oldest quantum if the window is full.
func (g *Graph) AddQuantum(batch []UserKeywords) {
	if len(g.ring) == g.window {
		g.expire(g.ring[0])
		copy(g.ring, g.ring[1:])
		g.ring = g.ring[:len(g.ring)-1]
	}
	// Keep our own copy: callers reuse batch slices.
	cp := make([]UserKeywords, len(batch))
	for i, uk := range batch {
		kws := make([]dygraph.NodeID, len(uk.Keywords))
		copy(kws, uk.Keywords)
		cp[i] = UserKeywords{User: uk.User, Keywords: kws}
	}
	g.ring = append(g.ring, cp)
	for _, uk := range cp {
		g.apply(uk, +1)
	}
}

func (g *Graph) expire(batch []UserKeywords) {
	for _, uk := range batch {
		g.apply(uk, -1)
	}
}

func (g *Graph) apply(uk UserKeywords, delta int) {
	for _, k := range uk.Keywords {
		g.nodes[k] += delta
		if g.nodes[k] <= 0 {
			delete(g.nodes, k)
		}
	}
	for i := 0; i < len(uk.Keywords); i++ {
		for j := i + 1; j < len(uk.Keywords); j++ {
			a, b := uk.Keywords[i], uk.Keywords[j]
			if a == b {
				continue
			}
			e := dygraph.NewEdge(a, b)
			g.edges[e] += delta
			if g.edges[e] <= 0 {
				delete(g.edges, e)
			}
		}
	}
}

// NodeCount returns the number of keywords in the windowed CKG.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of co-occurrence edges in the windowed CKG.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// HasNode reports whether keyword k is in the window.
func (g *Graph) HasNode(k dygraph.NodeID) bool {
	_, ok := g.nodes[k]
	return ok
}

// HasEdge reports whether the co-occurrence edge exists in the window.
func (g *Graph) HasEdge(a, b dygraph.NodeID) bool {
	_, ok := g.edges[dygraph.NewEdge(a, b)]
	return ok
}

// QuantaHeld returns how many quanta are currently inside the window.
func (g *Graph) QuantaHeld() int { return len(g.ring) }
