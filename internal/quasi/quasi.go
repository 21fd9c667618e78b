// Package quasi provides verification predicates for the cluster classes
// discussed in the paper: γ-quasi cliques and majority quasi cliques
// (Section 1.1), the short-cycle property (Section 4.1), biconnectivity
// (Theorem 2) and graph diameter (Definition 1).
//
// These checks are intentionally simple and exhaustive — they run on small
// cluster subgraphs (a handful of nodes) in tests, analyses and the
// MQC-vs-aMQC experiments, never on the full stream graph.
package quasi

import (
	"sort"

	"repro/internal/dygraph"
)

// Subgraph is a small standalone undirected graph, typically one cluster,
// on which the predicates in this package operate.
type Subgraph struct {
	adj map[dygraph.NodeID]map[dygraph.NodeID]struct{}
}

// NewSubgraph returns an empty subgraph.
func NewSubgraph() *Subgraph {
	return &Subgraph{adj: make(map[dygraph.NodeID]map[dygraph.NodeID]struct{})}
}

// FromEdges builds a subgraph from an edge list.
func FromEdges(edges []dygraph.Edge) *Subgraph {
	s := NewSubgraph()
	for _, e := range edges {
		s.AddEdge(e.U, e.V)
	}
	return s
}

// FromEdgeSet builds a subgraph from a cluster's edge set.
func FromEdgeSet(edges map[dygraph.Edge]struct{}) *Subgraph {
	s := NewSubgraph()
	//repro:order-insensitive set insertion; AddEdge is idempotent and commutative
	for e := range edges {
		s.AddEdge(e.U, e.V)
	}
	return s
}

// AddNode inserts an isolated node if absent.
func (s *Subgraph) AddNode(n dygraph.NodeID) {
	if _, ok := s.adj[n]; !ok {
		s.adj[n] = make(map[dygraph.NodeID]struct{})
	}
}

// AddEdge inserts an undirected edge, creating endpoints as needed.
func (s *Subgraph) AddEdge(a, b dygraph.NodeID) {
	if a == b {
		return
	}
	s.AddNode(a)
	s.AddNode(b)
	s.adj[a][b] = struct{}{}
	s.adj[b][a] = struct{}{}
}

// HasEdge reports whether the edge exists.
func (s *Subgraph) HasEdge(a, b dygraph.NodeID) bool {
	_, ok := s.adj[a][b]
	return ok
}

// NodeCount returns the number of nodes.
func (s *Subgraph) NodeCount() int { return len(s.adj) }

// EdgeCount returns the number of edges.
func (s *Subgraph) EdgeCount() int {
	total := 0
	for _, nbrs := range s.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Nodes returns the nodes sorted ascending.
func (s *Subgraph) Nodes() []dygraph.NodeID {
	out := make([]dygraph.NodeID, 0, len(s.adj))
	for n := range s.adj {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns the edges in canonical orientation, sorted.
func (s *Subgraph) Edges() []dygraph.Edge {
	var out []dygraph.Edge
	for a, nbrs := range s.adj { //repro:order-insensitive collects each canonical edge once; out is sorted below
		for b := range nbrs {
			if a < b {
				out = append(out, dygraph.Edge{U: a, V: b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Degree returns the degree of n.
func (s *Subgraph) Degree(n dygraph.NodeID) int { return len(s.adj[n]) }

// IsGammaQuasiClique reports whether every node is adjacent to at least
// γ·(N−1) other nodes of the subgraph, the paper's γ-quasi clique
// definition. γ=1 means complete clique.
func (s *Subgraph) IsGammaQuasiClique(gamma float64) bool {
	n := len(s.adj)
	if n < 2 {
		return n == 1 // a single node is trivially a clique
	}
	need := gamma * float64(n-1)
	for _, nbrs := range s.adj {
		if float64(len(nbrs)) < need {
			return false
		}
	}
	return true
}

// IsMQC reports whether the subgraph is a majority quasi clique: every
// node adjacent to a strict majority (> (N−1)/2) of the remaining nodes.
// This is the O(N²) membership check described in Section 4.2.
//
// Note on the boundary: the paper states Theorem 1 for γ ≥ ½, but at
// exactly half the theorem fails (C5 has all degrees equal to (N−1)/2 yet
// contains no cycle shorter than 5, and P3 similarly). The theorem's
// pigeonhole argument — |Su|+|Sv| > |Su∪Sv| forces a second common
// neighbor — needs the strict inequality, which also matches the paper's
// own reading of MQC as "connected with a majority of the remaining
// nodes". We therefore use the strict form; see DESIGN.md.
func (s *Subgraph) IsMQC() bool {
	n := len(s.adj)
	if n < 2 {
		return n == 1
	}
	need := (n-1)/2 + 1 // smallest integer strictly greater than (n-1)/2
	for _, nbrs := range s.adj {
		if len(nbrs) < need {
			return false
		}
	}
	return true
}

// SatisfiesSCP reports whether every edge of the subgraph lies on a cycle
// of length at most 4 using only subgraph edges — the short-cycle property
// of Section 4.1. A subgraph with no edges satisfies SCP vacuously.
func (s *Subgraph) SatisfiesSCP() bool {
	for a, nbrs := range s.adj { //repro:order-insensitive ∀-predicate over edges; same verdict in any order
		for b := range nbrs {
			if a > b {
				continue
			}
			if !s.edgeOnShortCycle(a, b) {
				return false
			}
		}
	}
	return true
}

// edgeOnShortCycle reports whether edge (a,b) closes a cycle of length 3
// or 4, i.e. a second path of length ≤ 3 exists between a and b.
func (s *Subgraph) edgeOnShortCycle(a, b dygraph.NodeID) bool {
	// Length-3 cycle: common neighbor.
	na, nb := s.adj[a], s.adj[b]
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	for x := range na {
		if _, ok := nb[x]; ok {
			return true
		}
	}
	// Length-4 cycle: n3 ~ a, n4 ~ b, n3–n4 an edge.
	for n3 := range s.adj[a] { //repro:order-insensitive ∃-predicate; any order finds a witness iff one exists
		if n3 == b {
			continue
		}
		for n4 := range s.adj[b] { //repro:order-insensitive ∃-predicate; any order finds a witness iff one exists
			if n4 == a || n4 == n3 {
				continue
			}
			if s.HasEdge(n3, n4) {
				return true
			}
		}
	}
	return false
}

// IsConnected reports whether the subgraph is connected (true for empty
// and single-node subgraphs).
func (s *Subgraph) IsConnected() bool {
	if len(s.adj) <= 1 {
		return true
	}
	var start dygraph.NodeID
	//repro:order-insensitive arbitrary start node; the connectivity verdict is the same from any node
	for n := range s.adj {
		start = n
		break
	}
	return s.reachableFrom(start, nil) == len(s.adj)
}

// IsBiconnected reports whether the subgraph is biconnected: connected,
// at least 3 nodes, and no articulation point. Theorem 2 of the paper
// states every SCP cluster passes this check. The implementation removes
// each node in turn and verifies connectivity — O(N·(N+E)), fine for
// cluster-sized inputs.
func (s *Subgraph) IsBiconnected() bool {
	n := len(s.adj)
	if n < 3 {
		return false
	}
	if !s.IsConnected() {
		return false
	}
	for skip := range s.adj { //repro:order-insensitive ∀-predicate: every node is tried as the removed one
		var start dygraph.NodeID
		found := false
		for cand := range s.adj { //repro:order-insensitive arbitrary surviving start; reachability count is start-independent
			if cand != skip {
				start = cand
				found = true
				break
			}
		}
		if !found {
			continue
		}
		skipSet := map[dygraph.NodeID]struct{}{skip: {}}
		if s.reachableFrom(start, skipSet) != n-1 {
			return false
		}
	}
	return true
}

// ArticulationPoints returns the nodes whose removal disconnects the
// subgraph, sorted. Used by node-deletion tests mirroring the paper's
// Figure 6 example.
func (s *Subgraph) ArticulationPoints() []dygraph.NodeID {
	var out []dygraph.NodeID
	if len(s.adj) < 3 {
		return nil
	}
	full := s.componentCount(nil)
	//repro:order-insensitive each candidate is judged independently; out is sorted below
	for cand := range s.adj {
		skipSet := map[dygraph.NodeID]struct{}{cand: {}}
		if s.componentCount(skipSet) > full {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// componentCount returns the number of connected components after skipping
// the given nodes.
func (s *Subgraph) componentCount(skip map[dygraph.NodeID]struct{}) int {
	visited := make(map[dygraph.NodeID]struct{}, len(s.adj))
	count := 0
	for n := range s.adj { //repro:order-insensitive flood fill; the component count is visit-order independent
		if _, sk := skip[n]; sk {
			continue
		}
		if _, ok := visited[n]; ok {
			continue
		}
		count++
		stack := []dygraph.NodeID{n}
		visited[n] = struct{}{}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for nb := range s.adj[cur] { //repro:order-insensitive DFS frontier; the visited set is visit-order independent
				if _, sk := skip[nb]; sk {
					continue
				}
				if _, ok := visited[nb]; !ok {
					visited[nb] = struct{}{}
					stack = append(stack, nb)
				}
			}
		}
	}
	return count
}

// reachableFrom returns how many nodes (excluding skipped ones) are
// reachable from start.
func (s *Subgraph) reachableFrom(start dygraph.NodeID, skip map[dygraph.NodeID]struct{}) int {
	visited := map[dygraph.NodeID]struct{}{start: {}}
	stack := []dygraph.NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for nb := range s.adj[cur] { //repro:order-insensitive DFS frontier; the visited set is visit-order independent
			if _, sk := skip[nb]; sk {
				continue
			}
			if _, ok := visited[nb]; !ok {
				visited[nb] = struct{}{}
				stack = append(stack, nb)
			}
		}
	}
	return len(visited)
}

// Diameter returns the longest shortest-path distance between any pair of
// nodes (Definition 1), or -1 if the subgraph is disconnected or empty.
// The paper uses the fact that γ ≥ ½ quasi cliques have diameter ≤ 2
// in the Theorem 1 proof.
func (s *Subgraph) Diameter() int {
	if len(s.adj) == 0 {
		return -1
	}
	diameter := 0
	for src := range s.adj { //repro:order-insensitive max over all sources; max is commutative
		dist := map[dygraph.NodeID]int{src: 0}
		queue := []dygraph.NodeID{src}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for nb := range s.adj[cur] { //repro:order-insensitive BFS layer; distances are set at first discovery, always the true layer
				if _, ok := dist[nb]; !ok {
					dist[nb] = dist[cur] + 1
					queue = append(queue, nb)
				}
			}
		}
		if len(dist) != len(s.adj) {
			return -1
		}
		for _, d := range dist { //repro:order-insensitive max accumulation; max is commutative
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}
