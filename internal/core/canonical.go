package core

import (
	"sort"

	"repro/internal/dygraph"
)

// EdgeSet is a cluster expressed purely as its member edges, used when
// comparing clusterings from different implementations.
type EdgeSet map[dygraph.Edge]struct{}

// NodesOf returns the distinct endpoints of the edge set, sorted.
func (s EdgeSet) NodesOf() []dygraph.NodeID {
	seen := make(map[dygraph.NodeID]struct{}, len(s)*2)
	for e := range s {
		seen[e.U] = struct{}{}
		seen[e.V] = struct{}{}
	}
	out := make([]dygraph.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Canonical computes the canonical SCP clustering of g from scratch: every
// cycle of length 3 or 4 is a seed, and seeds sharing an edge merge
// (Lemma 6) until fixpoint. The result is the unique clustering that the
// incremental Engine maintains (Theorem 3); this function is the global
// reference implementation used as a correctness oracle in tests and as
// the "global computation" arm of the ablation benchmarks.
//
// Cost is O(Σ_(u,v)∈E deg(u)·deg(v)) — quadratic in local density — which
// is exactly the cost the paper's local technique avoids paying on every
// update.
func Canonical(g *dygraph.Graph) []EdgeSet {
	edges := g.Edges()
	index := make(map[dygraph.Edge]int, len(edges))
	for i, e := range edges {
		index[e] = i
	}
	uf := newUnionFind(len(edges))
	onCycle := make([]bool, len(edges))
	mark := func(a, b dygraph.Edge) {
		i, j := index[a], index[b]
		onCycle[i], onCycle[j] = true, true
		uf.union(i, j)
	}
	for _, e := range edges {
		u, v := e.U, e.V
		g.CommonNeighbors(u, v, func(x dygraph.NodeID) {
			mark(e, dygraph.NewEdge(u, x))
			mark(e, dygraph.NewEdge(v, x))
		})
		g.Neighbors(u, func(n3 dygraph.NodeID, _ float64) {
			if n3 == v {
				return
			}
			g.Neighbors(v, func(n4 dygraph.NodeID, _ float64) {
				if n4 == u || n4 == n3 {
					return
				}
				if g.HasEdge(n3, n4) {
					mark(e, dygraph.NewEdge(u, n3))
					mark(e, dygraph.NewEdge(n3, n4))
					mark(e, dygraph.NewEdge(n4, v))
				}
			})
		})
	}
	groups := make(map[int]EdgeSet)
	for i, e := range edges {
		if !onCycle[i] {
			continue
		}
		root := uf.find(i)
		set, ok := groups[root]
		if !ok {
			set = make(EdgeSet)
			groups[root] = set
		}
		set[e] = struct{}{}
	}
	out := make([]EdgeSet, 0, len(groups))
	for _, set := range groups {
		out = append(out, set)
	}
	sortEdgeSets(out)
	return out
}

// Snapshot returns the engine's live clusters as edge sets, in the same
// normalised order as Canonical, so the two can be compared directly.
func (en *Engine) Snapshot() []EdgeSet {
	out := make([]EdgeSet, 0, len(en.clusters))
	//repro:order-insensitive each cluster's set is built independently; out is normalised by sortEdgeSets below
	for _, c := range en.clusters {
		set := make(EdgeSet, len(c.edges))
		for _, e := range c.edges {
			set[e] = struct{}{}
		}
		out = append(out, set)
	}
	sortEdgeSets(out)
	return out
}

// SameClustering reports whether two clusterings contain exactly the same
// edge sets. Both arguments must be normalised (as produced by Canonical
// or Snapshot).
func SameClustering(a, b []EdgeSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for e := range a[i] {
			if _, ok := b[i][e]; !ok {
				return false
			}
		}
	}
	return true
}

// sortEdgeSets orders clusterings deterministically: by size descending,
// then by smallest edge.
func sortEdgeSets(sets []EdgeSet) {
	key := func(s EdgeSet) dygraph.Edge {
		var best dygraph.Edge
		first := true
		for e := range s { //repro:order-insensitive minimum selection under a total order; the min is unique
			if first || less(e, best) {
				best = e
				first = false
			}
		}
		return best
	}
	sort.Slice(sets, func(i, j int) bool {
		if len(sets[i]) != len(sets[j]) {
			return len(sets[i]) > len(sets[j])
		}
		return less(key(sets[i]), key(sets[j]))
	})
}

func less(a, b dygraph.Edge) bool {
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// unionFind is a minimal weighted quick-union with path halving, used to
// group edges by connected short-cycle component.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
