package core

import (
	"cmp"
	"slices"

	"repro/internal/dygraph"
)

// repair restores the canonical clustering inside a cluster after one or
// more of its edges were deleted. It implements the paper's NodeDeletion /
// EdgeDeletion post-processing (Section 5.3–5.4):
//
//   - cycle check: edges that no longer lie on any cycle of length ≤ 4
//     within the cluster are expelled;
//   - articulation check: surviving edges are regrouped into the connected
//     components of the "share a short cycle" relation, so pieces that met
//     only at the deleted node/edge (an articulation point, as in the
//     paper's Figure 6) split into separate clusters.
//
// Because every short cycle of the graph lies entirely inside one cluster
// (engine invariant), the computation never needs to look beyond the
// cluster's own edges — this is the locality the paper's Lemma 7 argues
// for; we realise it by recomputing the canonical construction on the
// cluster subgraph, which is small (about 7 nodes on average, Section 7.4).
func (en *Engine) repair(c *Cluster) {
	if len(c.edges) < 3 {
		en.dissolve(c)
		return
	}
	rs := &en.rs
	rs.load(c)
	en.statCycleChecks += rs.shortCycles()

	// Group surviving edges by union-find root. Edge indices ascend in
	// (U,V) order, so groups are numbered by their smallest edge and each
	// group's edges come out sorted.
	nEdges := len(rs.edges)
	slot := resize(&rs.slot, nEdges)
	for i := range slot {
		slot[i] = -1
	}
	groups := rs.groups[:0]
	survivors := 0
	for i := 0; i < nEdges; i++ {
		if !rs.onCycle[i] {
			continue
		}
		root := rs.find(int32(i))
		if slot[root] < 0 {
			slot[root] = int32(len(groups))
			groups = append(groups, edgeGroup{first: int32(i)})
		}
		groups[slot[root]].n++
		survivors++
	}
	rs.groups = groups

	if len(groups) == 0 {
		en.dissolve(c)
		return
	}
	if len(groups) == 1 && survivors == nEdges {
		// Every edge still sits on a short cycle and the cluster held
		// together: nothing to restructure.
		en.hooks.updated(c)
		return
	}

	// Restructure: the largest component keeps the original identity so
	// that event history survives partial decay; the rest become new
	// clusters; expelled edges become cluster-less. Ties go to the
	// component with the smallest edge, for reproducible splits.
	off := int32(0)
	for g := range groups {
		groups[g].off, groups[g].fill = off, off
		off += groups[g].n
	}
	grouped := resize(&rs.grouped, survivors)
	for i := 0; i < nEdges; i++ {
		if rs.onCycle[i] {
			g := &groups[slot[rs.find(int32(i))]]
			grouped[g.fill] = rs.edges[i]
			g.fill++
		}
	}
	slices.SortFunc(groups, func(a, b edgeGroup) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return cmp.Compare(a.first, b.first)
	})

	oldID := c.id
	for i, e := range rs.edges {
		if !rs.onCycle[i] {
			en.setOwner(e, 0)
		}
	}
	parts := rs.parts[:0]
	for i, g := range groups {
		es := grouped[g.off : g.off+g.n]
		target := c
		if i > 0 {
			target = en.newCluster()
			for _, e := range es {
				en.setOwner(e, target.id)
			}
		}
		rs.fill(target, es)
		// Every part changed shape — the original identity lost nodes or
		// edges, fresh parts are new. Dirty-set consumers must revisit
		// them all even when a part contains no vertex the caller marked
		// (an expelled edge can strand a part that holds neither endpoint
		// of the deleted element).
		en.markTouched(target.id)
		parts = append(parts, target)
	}
	rs.parts = parts

	if len(parts) > 1 {
		en.statSplits++
		en.hooks.split(oldID, parts)
	} else {
		en.hooks.updated(c)
	}
	clear(parts) // the scratch must not pin clusters
}

// repairScratch is the working memory of repair, owned by the engine and
// reused call to call. Nodes and edges are addressed by their position in
// the cluster's sorted node and edge lists; the adjacency is CSR over
// those positions, with the edge index stored beside every neighbor so
// cycle enumeration never searches for an edge it is already walking.
type repairScratch struct {
	edges   []dygraph.Edge   // cluster edges, sorted by (U,V)
	nodes   []dygraph.NodeID // cluster nodes, ascending
	adjOff  []int32          // neighbors of node i: adj[adjOff[i]:adjOff[i+1]]
	adj     []int32          // neighbor positions, ascending per node
	adjEdge []int32          // position in edges of the edge to adj[k]
	cursor  []int32          // CSR fill cursors
	parent  []int32          // union-find over edge positions
	size    []int32
	onCycle []bool  // the edge lies on a cycle of length ≤ 4 inside the cluster
	deg     []int32 // per node: the edges of the part being filled at it

	slot    []int32 // union-find root → position in groups (-1: none yet)
	groups  []edgeGroup
	grouped []dygraph.Edge // surviving edges, group by group
	parts   []*Cluster
}

// edgeGroup is one connected component of the "share a short cycle"
// relation: n edges at grouped[off:], the smallest being edges[first].
type edgeGroup struct {
	first, n, off, fill int32
}

// resize returns (*s)[:n], growing the backing array when needed.
// Contents are unspecified.
func resize[T any](s *[]T, n int) []T {
	*s = slices.Grow((*s)[:0], n)[:n]
	return *s
}

// load builds the local adjacency over c's surviving edges and resets
// the union-find and cycle marks.
func (rs *repairScratch) load(c *Cluster) {
	rs.edges = c.AppendEdges(rs.edges[:0])
	rs.nodes = c.AppendNodes(rs.nodes[:0])
	nNodes, nEdges := len(rs.nodes), len(rs.edges)

	off := resize(&rs.adjOff, nNodes+1)
	off[0] = 0
	for i, d := range c.deg { // the node's degree inside the cluster
		off[i+1] = off[i] + d
	}
	cursor := resize(&rs.cursor, nNodes)
	copy(cursor, off)
	adj := resize(&rs.adj, 2*nEdges)
	adjEdge := resize(&rs.adjEdge, 2*nEdges)
	// Edges ascend by (U,V) and U < V, so every node first receives its
	// smaller neighbors in ascending order, then its larger ones: each
	// adjacency row comes out sorted.
	for ei, e := range rs.edges {
		u, v := rs.local(e.U), rs.local(e.V)
		adj[cursor[u]], adjEdge[cursor[u]] = v, int32(ei)
		cursor[u]++
		adj[cursor[v]], adjEdge[cursor[v]] = u, int32(ei)
		cursor[v]++
	}

	parent := resize(&rs.parent, nEdges)
	size := resize(&rs.size, nEdges)
	for i := range parent {
		parent[i], size[i] = int32(i), 1
	}
	clear(resize(&rs.onCycle, nEdges))
	clear(resize(&rs.deg, nNodes))
}

// fill makes es — one part of the loaded cluster's edges, sorted — the
// whole of c, counting each node's edges at its position in the loaded
// node list, so nodes come out ascending without a sort. A fresh part's
// slices are sized exactly; the original identity shrinks in place.
func (rs *repairScratch) fill(c *Cluster, es []dygraph.Edge) {
	deg := rs.deg
	for _, e := range es {
		deg[rs.local(e.U)]++
		deg[rs.local(e.V)]++
	}
	if c.edges == nil {
		k := 0 // the part's nodes
		for _, d := range deg {
			if d > 0 {
				k++
			}
		}
		c.edges = make([]dygraph.Edge, 0, len(es))
		c.nodes = make([]dygraph.NodeID, 0, k)
		c.deg = make([]int32, 0, k)
	}
	c.edges = append(c.edges[:0], es...)
	c.nodes, c.deg = c.nodes[:0], c.deg[:0]
	for i, d := range deg {
		if d > 0 {
			c.nodes = append(c.nodes, rs.nodes[i])
			c.deg = append(c.deg, d)
			deg[i] = 0
		}
	}
}

// local returns the position of n in the sorted node list.
func (rs *repairScratch) local(n dygraph.NodeID) int32 {
	i, _ := slices.BinarySearch(rs.nodes, n)
	return int32(i)
}

// row returns node u's neighbor positions and the matching edge positions.
func (rs *repairScratch) row(u int32) (nbrs, edges []int32) {
	lo, hi := rs.adjOff[u], rs.adjOff[u+1]
	return rs.adj[lo:hi], rs.adjEdge[lo:hi]
}

// shortCycles finds every triangle and 4-cycle of the loaded cluster
// through each of its edges, marks their edges as on-cycle and unions
// them, and returns the number of existence checks performed.
func (rs *repairScratch) shortCycles() (checks int64) {
	for ei, e := range rs.edges {
		ei := int32(ei)
		u, v := rs.local(e.U), rs.local(e.V)
		nu, eu := rs.row(u)
		nv, ev := rs.row(v)
		// Triangles u–v–x: intersect the two sorted rows.
		checks += int64(min(len(nu), len(nv)))
		for i, j := 0, 0; i < len(nu) && j < len(nv); {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				rs.mark(ei, eu[i])
				rs.mark(ei, ev[j])
				i++
				j++
			}
		}
		// 4-cycles u–n3–n4–v.
		for i, n3 := range nu {
			if n3 == v {
				continue
			}
			n3row, n3edges := rs.row(n3)
			for j, n4 := range nv {
				if n4 == u || n4 == n3 {
					continue
				}
				checks++
				if k, ok := slices.BinarySearch(n3row, n4); ok {
					rs.mark(ei, eu[i])
					rs.mark(ei, n3edges[k])
					rs.mark(ei, ev[j])
				}
			}
		}
	}
	return checks
}

// mark records that edges a and b lie on a common short cycle.
func (rs *repairScratch) mark(a, b int32) {
	rs.onCycle[a], rs.onCycle[b] = true, true
	ra, rb := rs.find(a), rs.find(b)
	if ra == rb {
		return
	}
	if rs.size[ra] < rs.size[rb] {
		ra, rb = rb, ra
	}
	rs.parent[rb] = ra
	rs.size[ra] += rs.size[rb]
}

// find is weighted quick-union's root lookup with path halving.
func (rs *repairScratch) find(x int32) int32 {
	p := rs.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// dissolve removes a cluster entirely: its edges stay in the graph but are
// no longer part of any cluster.
func (en *Engine) dissolve(c *Cluster) {
	for _, e := range c.edges {
		en.setOwner(e, 0)
	}
	delete(en.clusters, c.id)
	en.hooks.dissolved(c.id)
}
