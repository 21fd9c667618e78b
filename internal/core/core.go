// Package core implements the paper's primary contribution: discovery and
// maintenance of dense clusters (approximate majority quasi-cliques, aMQCs)
// in a highly dynamic graph using the short-cycle property (SCP).
//
// # Short-cycle property
//
// A cluster C satisfies SCP if every edge of C lies on a cycle of length at
// most 4 whose edges all belong to C (Section 4.1 of the paper). SCP is a
// necessary condition for ½-quasi cliques (Theorem 1) and a sufficient
// condition for biconnectivity (Theorem 2), which makes SCP clusters a
// practical middle ground between complete cliques (too strict for evolving
// events) and biconnected components (too loose).
//
// # Canonical clustering
//
// The clustering maintained here is canonical: take every cycle of length 3
// or 4 in the graph as a seed edge set, then repeatedly merge seeds and
// clusters that share an edge (Lemma 6). The resulting clusters are the
// connected components of the "edges related by a common short cycle"
// relation; edges on no short cycle belong to no cluster. This object is
// unique for a given graph (Theorem 3), which is what makes purely local
// maintenance possible: Canonical in this package computes it from scratch
// and is used both as a reference implementation and as the oracle for the
// engine's property tests.
//
// # Incremental maintenance
//
// Engine maintains the canonical clustering under node/edge addition and
// deletion with work proportional to the neighborhood of the change:
//
//   - Edge addition: every new short cycle passes through the new edge, so
//     enumerating triangles and 4-cycles through it (O(deg·deg)) finds all
//     new seeds; clusters owning any seed edge are merged (Lemma 6).
//   - Node addition: the node is added with its incident edges one at a
//     time; Lemma 5 (order independence) guarantees the same result as the
//     paper's pairwise R1/R2 formulation, which is also provided.
//   - Deletion: only the owning cluster is affected. Repair re-derives the
//     canonical components inside the cluster's remaining edge set: the
//     paper's cycle check (drop edges that lost their last short cycle) and
//     articulation check (split parts that met only at the deleted element)
//     both fall out of this construction.
//
// A node may participate in several clusters; an edge belongs to at most
// one. All short cycles of the graph are always fully contained in a single
// cluster — the invariant that keeps repair local.
package core

import (
	"cmp"
	"slices"

	"repro/internal/dygraph"
)

// ClusterID identifies a live cluster. IDs are never reused within an
// Engine's lifetime. The zero value means "no cluster".
type ClusterID uint64

// Cluster is a set of nodes and edges satisfying the short-cycle property.
// Clusters are owned and mutated by their Engine; callers must treat them
// as read-only snapshots that are only valid until the next engine update.
type Cluster struct {
	id ClusterID
	// nodes are the member nodes ascending, and deg[i] is the number of
	// cluster edges incident to nodes[i] (at least 1): a node leaves the
	// cluster with its last cluster edge.
	nodes []dygraph.NodeID
	deg   []int32
	edges []dygraph.Edge // sorted by (U,V)
	// birth is the engine operation sequence number at which the cluster
	// was formed; used by higher layers to track event lifetime.
	birth uint64
}

// ID returns the cluster's identifier.
func (c *Cluster) ID() ClusterID { return c.id }

// Birth returns the engine operation sequence number at which this cluster
// was formed. Merges keep the birth of the surviving (larger) cluster.
func (c *Cluster) Birth() uint64 { return c.birth }

// NodeCount returns the number of member nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// EdgeCount returns the number of member edges.
func (c *Cluster) EdgeCount() int { return len(c.edges) }

// HasNode reports whether n belongs to the cluster.
func (c *Cluster) HasNode(n dygraph.NodeID) bool {
	_, ok := slices.BinarySearch(c.nodes, n)
	return ok
}

// HasEdge reports whether e belongs to the cluster.
func (c *Cluster) HasEdge(e dygraph.Edge) bool {
	_, ok := c.findEdge(e)
	return ok
}

// Nodes returns the member nodes sorted ascending.
func (c *Cluster) Nodes() []dygraph.NodeID { return slices.Clone(c.nodes) }

// Edges returns the member edges sorted by (U,V).
func (c *Cluster) Edges() []dygraph.Edge { return slices.Clone(c.edges) }

// AppendNodes appends the member nodes (sorted ascending) to dst,
// reusing its capacity — the allocation-amortised companion of Nodes
// for per-quantum consumers.
func (c *Cluster) AppendNodes(dst []dygraph.NodeID) []dygraph.NodeID {
	return append(dst, c.nodes...)
}

// AppendEdges appends the member edges (canonical orientation, sorted
// by (U,V)) to dst, reusing its capacity.
func (c *Cluster) AppendEdges(dst []dygraph.Edge) []dygraph.Edge {
	return append(dst, c.edges...)
}

// ForEachNode calls fn for every member node, ascending.
func (c *Cluster) ForEachNode(fn func(n dygraph.NodeID)) {
	for _, n := range c.nodes {
		fn(n)
	}
}

// ForEachEdge calls fn for every member edge, sorted by (U,V).
func (c *Cluster) ForEachEdge(fn func(e dygraph.Edge)) {
	for _, e := range c.edges {
		fn(e)
	}
}

// Density returns 2|E| / (|V|·(|V|−1)), the fraction of possible edges
// present in the cluster. A complete clique has density 1.
func (c *Cluster) Density() float64 {
	n := len(c.nodes)
	if n < 2 {
		return 0
	}
	return 2 * float64(len(c.edges)) / float64(n*(n-1))
}

// IsMQC reports whether the cluster is an exact majority quasi clique:
// every member adjacent, inside the cluster, to a strict majority of the
// other members — quasi.Subgraph.IsMQC of the cluster's edges, read off
// the per-node edge counts.
func (c *Cluster) IsMQC() bool {
	n := len(c.nodes)
	if n < 2 {
		return n == 1
	}
	need := int32((n-1)/2 + 1) // smallest integer strictly greater than (n-1)/2
	for _, d := range c.deg {
		if d < need {
			return false
		}
	}
	return true
}

// findEdge returns the position of e in c.edges, or where it would go.
func (c *Cluster) findEdge(e dygraph.Edge) (int, bool) {
	return slices.BinarySearchFunc(c.edges, e, cmpEdge)
}

func cmpEdge(a, b dygraph.Edge) int {
	if a.U != b.U {
		return cmp.Compare(a.U, b.U)
	}
	return cmp.Compare(a.V, b.V)
}

// addEdge inserts e (absent from the cluster) and counts it at both
// endpoints.
func (c *Cluster) addEdge(e dygraph.Edge) {
	i, _ := c.findEdge(e)
	c.edges = slices.Insert(c.edges, i, e)
	c.bump(e.U, 1)
	c.bump(e.V, 1)
}

// removeEdge drops e (a member); an endpoint left without cluster edges
// leaves the cluster.
func (c *Cluster) removeEdge(e dygraph.Edge) {
	i, _ := c.findEdge(e)
	c.edges = slices.Delete(c.edges, i, i+1)
	c.bump(e.U, -1)
	c.bump(e.V, -1)
}

// bump adds d to n's edge count, inserting or dropping n as it enters or
// leaves the cluster.
func (c *Cluster) bump(n dygraph.NodeID, d int32) {
	i, ok := slices.BinarySearch(c.nodes, n)
	switch {
	case !ok:
		c.nodes = slices.Insert(c.nodes, i, n)
		c.deg = slices.Insert(c.deg, i, d)
	case c.deg[i]+d == 0:
		c.nodes = slices.Delete(c.nodes, i, i+1)
		c.deg = slices.Delete(c.deg, i, i+1)
	default:
		c.deg[i] += d
	}
}
