package core

import (
	"slices"

	"repro/internal/dygraph"
)

// Engine maintains the canonical SCP clustering of a dynamic graph under
// node and edge additions and deletions, performing only local computation
// per update (Sections 4 and 5 of the paper).
//
// The engine owns its graph: all mutations must go through the engine so
// that clusters stay consistent. Read access is available via Graph.
//
// The graph's edge owners are the clustering's index: an edge's owner is
// the ID of the cluster it belongs to (0: none). A node belongs to exactly
// the clusters owning one of its edges, so its row in the graph lists
// them too — a node may sit in several edge-disjoint clusters.
type Engine struct {
	g        *dygraph.Graph
	clusters map[ClusterID]*Cluster
	nextID   ClusterID
	ops      uint64
	hooks    Hooks

	// touched collects the IDs of clusters whose node set, edge set or
	// any edge weight changed since the last BeginQuantum — the exact
	// set a downstream consumer must revisit (rank, support and keyword
	// listings of an untouched cluster cannot have changed through the
	// engine). IDs of clusters that were merged away or dissolved may
	// linger in the set; consumers iterate live clusters and use touched
	// as a membership filter, so stale IDs are harmless.
	touched map[ClusterID]struct{}

	// rs is repair's working memory; ids, owners and removed are
	// RemoveNode's (the clusters to repair, the removed node's edge owners
	// and edges); seeds and absorbing are AddEdge's (the short-cycle edges
	// through the new edge, and the clusters owning any of them).
	rs        repairScratch
	ids       []ClusterID
	owners    []uint64
	removed   []dygraph.Edge
	seeds     []dygraph.Edge
	absorbing []*Cluster

	// stats for the harness (Section 7.4).
	statCycleChecks int64
	statMerges      int64
	statSplits      int64
}

// NewEngine returns an engine over an empty graph.
func NewEngine(hooks Hooks) *Engine {
	return &Engine{
		g:        dygraph.New(),
		clusters: make(map[ClusterID]*Cluster),
		hooks:    hooks,
	}
}

// Graph exposes the underlying graph for read-only use. Mutating it
// directly corrupts the clustering.
func (en *Engine) Graph() *dygraph.Graph { return en.g }

// BeginQuantum resets the touched-cluster set. The AKG layer calls it
// at the top of every ProcessQuantum so TouchedClusters describes
// exactly one quantum's structural churn.
func (en *Engine) BeginQuantum() { clear(en.touched) }

// TouchedClusters returns the set of cluster IDs mutated since the
// last BeginQuantum (see the touched field for the exact contract).
// The map is owned by the engine and valid until the next
// BeginQuantum; callers may add IDs of their own (the set is cleared
// wholesale) but must not delete.
func (en *Engine) TouchedClusters() map[ClusterID]struct{} {
	if en.touched == nil {
		en.touched = make(map[ClusterID]struct{})
	}
	return en.touched
}

func (en *Engine) markTouched(id ClusterID) {
	if en.touched == nil {
		en.touched = make(map[ClusterID]struct{})
	}
	en.touched[id] = struct{}{}
}

// ForEachClusterOf calls fn once with the ID of every cluster containing
// n, in unspecified order — the allocation-free companion of
// ClustersOfNode for dirty-set consumers.
func (en *Engine) ForEachClusterOf(n dygraph.NodeID, fn func(id ClusterID)) {
	var buf [8]ClusterID
	for _, id := range en.appendClustersOf(buf[:0], n) {
		fn(id)
	}
}

// appendClustersOf appends the IDs of the clusters containing n — the
// distinct owners of its edges — to dst, in the order of n's row.
func (en *Engine) appendClustersOf(dst []ClusterID, n dygraph.NodeID) []ClusterID {
	start := len(dst)
	_, owners := en.g.Row(n)
	for _, o := range owners {
		if id := ClusterID(o); id != 0 && !slices.Contains(dst[start:], id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// AppendClusterIDs appends every live cluster ID to dst (unsorted),
// reusing its capacity — the allocation-amortised companion of
// Clusters for per-quantum iteration.
func (en *Engine) AppendClusterIDs(dst []ClusterID) []ClusterID {
	//repro:order-insensitive documented-unsorted API; the sole replay-path caller sorts the result before use
	for id := range en.clusters {
		dst = append(dst, id)
	}
	return dst
}

// Ops returns the number of mutating operations performed so far. Cluster
// birth times are expressed in this sequence.
func (en *Engine) Ops() uint64 { return en.ops }

// ClusterCount returns the number of live clusters.
func (en *Engine) ClusterCount() int { return len(en.clusters) }

// Cluster returns the live cluster with the given ID, or nil.
func (en *Engine) Cluster(id ClusterID) *Cluster { return en.clusters[id] }

// ClusterOfEdge returns the cluster owning edge (a,b), or nil.
func (en *Engine) ClusterOfEdge(a, b dygraph.NodeID) *Cluster {
	return en.clusters[en.owner(a, b)]
}

// owner returns the ID of the cluster owning edge (a,b), 0 for none.
func (en *Engine) owner(a, b dygraph.NodeID) ClusterID { return ClusterID(en.g.Owner(a, b)) }

// setOwner records that cluster id (0: none) owns the present edge e.
func (en *Engine) setOwner(e dygraph.Edge, id ClusterID) { en.g.SetOwner(e.U, e.V, uint64(id)) }

// ClustersOfNode returns the clusters containing n, sorted by ID.
func (en *Engine) ClustersOfNode(n dygraph.NodeID) []*Cluster {
	ids := en.appendClustersOf(nil, n)
	if len(ids) == 0 {
		return nil
	}
	slices.Sort(ids)
	out := make([]*Cluster, len(ids))
	for i, id := range ids {
		out[i] = en.clusters[id]
	}
	return out
}

// InAnyCluster reports whether node n currently belongs to any cluster.
// The AKG layer uses this for its lazy-removal rule: a keyword stays in the
// AKG while it is part of any event cluster (Section 3.1).
func (en *Engine) InAnyCluster(n dygraph.NodeID) bool {
	_, owners := en.g.Row(n)
	return slices.ContainsFunc(owners, func(o uint64) bool { return o != 0 })
}

// Clusters returns all live clusters sorted by ID.
func (en *Engine) Clusters() []*Cluster {
	ids := make([]ClusterID, 0, len(en.clusters))
	for id := range en.clusters {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*Cluster, len(ids))
	for i, id := range ids {
		out[i] = en.clusters[id]
	}
	return out
}

// ForEachCluster calls fn for every live cluster in unspecified order.
func (en *Engine) ForEachCluster(fn func(c *Cluster)) {
	//repro:order-insensitive documented unordered-callback API; callers needing order use Clusters
	for _, c := range en.clusters {
		fn(c)
	}
}

// AddNode inserts a node with no edges. No clusters can form.
func (en *Engine) AddNode(n dygraph.NodeID) {
	en.ops++
	en.g.AddNode(n)
}

// AddEdge inserts the edge (a,b) with weight w (creating endpoints as
// needed) and updates the clustering: all short cycles through the new edge
// are discovered (paper's EdgeAddition, Section 5.2) and the clusters they
// touch are merged per Lemma 6. If the edge already exists only its weight
// is updated. It returns the cluster now owning the edge, or nil.
func (en *Engine) AddEdge(a, b dygraph.NodeID, w float64) *Cluster {
	if a == b {
		return nil
	}
	en.ops++
	e := dygraph.NewEdge(a, b)
	if !en.g.AddEdge(a, b, w) {
		// Weight refresh only; clustering is threshold-free at this layer.
		if id := en.owner(a, b); id != 0 {
			en.markTouched(id) // the owning cluster's rank inputs changed
			return en.clusters[id]
		}
		return nil
	}
	seeds := en.cycleEdgesThrough(a, b)
	if len(seeds) == 0 {
		return nil // edge participates in no short cycle yet
	}
	en.seeds = append(seeds, e)
	return en.absorb(en.seeds)
}

// AddNodeWithEdges adds node n together with edges to each listed neighbor,
// following the paper's NodeAddition (Section 5.1). Neighbors absent from
// the graph are created. Equivalent to AddNode followed by AddEdge for each
// neighbor (Lemma 5: the result is order-independent); provided as a single
// call because the AKG layer learns a new keyword's correlations in one
// batch at a quantum boundary.
func (en *Engine) AddNodeWithEdges(n dygraph.NodeID, nbrs []dygraph.NodeID, weights []float64) {
	en.g.AddNode(n)
	for i, m := range nbrs {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		en.AddEdge(n, m, w)
	}
}

// SetWeight updates an edge weight without touching the clustering.
func (en *Engine) SetWeight(a, b dygraph.NodeID, w float64) bool {
	if !en.g.SetWeight(a, b, w) {
		return false
	}
	if id := en.owner(a, b); id != 0 {
		en.markTouched(id) // rank depends on cluster edge weights
	}
	return true
}

// RemoveEdge deletes the edge (a,b) and repairs the owning cluster, if any
// (paper's EdgeDeletion, Section 5.4: cycle check for broken short cycles,
// then articulation check). It reports whether the edge existed.
func (en *Engine) RemoveEdge(a, b dygraph.NodeID) bool {
	en.ops++
	id := en.owner(a, b)
	if !en.g.RemoveEdge(a, b) {
		return false
	}
	if id == 0 {
		return true
	}
	c := en.clusters[id]
	en.markTouched(id)
	c.removeEdge(dygraph.NewEdge(a, b))
	en.repair(c)
	return true
}

// RemoveNode deletes node n and all incident edges, repairing every cluster
// the node participated in (paper's NodeDeletion, Section 5.3). It reports
// whether the node existed.
func (en *Engine) RemoveNode(n dygraph.NodeID) bool {
	en.ops++
	if !en.g.HasNode(n) {
		return false
	}
	// The owners go with the node's row, so they are read first; the
	// removed edges come back parallel to them.
	_, owners := en.g.Row(n)
	en.owners = append(en.owners[:0], owners...)
	en.removed = en.g.AppendRemoveNode(en.removed[:0], n)
	// Collect the clusters that lost an edge so each is repaired exactly
	// once no matter how many of its edges died.
	ids := en.ids[:0]
	for i, e := range en.removed {
		id := ClusterID(en.owners[i])
		if id == 0 {
			continue
		}
		en.markTouched(id)
		en.clusters[id].removeEdge(e)
		ids = append(ids, id)
	}
	// Repair in ID order: split parts receive fresh IDs, so the repair
	// order must be deterministic for checkpoint/resume equivalence.
	// Clusters are edge-disjoint, so repairing one never touches another
	// on the list.
	slices.Sort(ids)
	ids = slices.Compact(ids)
	en.ids = ids
	for _, id := range ids {
		en.repair(en.clusters[id])
	}
	return true
}

// cycleEdgesThrough enumerates every cycle of length 3 or 4 that passes
// through the (already inserted) edge (a,b) and returns the union of their
// edges, excluding (a,b) itself. This is the discovery step of the paper's
// EdgeAddition: triangles come from common neighbors (rule R2 shape) and
// 4-cycles a–n3–n4–b from the common neighbors n4 of b and each neighbor
// n3 of a (rule R1 shape) — merges of sorted rows. The result is the
// engine's seeds scratch, valid until the next call.
func (en *Engine) cycleEdgesThrough(a, b dygraph.NodeID) []dygraph.Edge {
	out := en.seeds[:0]
	g := en.g
	// One existence check per pair of a neighbor n3 ≠ b of a and a
	// neighbor n4 ≠ a of b: a triangle when n3 = n4, a 4-cycle candidate
	// otherwise.
	na, _ := g.Row(a)
	en.statCycleChecks += int64(len(na)-1) * int64(g.Degree(b)-1)
	g.CommonNeighbors(a, b, func(c dygraph.NodeID) {
		out = append(out, dygraph.NewEdge(a, c), dygraph.NewEdge(b, c))
	})
	for _, n3 := range na {
		if n3 == b {
			continue
		}
		g.CommonNeighbors(n3, b, func(n4 dygraph.NodeID) {
			if n4 != a {
				out = append(out,
					dygraph.NewEdge(a, n3),
					dygraph.NewEdge(n3, n4),
					dygraph.NewEdge(n4, b))
			}
		})
	}
	en.seeds = out
	return out
}

// absorb places all seed edges into a single cluster, merging every
// existing cluster that owns any of them (Lemma 6: aMQCs sharing an edge
// merge into one aMQC). The largest touched cluster survives; a new
// cluster is created when none exist. Returns the surviving cluster.
func (en *Engine) absorb(seeds []dygraph.Edge) *Cluster {
	// The clusters owning a seed, in first-seen order. A handful at most,
	// so the dedup is a scan.
	touched := en.absorbing[:0]
	for _, e := range seeds {
		if id := en.owner(e.U, e.V); id != 0 {
			if c := en.clusters[id]; !slices.Contains(touched, c) {
				touched = append(touched, c)
			}
		}
	}
	var target *Cluster
	isNew := false
	if len(touched) == 0 {
		target = en.newCluster()
		isNew = true
	} else {
		// Deterministic survivor: most edges, ties to the oldest ID — the
		// order the touched clusters were met in follows seed discovery,
		// and the choice must not depend on it (checkpoint/resume
		// equivalence).
		target = touched[0]
		for _, c := range touched[1:] {
			if c.EdgeCount() > target.EdgeCount() ||
				(c.EdgeCount() == target.EdgeCount() && c.id < target.id) {
				target = c
			}
		}
	}
	grew := false
	for _, c := range touched {
		if c == target {
			continue
		}
		en.statMerges++
		for _, e := range c.edges {
			target.addEdge(e)
			en.setOwner(e, target.id)
		}
		grew = true
		delete(en.clusters, c.id)
		en.hooks.merged(target, c.id)
	}
	for _, e := range seeds {
		if en.owner(e.U, e.V) == target.id {
			continue
		}
		target.addEdge(e)
		en.setOwner(e, target.id)
		grew = true
	}
	if isNew {
		en.hooks.formed(target)
	} else if grew {
		en.hooks.updated(target)
	}
	en.markTouched(target.id)
	clear(touched) // the scratch must not pin merged-away clusters
	en.absorbing = touched[:0]
	return target
}

func (en *Engine) newCluster() *Cluster {
	en.nextID++
	c := &Cluster{id: en.nextID, birth: en.ops}
	en.clusters[c.id] = c
	return c
}

// Stats returns counters describing the work the engine has done: short
// cycle existence checks, cluster merges and cluster splits. Used by the
// Section 7.4 experiment to show the computation stays local.
func (en *Engine) Stats() (cycleChecks, merges, splits int64) {
	return en.statCycleChecks, en.statMerges, en.statSplits
}
