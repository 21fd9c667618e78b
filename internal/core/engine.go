package core

import (
	"slices"
	"sort"

	"repro/internal/dygraph"
)

// Engine maintains the canonical SCP clustering of a dynamic graph under
// node and edge additions and deletions, performing only local computation
// per update (Sections 4 and 5 of the paper).
//
// The engine owns its graph: all mutations must go through the engine so
// that clusters stay consistent. Read access is available via Graph.
type Engine struct {
	g           *dygraph.Graph
	clusters    map[ClusterID]*Cluster
	edgeCluster map[dygraph.Edge]ClusterID
	// nodeClusters indexes, for every node, the clusters it belongs to.
	// Needed because a node may sit in several edge-disjoint clusters.
	nodeClusters map[dygraph.NodeID]map[ClusterID]struct{}
	nextID       ClusterID
	ops          uint64
	hooks        Hooks

	// touched collects the IDs of clusters whose node set, edge set or
	// any edge weight changed since the last BeginQuantum — the exact
	// set a downstream consumer must revisit (rank, support and keyword
	// listings of an untouched cluster cannot have changed through the
	// engine). IDs of clusters that were merged away or dissolved may
	// linger in the set; consumers iterate live clusters and use touched
	// as a membership filter, so stale IDs are harmless.
	touched map[ClusterID]struct{}

	// rs is repair's working memory; ids is RemoveNode's; seeds and
	// absorbing are AddEdge's (the short-cycle edges through the new
	// edge, and the clusters owning any of them).
	rs        repairScratch
	ids       []ClusterID
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
		g:            dygraph.New(),
		clusters:     make(map[ClusterID]*Cluster),
		edgeCluster:  make(map[dygraph.Edge]ClusterID),
		nodeClusters: make(map[dygraph.NodeID]map[ClusterID]struct{}),
		hooks:        hooks,
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

// ForEachClusterOf calls fn with the ID of every cluster containing n,
// in unspecified order — the allocation-free companion of
// ClustersOfNode for dirty-set consumers.
func (en *Engine) ForEachClusterOf(n dygraph.NodeID, fn func(id ClusterID)) {
	//repro:order-insensitive documented unordered-callback API; callers needing order use ClustersOfNode
	for id := range en.nodeClusters[n] {
		fn(id)
	}
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
	id, ok := en.edgeCluster[dygraph.NewEdge(a, b)]
	if !ok {
		return nil
	}
	return en.clusters[id]
}

// ClustersOfNode returns the clusters containing n, sorted by ID.
func (en *Engine) ClustersOfNode(n dygraph.NodeID) []*Cluster {
	set := en.nodeClusters[n]
	if len(set) == 0 {
		return nil
	}
	ids := make([]ClusterID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
	return len(en.nodeClusters[n]) > 0
}

// Clusters returns all live clusters sorted by ID.
func (en *Engine) Clusters() []*Cluster {
	ids := make([]ClusterID, 0, len(en.clusters))
	for id := range en.clusters {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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
		if id, ok := en.edgeCluster[e]; ok {
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
	if id, ok := en.edgeCluster[dygraph.NewEdge(a, b)]; ok {
		en.markTouched(id) // rank depends on cluster edge weights
	}
	return true
}

// RemoveEdge deletes the edge (a,b) and repairs the owning cluster, if any
// (paper's EdgeDeletion, Section 5.4: cycle check for broken short cycles,
// then articulation check). It reports whether the edge existed.
func (en *Engine) RemoveEdge(a, b dygraph.NodeID) bool {
	en.ops++
	e := dygraph.NewEdge(a, b)
	if !en.g.RemoveEdge(a, b) {
		return false
	}
	id, ok := en.edgeCluster[e]
	if !ok {
		return true
	}
	delete(en.edgeCluster, e)
	c := en.clusters[id]
	en.markTouched(id)
	gone, ngone := c.removeEdge(e)
	for _, n := range gone[:ngone] {
		en.dropMembership(n, id)
	}
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
	removed := en.g.RemoveNode(n)
	// Collect the clusters that lost an edge so each is repaired exactly
	// once no matter how many of its edges died.
	ids := en.ids[:0]
	for _, e := range removed {
		id, ok := en.edgeCluster[e]
		if !ok {
			continue
		}
		delete(en.edgeCluster, e)
		en.markTouched(id)
		gone, ngone := en.clusters[id].removeEdge(e)
		for _, m := range gone[:ngone] {
			en.dropMembership(m, id)
		}
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
// 4-cycles from adjacent pairs (n3,n4) with n3~a, n4~b, n3–n4 an edge
// (rule R1 shape). The result is the engine's seeds scratch, valid until
// the next call.
func (en *Engine) cycleEdgesThrough(a, b dygraph.NodeID) []dygraph.Edge {
	out := en.seeds[:0]
	g := en.g
	// Triangles a–b–c.
	g.CommonNeighbors(a, b, func(c dygraph.NodeID) {
		en.statCycleChecks++
		out = append(out, dygraph.NewEdge(a, c), dygraph.NewEdge(b, c))
	})
	// 4-cycles a–n3–n4–b. Iterate from the lower-degree endpoint.
	g.Neighbors(a, func(n3 dygraph.NodeID, _ float64) {
		if n3 == b {
			return
		}
		g.Neighbors(b, func(n4 dygraph.NodeID, _ float64) {
			if n4 == a || n4 == n3 {
				return
			}
			en.statCycleChecks++
			if g.HasEdge(n3, n4) {
				out = append(out,
					dygraph.NewEdge(a, n3),
					dygraph.NewEdge(n3, n4),
					dygraph.NewEdge(n4, b))
			}
		})
	})
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
		if id, ok := en.edgeCluster[e]; ok {
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
		// Deterministic survivor: most edges, ties to the oldest ID —
		// seed discovery order comes from map iteration, so the choice
		// must not depend on it (checkpoint/resume equivalence).
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
		//repro:order-insensitive set union into the target cluster; per-edge inserts commute
		for e := range c.edges {
			target.addEdge(e)
			en.edgeCluster[e] = target.id
			grew = true
		}
		//repro:order-insensitive per-node membership moves commute; each node is handled once
		for n := range c.nodes {
			en.dropMembership(n, c.id)
			en.addMembership(n, target.id)
		}
		delete(en.clusters, c.id)
		en.hooks.merged(target, c.id)
	}
	for _, e := range seeds {
		if _, ok := target.edges[e]; ok {
			continue
		}
		target.addEdge(e)
		en.edgeCluster[e] = target.id
		en.addMembership(e.U, target.id)
		en.addMembership(e.V, target.id)
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
	c := &Cluster{
		id:    en.nextID,
		nodes: make(map[dygraph.NodeID]int),
		edges: make(map[dygraph.Edge]struct{}),
		birth: en.ops,
	}
	en.clusters[c.id] = c
	return c
}

func (en *Engine) addMembership(n dygraph.NodeID, id ClusterID) {
	set, ok := en.nodeClusters[n]
	if !ok {
		set = make(map[ClusterID]struct{}, 1)
		en.nodeClusters[n] = set
	}
	set[id] = struct{}{}
}

func (en *Engine) dropMembership(n dygraph.NodeID, id ClusterID) {
	set := en.nodeClusters[n]
	delete(set, id)
	if len(set) == 0 {
		delete(en.nodeClusters, n)
	}
}

// Stats returns counters describing the work the engine has done: short
// cycle existence checks, cluster merges and cluster splits. Used by the
// Section 7.4 experiment to show the computation stays local.
func (en *Engine) Stats() (cycleChecks, merges, splits int64) {
	return en.statCycleChecks, en.statMerges, en.statSplits
}
