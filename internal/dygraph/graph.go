// Package dygraph provides the dynamic undirected weighted graph substrate
// used by the rest of the system: the Correlated Keyword Graph (CKG), the
// Active CKG (AKG) and the SCP cluster engine are all built on it.
//
// The graph is optimised for the access patterns of incremental cluster
// maintenance (Section 4 and 5 of the paper), where a node has a handful
// of neighbors: every node's adjacency is one short sorted row, so an edge
// lookup is a binary search in it, neighbors come out ascending, common
// neighbors are a merge of two rows, and adding or removing an edge shifts
// a few entries of two rows. It is not safe for concurrent mutation; the
// detector pipeline serialises updates per quantum.
package dygraph

import "slices"

// SortNodes sorts node IDs ascending without the per-call closure and
// reflection allocations of sort.Slice.
func SortNodes(ns []NodeID) { slices.Sort(ns) }

// Graph is a dynamic undirected graph with float64 edge weights.
// The zero value is not usable; call New.
//
// Nodes are looked up through a two-level table indexed by NodeID: a
// directory with one pointer per 64 IDs up to the largest ID the graph
// has seen, and a page of 64 int32 slots for each 64 IDs holding a live
// node. IDs
// are meant to be dense (the keyword interner's are) while live nodes may
// be few among them. The table points into dense rows of live nodes; a
// removed node's row goes to a free list and is reused, storage
// included, by the next node added.
//
// Every edge also carries an owner: an opaque tag the layer above
// attaches to it (the cluster engine stores the ID of the cluster the
// edge belongs to), 0 for none. New edges start with owner 0.
type Graph struct {
	pages []*page // NodeID/64 → its page; nil when none of its nodes is live
	rows  []row
	free  []int32 // positions in rows of removed nodes, for reuse
	nodes int
	edges int
}

// page maps 64 consecutive NodeIDs to 1 + the position of their rows in
// Graph.rows (0: absent), and counts the live ones.
type page struct {
	slot [pageSize]int32
	live int32
}

const pageSize = 64

// row is one node's adjacency: its neighbors ascending, with the weight
// and owner of the edge to each in the parallel columns.
type row struct {
	nbrs  []NodeID
	w     []float64
	owner []uint64
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// row returns n's row, or nil when n is absent. The pointer is valid
// until the next node is added.
func (g *Graph) row(n NodeID) *row {
	if i := int(n / pageSize); i < len(g.pages) && g.pages[i] != nil {
		if p := g.pages[i].slot[n%pageSize]; p != 0 {
			return &g.rows[p-1]
		}
	}
	return nil
}

// find returns the position of m in r, or where it would be inserted.
func (r *row) find(m NodeID) (int, bool) { return slices.BinarySearch(r.nbrs, m) }

func (r *row) insert(i int, m NodeID, w float64) {
	r.nbrs = slices.Insert(r.nbrs, i, m)
	r.w = slices.Insert(r.w, i, w)
	r.owner = slices.Insert(r.owner, i, 0)
}

func (r *row) delete(i int) {
	r.nbrs = slices.Delete(r.nbrs, i, i+1)
	r.w = slices.Delete(r.w, i, i+1)
	r.owner = slices.Delete(r.owner, i, i+1)
}

// edge returns a's row and the positions of the edge (a,b) in a's and
// b's rows; ok is false when the edge is absent.
func (g *Graph) edge(a, b NodeID) (ra, rb *row, i, j int, ok bool) {
	if ra = g.row(a); ra == nil {
		return nil, nil, 0, 0, false
	}
	if i, ok = ra.find(b); !ok {
		return nil, nil, 0, 0, false
	}
	rb = g.row(b)
	j, _ = rb.find(a)
	return ra, rb, i, j, true
}

// NodeCount returns the number of nodes currently in the graph.
func (g *Graph) NodeCount() int { return g.nodes }

// EdgeCount returns the number of edges currently in the graph.
func (g *Graph) EdgeCount() int { return g.edges }

// HasNode reports whether n is present.
func (g *Graph) HasNode(n NodeID) bool { return g.row(n) != nil }

// AddNode inserts n if absent. It reports whether the node was added.
func (g *Graph) AddNode(n NodeID) bool {
	if g.HasNode(n) {
		return false
	}
	// The directory grows by a quarter beyond n: new nodes tend to
	// arrive with ever larger IDs.
	if k := int(n/pageSize) + 1; k > len(g.pages) {
		g.pages = append(g.pages, make([]*page, k+k/4-len(g.pages))...)
	}
	pg := g.pages[n/pageSize]
	if pg == nil {
		pg = new(page)
		g.pages[n/pageSize] = pg
	}
	var p int32
	if k := len(g.free); k > 0 {
		p = g.free[k-1]
		g.free = g.free[:k-1]
	} else {
		g.rows = append(g.rows, row{})
		p = int32(len(g.rows) - 1)
	}
	pg.slot[n%pageSize] = p + 1
	pg.live++
	g.nodes++
	return true
}

// RemoveNode deletes n and all incident edges, returning the removed edges
// sorted by (U,V). Removing an absent or isolated node returns nil.
func (g *Graph) RemoveNode(n NodeID) []Edge { return g.AppendRemoveNode(nil, n) }

// AppendRemoveNode is RemoveNode appending the removed edges to dst. They
// come out sorted by (U,V), which is the order of their other endpoints:
// the i-th appended edge joins n to its i-th neighbor, so the owners
// Row(n) listed before the removal are parallel to them.
func (g *Graph) AppendRemoveNode(dst []Edge, n NodeID) []Edge {
	r := g.row(n)
	if r == nil {
		return dst
	}
	for _, m := range r.nbrs {
		dst = append(dst, NewEdge(n, m))
		rm := g.row(m)
		i, _ := rm.find(n)
		rm.delete(i)
	}
	g.edges -= len(r.nbrs)
	r.nbrs, r.w, r.owner = r.nbrs[:0], r.w[:0], r.owner[:0]
	pg := g.pages[n/pageSize]
	g.free = append(g.free, pg.slot[n%pageSize]-1)
	pg.slot[n%pageSize] = 0
	if pg.live--; pg.live == 0 {
		g.pages[n/pageSize] = nil
	}
	g.nodes--
	return dst
}

// HasEdge reports whether the edge (a,b) exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	r := g.row(a)
	if r == nil {
		return false
	}
	_, ok := r.find(b)
	return ok
}

// Weight returns the weight of edge (a,b) and whether it exists.
func (g *Graph) Weight(a, b NodeID) (float64, bool) {
	if r := g.row(a); r != nil {
		if i, ok := r.find(b); ok {
			return r.w[i], true
		}
	}
	return 0, false
}

// AddEdge inserts the edge (a,b) with weight w, creating the endpoints if
// needed. If the edge already exists only the weight is updated. It reports
// whether a new edge was created. Self-loops are ignored and report false.
func (g *Graph) AddEdge(a, b NodeID, w float64) bool {
	if a == b {
		return false
	}
	g.AddNode(a)
	g.AddNode(b)
	ra, rb := g.row(a), g.row(b)
	i, existed := ra.find(b)
	j, _ := rb.find(a)
	if existed {
		ra.w[i], rb.w[j] = w, w
		return false
	}
	ra.insert(i, b, w)
	rb.insert(j, a, w)
	g.edges++
	return true
}

// SetWeight updates the weight of an existing edge. It reports whether the
// edge was present.
func (g *Graph) SetWeight(a, b NodeID, w float64) bool {
	ra, rb, i, j, ok := g.edge(a, b)
	if ok {
		ra.w[i], rb.w[j] = w, w
	}
	return ok
}

// Owner returns the owner of edge (a,b); 0 when it has none or the edge
// is absent.
func (g *Graph) Owner(a, b NodeID) uint64 {
	if r := g.row(a); r != nil {
		if i, ok := r.find(b); ok {
			return r.owner[i]
		}
	}
	return 0
}

// SetOwner sets the owner of an existing edge. It reports whether the edge
// was present.
func (g *Graph) SetOwner(a, b NodeID, o uint64) bool {
	ra, rb, i, j, ok := g.edge(a, b)
	if ok {
		ra.owner[i], rb.owner[j] = o, o
	}
	return ok
}

// RemoveEdge deletes the edge (a,b). It reports whether the edge existed.
// Endpoints are left in place even if they become isolated.
func (g *Graph) RemoveEdge(a, b NodeID) bool {
	ra, rb, i, j, ok := g.edge(a, b)
	if ok {
		ra.delete(i)
		rb.delete(j)
		g.edges--
	}
	return ok
}

// Degree returns the number of neighbors of n (0 if absent).
func (g *Graph) Degree(n NodeID) int {
	if r := g.row(n); r != nil {
		return len(r.nbrs)
	}
	return 0
}

// Row returns n's neighbors ascending and, parallel to them, the owners
// of the edges to them (nil, nil when n is absent). Both slices are the
// graph's own: read-only, and valid until the next mutation.
func (g *Graph) Row(n NodeID) (nbrs []NodeID, owners []uint64) {
	if r := g.row(n); r != nil {
		return r.nbrs, r.owner
	}
	return nil, nil
}

// Neighbors calls fn for every neighbor of n, ascending, with the edge
// weight. fn must not mutate the graph.
func (g *Graph) Neighbors(n NodeID, fn func(m NodeID, w float64)) {
	if r := g.row(n); r != nil {
		for i, m := range r.nbrs {
			fn(m, r.w[i])
		}
	}
}

// NeighborSlice returns the neighbors of n sorted ascending in a fresh
// slice (nil when there are none).
func (g *Graph) NeighborSlice(n NodeID) []NodeID {
	nbrs, _ := g.Row(n)
	return slices.Clone(nbrs)
}

// AppendNeighbors appends the neighbors of n (sorted ascending) to dst,
// reusing its capacity — the allocation-amortised companion of
// NeighborSlice for per-quantum iteration.
func (g *Graph) AppendNeighbors(dst []NodeID, n NodeID) []NodeID {
	nbrs, _ := g.Row(n)
	return append(dst, nbrs...)
}

// CommonNeighbors calls fn, ascending, for every node adjacent to both a
// and b: one merge of the two sorted rows.
func (g *Graph) CommonNeighbors(a, b NodeID, fn func(c NodeID)) {
	x, _ := g.Row(a)
	y, _ := g.Row(b)
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			fn(x[i])
			i++
			j++
		}
	}
}

// Nodes returns all node IDs sorted ascending.
func (g *Graph) Nodes() []NodeID {
	return g.AppendNodes(make([]NodeID, 0, g.nodes))
}

// AppendNodes appends every node ID (sorted ascending) to dst, reusing
// its capacity, and returns the extended slice. A caller may pass a
// reused buffer (dst[:0]) to amortise the allocation across calls; it
// grows exactly once when too small.
func (g *Graph) AppendNodes(dst []NodeID) []NodeID {
	dst = slices.Grow(dst, g.nodes)
	g.ForEachNode(func(n NodeID) { dst = append(dst, n) })
	return dst
}

// ForEachNode calls fn for every node, ascending.
func (g *Graph) ForEachNode(fn func(n NodeID)) {
	for i, pg := range g.pages {
		if pg == nil {
			continue
		}
		for j, p := range pg.slot {
			if p != 0 {
				fn(NodeID(i*pageSize + j))
			}
		}
	}
}

// Edges returns all edges in canonical orientation, sorted by (U,V).
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, g.edges))
}

// AppendEdges appends every edge (canonical orientation, sorted by
// (U,V)) to dst, reusing its capacity, and returns the extended slice;
// like AppendNodes it lets snapshot/checkpoint callers reuse one buffer.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	dst = slices.Grow(dst, g.edges)
	g.ForEachEdge(func(e Edge, _ float64) { dst = append(dst, e) })
	return dst
}

// ForEachEdge calls fn for every edge exactly once (canonical
// orientation), sorted by (U,V). fn must not mutate the graph.
func (g *Graph) ForEachEdge(fn func(e Edge, w float64)) {
	g.ForEachNode(func(n NodeID) {
		r := g.row(n)
		// The row ascends: its neighbors above n start where n would go.
		i, _ := r.find(n)
		for ; i < len(r.nbrs); i++ {
			fn(Edge{U: n, V: r.nbrs[i]}, r.w[i])
		}
	})
}

// Clone returns a deep copy of the graph, owners included.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		pages: make([]*page, len(g.pages)),
		rows:  make([]row, len(g.rows)),
		free:  slices.Clone(g.free),
		nodes: g.nodes,
		edges: g.edges,
	}
	for i, pg := range g.pages {
		if pg != nil {
			cp := *pg
			c.pages[i] = &cp
		}
	}
	for i, r := range g.rows {
		c.rows[i] = row{nbrs: slices.Clone(r.nbrs), w: slices.Clone(r.w), owner: slices.Clone(r.owner)}
	}
	return c
}
