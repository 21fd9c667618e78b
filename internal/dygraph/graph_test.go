package dygraph

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
)

func TestNewEdgeCanonical(t *testing.T) {
	e := NewEdge(5, 2)
	if e.U != 2 || e.V != 5 {
		t.Fatalf("NewEdge(5,2) = %v, want {2 5}", e)
	}
	if NewEdge(2, 5) != e {
		t.Fatalf("NewEdge is not symmetric")
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(1, 2)
	if e.Other(1) != 2 || e.Other(2) != 1 {
		t.Fatalf("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Other with non-endpoint did not panic")
		}
	}()
	e.Other(3)
}

func TestEdgeHas(t *testing.T) {
	e := NewEdge(1, 2)
	if !e.Has(1) || !e.Has(2) || e.Has(3) {
		t.Fatalf("Has gave wrong answers")
	}
}

func TestAddRemoveNode(t *testing.T) {
	g := New()
	if !g.AddNode(1) {
		t.Fatalf("AddNode new node reported false")
	}
	if g.AddNode(1) {
		t.Fatalf("AddNode duplicate reported true")
	}
	if !g.HasNode(1) || g.HasNode(2) {
		t.Fatalf("HasNode wrong")
	}
	if g.NodeCount() != 1 {
		t.Fatalf("NodeCount = %d, want 1", g.NodeCount())
	}
	if removed := g.RemoveNode(1); removed != nil {
		t.Fatalf("RemoveNode isolated node returned edges %v", removed)
	}
	if g.HasNode(1) {
		t.Fatalf("node survived removal")
	}
	if g.RemoveNode(99) != nil {
		t.Fatalf("removing absent node returned edges")
	}
}

func TestAddEdgeCreatesNodes(t *testing.T) {
	g := New()
	if !g.AddEdge(1, 2, 0.5) {
		t.Fatalf("AddEdge new edge reported false")
	}
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatalf("endpoints not created")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatalf("edge not symmetric")
	}
	if w, ok := g.Weight(2, 1); !ok || w != 0.5 {
		t.Fatalf("Weight = %v,%v want 0.5,true", w, ok)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
}

func TestAddEdgeDuplicateUpdatesWeight(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 0.5)
	if g.AddEdge(2, 1, 0.9) {
		t.Fatalf("duplicate AddEdge reported new")
	}
	if w, _ := g.Weight(1, 2); w != 0.9 {
		t.Fatalf("weight not updated, got %v", w)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d after duplicate add", g.EdgeCount())
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	if g.AddEdge(3, 3, 1) {
		t.Fatalf("self loop added")
	}
	if g.EdgeCount() != 0 {
		t.Fatalf("self loop counted")
	}
}

func TestSetWeight(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 0.1)
	if !g.SetWeight(1, 2, 0.7) {
		t.Fatalf("SetWeight on existing edge failed")
	}
	if w, _ := g.Weight(2, 1); w != 0.7 {
		t.Fatalf("weight = %v", w)
	}
	if g.SetWeight(1, 3, 0.5) {
		t.Fatalf("SetWeight on absent edge succeeded")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	if !g.RemoveEdge(2, 1) {
		t.Fatalf("RemoveEdge failed")
	}
	if g.HasEdge(1, 2) || g.EdgeCount() != 0 {
		t.Fatalf("edge survived removal")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatalf("double removal reported true")
	}
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatalf("endpoints should remain after edge removal")
	}
}

func TestRemoveNodeReturnsEdges(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	removed := g.RemoveNode(1)
	if len(removed) != 2 {
		t.Fatalf("removed %d edges, want 2: %v", len(removed), removed)
	}
	for _, e := range removed {
		if !e.Has(1) {
			t.Fatalf("returned edge %v not incident to removed node", e)
		}
	}
	if g.EdgeCount() != 1 || !g.HasEdge(2, 3) {
		t.Fatalf("surviving edges wrong")
	}
}

func TestDegreeAndNeighbors(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	if g.Degree(1) != 2 || g.Degree(2) != 1 || g.Degree(42) != 0 {
		t.Fatalf("degrees wrong")
	}
	got := g.NeighborSlice(1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("NeighborSlice = %v", got)
	}
	if g.NeighborSlice(42) != nil {
		t.Fatalf("NeighborSlice of absent node should be nil")
	}
	sum := 0
	g.Neighbors(1, func(m NodeID, w float64) { sum += int(m) })
	if sum != 5 {
		t.Fatalf("Neighbors visited wrong set, sum=%d", sum)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := New()
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 4, 1)
	g.AddEdge(2, 4, 1)
	g.AddEdge(1, 5, 1)
	var common []NodeID
	g.CommonNeighbors(1, 2, func(c NodeID) { common = append(common, c) })
	if len(common) != 2 {
		t.Fatalf("common neighbors = %v, want {3,4}", common)
	}
}

func TestNodesAndEdgesSorted(t *testing.T) {
	g := New()
	g.AddEdge(5, 2, 1)
	g.AddEdge(3, 1, 1)
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes not sorted: %v", nodes)
		}
	}
	edges := g.Edges()
	if len(edges) != 2 || edges[0] != NewEdge(1, 3) || edges[1] != NewEdge(2, 5) {
		t.Fatalf("Edges = %v", edges)
	}
}

func TestForEachEdgeVisitsOnce(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(1, 3, 1)
	count := 0
	g.ForEachEdge(func(e Edge, w float64) {
		count++
		if e.U >= e.V {
			t.Fatalf("non-canonical edge %v", e)
		}
	})
	if count != 3 {
		t.Fatalf("visited %d edges, want 3", count)
	}
}

func TestForEachNode(t *testing.T) {
	g := New()
	g.AddNode(7)
	g.AddNode(9)
	seen := map[NodeID]bool{}
	g.ForEachNode(func(n NodeID) { seen[n] = true })
	if !seen[7] || !seen[9] || len(seen) != 2 {
		t.Fatalf("ForEachNode visited %v", seen)
	}
}

func TestClone(t *testing.T) {
	g := New()
	g.AddEdge(1, 2, 0.3)
	g.AddEdge(2, 3, 0.4)
	c := g.Clone()
	g.RemoveEdge(1, 2)
	g.SetWeight(2, 3, 0.9)
	if !c.HasEdge(1, 2) {
		t.Fatalf("clone affected by original mutation")
	}
	if w, _ := c.Weight(2, 3); w != 0.4 {
		t.Fatalf("clone weight mutated: %v", w)
	}
	if c.EdgeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("edge counts wrong: clone=%d orig=%d", c.EdgeCount(), g.EdgeCount())
	}
}

// TestEdgeCountInvariant drives random mutations and checks EdgeCount
// always equals a brute-force recount.
func TestEdgeCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New()
	recount := func() int {
		n := 0
		g.ForEachEdge(func(Edge, float64) { n++ })
		return n
	}
	for i := 0; i < 2000; i++ {
		a := NodeID(rng.Intn(20))
		b := NodeID(rng.Intn(20))
		switch rng.Intn(4) {
		case 0, 1:
			g.AddEdge(a, b, rng.Float64())
		case 2:
			g.RemoveEdge(a, b)
		case 3:
			g.RemoveNode(a)
		}
		if g.EdgeCount() != recount() {
			t.Fatalf("step %d: EdgeCount=%d recount=%d", i, g.EdgeCount(), recount())
		}
	}
}

// TestEdgeCanonicalQuick property-tests that NewEdge always yields U ≤ V
// and is order-insensitive.
func TestEdgeCanonicalQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == b {
			return true
		}
		e1 := NewEdge(NodeID(a), NodeID(b))
		e2 := NewEdge(NodeID(b), NodeID(a))
		return e1 == e2 && e1.U < e1.V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReuse(t *testing.T) {
	g := New()
	g.AddEdge(3, 1, 0.5)
	g.AddEdge(2, 3, 0.25)

	nodes := make([]NodeID, 0, 8)
	nodes = g.AppendNodes(nodes[:0])
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Fatalf("AppendNodes = %v", nodes)
	}
	// Reuse must not grow the buffer when capacity suffices.
	before := cap(nodes)
	nodes = g.AppendNodes(nodes[:0])
	if cap(nodes) != before {
		t.Fatalf("AppendNodes reallocated: cap %d -> %d", before, cap(nodes))
	}

	edges := g.AppendEdges(nil)
	if len(edges) != 2 || edges[0] != (Edge{U: 1, V: 3}) || edges[1] != (Edge{U: 2, V: 3}) {
		t.Fatalf("AppendEdges = %v", edges)
	}
}

// TestGraphSteadyStateAllocs pins the graph's hot operations to zero
// allocations: lookups, weight updates, sorted neighbor listings and
// common-neighbor merges never allocate, and neither do edge insertions
// and removals between existing nodes once their rows have capacity —
// nor a node removed and added back, whose row is recycled.
func TestGraphSteadyStateAllocs(t *testing.T) {
	g := New()
	for a := NodeID(0); a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			g.AddEdge(a, b, float64(a+b))
		}
	}
	var (
		nbrs    []NodeID
		removed []Edge
		common  int
	)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"HasEdge", func() { g.HasEdge(2, 5) }},
		{"Weight", func() { g.Weight(5, 2) }},
		{"SetWeight", func() { g.SetWeight(2, 5, 0.5) }},
		{"AppendNeighbors", func() { nbrs = g.AppendNeighbors(nbrs[:0], 3) }},
		{"CommonNeighbors", func() { g.CommonNeighbors(1, 6, func(NodeID) { common++ }) }},
		{"RemoveEdge+AddEdge", func() { g.RemoveEdge(2, 5); g.AddEdge(5, 2, 1) }},
		{"AppendRemoveNode+AddEdge", func() {
			removed = g.AppendRemoveNode(removed[:0], 4)
			for _, e := range removed {
				g.AddEdge(e.U, e.V, 1)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", tc.name, n)
		}
	}
	if g.EdgeCount() != 28 {
		t.Fatalf("the churn lost edges: %d, want 28", g.EdgeCount())
	}
}

// FuzzGraphOps drives the graph and the map-of-maps oracle it replaced
// with one op script (3 bytes per step: op, two node IDs) and compares
// every read after every step. IDs come from a 16-node alphabet, with an
// occasional one up to 2¹⁶ so the node table grows and removed rows are
// reused by other nodes. Owners are checked against a map of their own.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{1, 1, 2, 1, 2, 3, 1, 3, 1, 4, 1, 0, 2, 2, 3})
	f.Add([]byte{1, 0xf0, 1, 2, 0xf0, 2, 6, 1, 2, 4, 0xf0, 0, 1, 0xff, 0xf1, 1, 3, 0xff})
	f.Add([]byte("rows recycled through the free list, owners kept per edge"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		id := func(x byte) NodeID {
			if x >= 0xf0 {
				return NodeID(x-0xef) * 4093 // up to 65,488
			}
			return NodeID(x % 16)
		}
		g, want := New(), newMapGraph()
		owners := map[Edge]uint64{}
		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i]%7, id(script[i+1]), id(script[i+2])
			w := float64(script[i+2]) / 8
			switch op {
			case 0:
				if got, exp := g.AddNode(a), want.AddNode(a); got != exp {
					t.Fatalf("step %d: AddNode(%d) = %v, oracle %v", i/3, a, got, exp)
				}
			case 1, 2:
				if got, exp := g.AddEdge(a, b, w), want.AddEdge(a, b, w); got != exp {
					t.Fatalf("step %d: AddEdge(%d,%d) = %v, oracle %v", i/3, a, b, got, exp)
				}
			case 3:
				if got, exp := g.RemoveEdge(a, b), want.RemoveEdge(a, b); got != exp {
					t.Fatalf("step %d: RemoveEdge(%d,%d) = %v, oracle %v", i/3, a, b, got, exp)
				}
				if a != b {
					delete(owners, NewEdge(a, b))
				}
			case 4:
				got, exp := g.RemoveNode(a), want.RemoveNode(a)
				if !slices.Equal(got, exp) {
					t.Fatalf("step %d: RemoveNode(%d) = %v, oracle %v", i/3, a, got, exp)
				}
				for _, e := range got {
					delete(owners, e)
				}
			case 5:
				if got, exp := g.SetWeight(a, b, w), want.SetWeight(a, b, w); got != exp {
					t.Fatalf("step %d: SetWeight(%d,%d) = %v, oracle %v", i/3, a, b, got, exp)
				}
			case 6:
				o := uint64(script[i]) + 1
				if got, exp := g.SetOwner(a, b, o), want.HasEdge(a, b); got != exp {
					t.Fatalf("step %d: SetOwner(%d,%d) = %v, edge present %v", i/3, a, b, got, exp)
				}
				if want.HasEdge(a, b) {
					owners[NewEdge(a, b)] = o
				}
			}
			compareGraphs(t, g, want, owners)
		}
	})
}

// compareGraphs fails unless g reads exactly like the oracle: counters,
// sorted node and edge listings with weights, every node's degree, sorted
// neighbors and owners, common neighbors of every pair of nodes, and an
// Encode → Decode round trip.
func compareGraphs(t *testing.T, g *Graph, want *mapGraph, owners map[Edge]uint64) {
	t.Helper()
	if g.NodeCount() != want.NodeCount() || g.EdgeCount() != want.EdgeCount() {
		t.Fatalf("counts %d nodes %d edges, oracle %d / %d",
			g.NodeCount(), g.EdgeCount(), want.NodeCount(), want.EdgeCount())
	}
	nodes := g.Nodes()
	if exp := want.Nodes(); !slices.Equal(nodes, exp) {
		t.Fatalf("Nodes = %v, oracle %v", nodes, exp)
	}
	var visited []NodeID
	g.ForEachNode(func(n NodeID) { visited = append(visited, n) })
	if !slices.Equal(visited, nodes) {
		t.Fatalf("ForEachNode visited %v, Nodes %v", visited, nodes)
	}
	edges := g.Edges()
	if exp := want.Edges(); !slices.Equal(edges, exp) {
		t.Fatalf("Edges = %v, oracle %v", edges, exp)
	}
	k := 0
	g.ForEachEdge(func(e Edge, w float64) {
		if k >= len(edges) || e != edges[k] {
			t.Fatalf("ForEachEdge #%d is %v; Edges = %v", k, e, edges)
		}
		if exp, _ := want.Weight(e.U, e.V); w != exp {
			t.Fatalf("ForEachEdge: %v weight %v, oracle %v", e, w, exp)
		}
		if o := g.Owner(e.V, e.U); o != owners[e] {
			t.Fatalf("Owner%v = %d, want %d", e, o, owners[e])
		}
		k++
	})
	for _, n := range nodes {
		nbrs, own := g.Row(n)
		if exp := want.NeighborSlice(n); !slices.Equal(nbrs, exp) || g.Degree(n) != want.Degree(n) {
			t.Fatalf("node %d: neighbors %v (degree %d), oracle %v (%d)", n, nbrs, g.Degree(n), exp, want.Degree(n))
		}
		if got := g.AppendNeighbors([]NodeID{7}, n); !slices.Equal(got[1:], nbrs) || got[0] != 7 {
			t.Fatalf("node %d: AppendNeighbors = %v", n, got)
		}
		for i, m := range nbrs {
			if own[i] != owners[NewEdge(n, m)] {
				t.Fatalf("node %d: owner of the edge to %d = %d, want %d", n, m, own[i], owners[NewEdge(n, m)])
			}
		}
		for _, m := range nodes {
			var got, exp []NodeID
			g.CommonNeighbors(n, m, func(c NodeID) { got = append(got, c) })
			want.CommonNeighbors(n, m, func(c NodeID) { exp = append(exp, c) })
			if slices.Sort(exp); !slices.Equal(got, exp) {
				t.Fatalf("CommonNeighbors(%d,%d) = %v, oracle %v", n, m, got, exp)
			}
		}
	}
	s := g.State()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, "")
	g.Encode(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := codec.ReadFrames(&buf, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(payload)
	back := Decode(&r, ^NodeID(0))
	if err := r.End(); err != nil {
		t.Fatalf("Encode → Decode: %v", err)
	}
	if s2 := back.State(); !slices.Equal(s.Nodes, s2.Nodes) || !slices.Equal(s.Edges, s2.Edges) || !slices.Equal(s.Weights, s2.Weights) {
		t.Fatalf("Encode → Decode changed the graph: %+v, then %+v", s, s2)
	}
	for i, e := range s.Edges {
		if exp, _ := want.Weight(e.U, e.V); s.Weights[i] != exp {
			t.Fatalf("State weight of %v = %v, oracle %v", e, s.Weights[i], exp)
		}
	}
}

// sortEdges sorts edges by (U,V) ascending.
func sortEdges(es []Edge) {
	slices.SortFunc(es, func(a, b Edge) int {
		if a.U != b.U {
			if a.U < b.U {
				return -1
			}
			return 1
		}
		if a.V < b.V {
			return -1
		}
		if a.V > b.V {
			return 1
		}
		return 0
	})
}

// mapGraph is the map-of-maps Graph the row-based one replaced, kept
// verbatim as the oracle of FuzzGraphOps — renamed, and without the
// repro-lint annotations its map loops needed outside tests.
type mapGraph struct {
	adj       map[NodeID]map[NodeID]float64
	edgeCount int
}

// newMapGraph returns an empty graph.
func newMapGraph() *mapGraph {
	return &mapGraph{adj: make(map[NodeID]map[NodeID]float64)}
}

// NodeCount returns the number of nodes currently in the graph.
func (g *mapGraph) NodeCount() int { return len(g.adj) }

// EdgeCount returns the number of edges currently in the graph.
func (g *mapGraph) EdgeCount() int { return g.edgeCount }

// HasNode reports whether n is present.
func (g *mapGraph) HasNode(n NodeID) bool {
	_, ok := g.adj[n]
	return ok
}

// AddNode inserts n if absent. It reports whether the node was added.
func (g *mapGraph) AddNode(n NodeID) bool {
	if _, ok := g.adj[n]; ok {
		return false
	}
	g.adj[n] = make(map[NodeID]float64)
	return true
}

// RemoveNode deletes n and all incident edges, returning the removed edges
// sorted by (U,V). Removing an absent node returns nil.
func (g *mapGraph) RemoveNode(n NodeID) []Edge {
	nbrs, ok := g.adj[n]
	if !ok {
		return nil
	}
	if len(nbrs) == 0 {
		delete(g.adj, n)
		return nil
	}
	removed := make([]Edge, 0, len(nbrs))
	for m := range nbrs {
		delete(g.adj[m], n)
		g.edgeCount--
		removed = append(removed, NewEdge(n, m))
	}
	delete(g.adj, n)
	sortEdges(removed)
	return removed
}

// HasEdge reports whether the edge (a,b) exists.
func (g *mapGraph) HasEdge(a, b NodeID) bool {
	_, ok := g.adj[a][b]
	return ok
}

// Weight returns the weight of edge (a,b) and whether it exists.
func (g *mapGraph) Weight(a, b NodeID) (float64, bool) {
	w, ok := g.adj[a][b]
	return w, ok
}

// AddEdge inserts the edge (a,b) with weight w, creating the endpoints if
// needed. If the edge already exists only the weight is updated. It reports
// whether a new edge was created. Self-loops are ignored and report false.
func (g *mapGraph) AddEdge(a, b NodeID, w float64) bool {
	if a == b {
		return false
	}
	g.AddNode(a)
	g.AddNode(b)
	_, existed := g.adj[a][b]
	g.adj[a][b] = w
	g.adj[b][a] = w
	if !existed {
		g.edgeCount++
	}
	return !existed
}

// SetWeight updates the weight of an existing edge. It reports whether the
// edge was present.
func (g *mapGraph) SetWeight(a, b NodeID, w float64) bool {
	if _, ok := g.adj[a][b]; !ok {
		return false
	}
	g.adj[a][b] = w
	g.adj[b][a] = w
	return true
}

// RemoveEdge deletes the edge (a,b). It reports whether the edge existed.
// Endpoints are left in place even if they become isolated.
func (g *mapGraph) RemoveEdge(a, b NodeID) bool {
	if _, ok := g.adj[a][b]; !ok {
		return false
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.edgeCount--
	return true
}

// Degree returns the number of neighbors of n (0 if absent).
func (g *mapGraph) Degree(n NodeID) int { return len(g.adj[n]) }

// Neighbors calls fn for every neighbor of n with the edge weight.
// Iteration order is unspecified. fn must not mutate the graph.
func (g *mapGraph) Neighbors(n NodeID, fn func(m NodeID, w float64)) {
	for m, w := range g.adj[n] {
		fn(m, w)
	}
}

// NeighborSlice returns the neighbors of n sorted ascending. It allocates;
// prefer Neighbors on hot paths.
func (g *mapGraph) NeighborSlice(n NodeID) []NodeID {
	nbrs := g.adj[n]
	if len(nbrs) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(nbrs))
	for m := range nbrs {
		out = append(out, m)
	}
	SortNodes(out)
	return out
}

// AppendNeighbors appends the neighbors of n (sorted ascending) to dst,
// reusing its capacity — the allocation-amortised companion of
// NeighborSlice for per-quantum iteration.
func (g *mapGraph) AppendNeighbors(dst []NodeID, n NodeID) []NodeID {
	start := len(dst)
	for m := range g.adj[n] {
		dst = append(dst, m)
	}
	SortNodes(dst[start:])
	return dst
}

// CommonNeighbors calls fn for every node adjacent to both a and b.
// It iterates the smaller adjacency set.
func (g *mapGraph) CommonNeighbors(a, b NodeID, fn func(c NodeID)) {
	na, nb := g.adj[a], g.adj[b]
	if len(na) > len(nb) {
		na, nb = nb, na
	}
	for c := range na {
		if _, ok := nb[c]; ok {
			fn(c)
		}
	}
}

// Nodes returns all node IDs sorted ascending.
func (g *mapGraph) Nodes() []NodeID {
	return g.AppendNodes(make([]NodeID, 0, len(g.adj)))
}

// AppendNodes appends every node ID (sorted ascending) to dst, reusing
// its capacity, and returns the extended slice; it grows exactly once
// when too small.
func (g *mapGraph) AppendNodes(dst []NodeID) []NodeID {
	start := len(dst)
	if need := start + len(g.adj); cap(dst) < need {
		grown := make([]NodeID, start, need)
		copy(grown, dst)
		dst = grown
	}
	for n := range g.adj {
		dst = append(dst, n)
	}
	SortNodes(dst[start:])
	return dst
}

// ForEachNode calls fn for every node in unspecified order.
func (g *mapGraph) ForEachNode(fn func(n NodeID)) {
	for n := range g.adj {
		fn(n)
	}
}

// Edges returns all edges in canonical orientation, sorted by (U,V).
func (g *mapGraph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, g.edgeCount))
}

// AppendEdges appends every edge (canonical orientation, sorted by
// (U,V)) to dst, reusing its capacity, and returns the extended slice;
// like AppendNodes it lets snapshot/checkpoint callers reuse one buffer.
func (g *mapGraph) AppendEdges(dst []Edge) []Edge {
	start := len(dst)
	if need := start + g.edgeCount; cap(dst) < need {
		grown := make([]Edge, start, need)
		copy(grown, dst)
		dst = grown
	}
	for a, nbrs := range g.adj {
		for b := range nbrs {
			if a < b {
				dst = append(dst, Edge{U: a, V: b})
			}
		}
	}
	sortEdges(dst[start:])
	return dst
}

// ForEachEdge calls fn for every edge exactly once (canonical orientation),
// in unspecified order. fn must not mutate the graph.
func (g *mapGraph) ForEachEdge(fn func(e Edge, w float64)) {
	for a, nbrs := range g.adj {
		for b, w := range nbrs {
			if a < b {
				fn(Edge{U: a, V: b}, w)
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *mapGraph) Clone() *mapGraph {
	c := &mapGraph{
		adj:       make(map[NodeID]map[NodeID]float64, len(g.adj)),
		edgeCount: g.edgeCount,
	}
	for n, nbrs := range g.adj {
		m := make(map[NodeID]float64, len(nbrs))
		for b, w := range nbrs {
			m[b] = w
		}
		c.adj[n] = m
	}
	return c
}
