package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dygraph"
	"repro/internal/quasi"
)

// buildClique inserts a complete clique over nodes [0,n).
func buildClique(en *Engine, n int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			en.AddEdge(dygraph.NodeID(i), dygraph.NodeID(j), 1)
		}
	}
}

func TestCliqueIsSingleCluster(t *testing.T) {
	for _, n := range []int{3, 4, 5, 8} {
		en := NewEngine(Hooks{})
		buildClique(en, n)
		if en.ClusterCount() != 1 {
			t.Fatalf("K%d: %d clusters", n, en.ClusterCount())
		}
		c := en.Clusters()[0]
		if c.NodeCount() != n || c.EdgeCount() != n*(n-1)/2 {
			t.Fatalf("K%d cluster wrong: %d nodes %d edges", n, c.NodeCount(), c.EdgeCount())
		}
		if c.Density() != 1 {
			t.Fatalf("K%d density %v", n, c.Density())
		}
	}
}

// TestCliqueDeletionCascade tears a K6 down edge by edge; at every step
// the engine must agree with the canonical recompute, and the final graph
// has no clusters.
func TestCliqueDeletionCascade(t *testing.T) {
	en := NewEngine(Hooks{})
	buildClique(en, 6)
	edges := en.Graph().Edges()
	for _, e := range edges {
		en.RemoveEdge(e.U, e.V)
		if !SameClustering(en.Snapshot(), Canonical(en.Graph())) {
			t.Fatalf("divergence after removing %v", e)
		}
	}
	if en.ClusterCount() != 0 {
		t.Fatalf("%d clusters left on empty graph", en.ClusterCount())
	}
}

// TestSplitKeepsLargestIdentity: when a deletion splits a cluster, the
// larger component must retain the original cluster ID (event history
// continuity in the detector).
func TestSplitKeepsLargestIdentity(t *testing.T) {
	en := NewEngine(Hooks{})
	// Big block: K4 over {0,1,2,3}; small block: triangle {10,11,12};
	// joined through node 5 with short cycles on both sides.
	buildClique(en, 4)
	addEdges(en,
		[2]dygraph.NodeID{10, 11}, [2]dygraph.NodeID{11, 12}, [2]dygraph.NodeID{10, 12})
	// Bridge node 5: triangle with the K4 side (0,1) and with the
	// triangle side (10,11) — all one cluster via shared node-5 edges?
	// Shared edges are what merge clusters; build them explicitly.
	addEdges(en,
		[2]dygraph.NodeID{5, 0}, [2]dygraph.NodeID{5, 1}, // triangle 5-0-1
		[2]dygraph.NodeID{5, 10}, [2]dygraph.NodeID{5, 11}) // triangle 5-10-11
	// Now: cluster A = K4 + node 5 (via triangle 5-0-1 sharing edge 0-1),
	// cluster B = triangle + node 5. Glue A and B into one by an edge
	// pair that puts 5's edges on a common cycle: 0-10 edge creates
	// 4-cycle 5-0-10(-5)? 5-0, 0-10, 10-5: that's a triangle through 5.
	en.AddEdge(0, 10, 1)
	if en.ClusterCount() != 1 {
		t.Skipf("construction yielded %d clusters; geometry changed", en.ClusterCount())
	}
	id := en.Clusters()[0].ID()
	// Deleting 0-10 and node 5 disconnects the blocks again.
	en.RemoveEdge(0, 10)
	en.RemoveNode(5)
	if en.ClusterCount() != 2 {
		t.Fatalf("want 2 clusters after split, got %d", en.ClusterCount())
	}
	var big, small *Cluster
	for _, c := range en.Clusters() {
		if c.HasNode(0) {
			big = c
		}
		if c.HasNode(10) {
			small = c
		}
	}
	if big == nil || small == nil {
		t.Fatalf("blocks lost")
	}
	if big.ID() != id {
		t.Fatalf("largest component lost original identity: %d vs %d", big.ID(), id)
	}
	if small.ID() == id {
		t.Fatalf("both parts share an ID")
	}
}

// TestNodeDeletionHeavy removes random nodes from random graphs and checks
// canonical equality after every removal.
func TestNodeDeletionHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		en := NewEngine(Hooks{})
		const n = 16
		for i := 0; i < 80; i++ {
			a := dygraph.NodeID(rng.Intn(n))
			b := dygraph.NodeID(rng.Intn(n))
			en.AddEdge(a, b, 1)
		}
		order := rng.Perm(n)
		for _, v := range order {
			en.RemoveNode(dygraph.NodeID(v))
			if !SameClustering(en.Snapshot(), Canonical(en.Graph())) {
				t.Fatalf("trial %d: divergence after removing node %d", trial, v)
			}
		}
		if en.ClusterCount() != 0 || en.Graph().NodeCount() != 0 {
			t.Fatalf("trial %d: leftovers after full teardown", trial)
		}
	}
}

// TestQuickCanonicalEquality is a testing/quick property: for arbitrary
// edge lists, building incrementally equals the canonical recompute, and
// every resulting cluster is a biconnected aMQC.
func TestQuickCanonicalEquality(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		en := NewEngine(Hooks{})
		for _, p := range pairs {
			a := dygraph.NodeID(p[0] % 24)
			b := dygraph.NodeID(p[1] % 24)
			if a != b {
				en.AddEdge(a, b, 1)
			}
		}
		if !SameClustering(en.Snapshot(), Canonical(en.Graph())) {
			return false
		}
		for _, c := range en.Clusters() {
			sub := quasi.FromEdges(c.Edges())
			if !sub.SatisfiesSCP() || !sub.IsBiconnected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairExpelsDanglingEdges: an edge that loses its only short cycle
// leaves the cluster but stays in the graph.
func TestRepairExpelsDanglingEdges(t *testing.T) {
	en := NewEngine(Hooks{})
	// Square 1-2-3-4 plus pendant path 4-5 (clusterless).
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{4, 1},
		[2]dygraph.NodeID{4, 5})
	if en.ClusterCount() != 1 {
		t.Fatalf("setup wrong")
	}
	en.RemoveEdge(1, 2)
	if en.ClusterCount() != 0 {
		t.Fatalf("square minus one edge should dissolve")
	}
	// All surviving edges are still in the graph, just clusterless.
	if en.Graph().EdgeCount() != 4 {
		t.Fatalf("graph edges = %d, want 4", en.Graph().EdgeCount())
	}
	for _, e := range en.Graph().Edges() {
		if en.ClusterOfEdge(e.U, e.V) != nil {
			t.Fatalf("edge %v still assigned to a cluster", e)
		}
	}
}

// TestReclusterAfterDissolve: clusterless edges can seed a new cluster
// when a later insertion closes a short cycle through them.
func TestReclusterAfterDissolve(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{4, 1})
	en.RemoveEdge(1, 2) // dissolves
	if en.ClusterCount() != 0 {
		t.Fatalf("setup: cluster should be gone")
	}
	c := en.AddEdge(1, 2, 1) // restores the square
	if c == nil || c.NodeCount() != 4 {
		t.Fatalf("re-closing the square did not recluster: %+v", c)
	}
}

// TestAddNodeWithEdgesWeights verifies weights are applied per edge.
func TestAddNodeWithEdgesWeights(t *testing.T) {
	en := NewEngine(Hooks{})
	en.AddEdge(1, 2, 0.9)
	en.AddNodeWithEdges(7, []dygraph.NodeID{1, 2}, []float64{0.3, 0.4})
	if w, _ := en.Graph().Weight(7, 1); w != 0.3 {
		t.Fatalf("weight(7,1) = %v", w)
	}
	if w, _ := en.Graph().Weight(7, 2); w != 0.4 {
		t.Fatalf("weight(7,2) = %v", w)
	}
	if en.ClusterCount() != 1 {
		t.Fatalf("triangle expected")
	}
}

// TestEdgeSetNodesOf covers the EdgeSet helper.
func TestEdgeSetNodesOf(t *testing.T) {
	s := EdgeSet{
		dygraph.NewEdge(3, 1): {},
		dygraph.NewEdge(1, 2): {},
	}
	nodes := s.NodesOf()
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Fatalf("NodesOf = %v", nodes)
	}
}

// TestSameClusteringNegative covers the comparison helper's failure paths.
func TestSameClusteringNegative(t *testing.T) {
	a := []EdgeSet{{dygraph.NewEdge(1, 2): {}}}
	b := []EdgeSet{{dygraph.NewEdge(1, 3): {}}}
	if SameClustering(a, b) {
		t.Fatalf("different edge sets reported equal")
	}
	if SameClustering(a, nil) {
		t.Fatalf("different lengths reported equal")
	}
	c := []EdgeSet{{dygraph.NewEdge(1, 2): {}, dygraph.NewEdge(2, 3): {}}}
	if SameClustering(a, c) {
		t.Fatalf("different sizes reported equal")
	}
}

// TestRepairAllocs pins repair's working memory to the engine-owned
// scratch: a call that finds the cluster intact allocates nothing, and a
// call that splits allocates only the new part (the Cluster and its two
// maps) — no adjacency, index or grouping map per call.
func TestRepairAllocs(t *testing.T) {
	en := NewEngine(Hooks{})
	buildClique(en, 8)
	c := en.Clusters()[0]
	if n := testing.AllocsPerRun(50, func() { en.repair(c) }); n != 0 {
		t.Errorf("repair of an intact K8: %.1f allocs per call, want 0", n)
	}

	// Two triangles meeting at node 2 are two clusters; the chord 1–3
	// closes the triangle 1–2–3 across them and merges them. Removing the
	// chord splits the cluster again, adding it merges it back.
	en = NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{0, 1}, [2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{0, 2},
		[2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{2, 4})
	cycle := func() (splitAllocs uint64) {
		en.BeginQuantum()
		en.AddEdge(1, 3, 1)
		if en.ClusterCount() != 1 {
			t.Fatalf("chord did not merge the triangles: %d clusters", en.ClusterCount())
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		en.RemoveEdge(1, 3)
		runtime.ReadMemStats(&after)
		if en.ClusterCount() != 2 {
			t.Fatalf("removing the chord did not split: %d clusters", en.ClusterCount())
		}
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cycle() // grow the scratch
	var total uint64
	const runs = 20
	for i := 0; i < runs; i++ {
		total += cycle()
	}
	// One new part per split: the Cluster, and a map header plus one
	// group of slots for each of its nodes and edges maps.
	perSplit := float64(total) / runs
	t.Logf("%.1f allocs per splitting repair", perSplit)
	if perSplit > 5 {
		t.Errorf("splitting repair: %.1f allocs per call, want ≤ 5", perSplit)
	}
}

// TestAddEdgeAllocs pins AddEdge's working memory to the engine-owned
// scratch: an edge that extends an existing cluster — a chord of an
// 8-clique, closing triangles and 4-cycles through members only —
// allocates nothing once the scratch has grown. The short-cycle edges,
// the owning clusters and the endpoints a removal drops are no longer
// built per call; the member's membership sets already exist.
func TestAddEdgeAllocs(t *testing.T) {
	en := NewEngine(Hooks{})
	buildClique(en, 8)
	extend := func() (allocs uint64) {
		en.BeginQuantum()
		en.RemoveEdge(0, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := en.AddEdge(0, 1, 1)
		runtime.ReadMemStats(&after)
		if en.ClusterCount() != 1 || c == nil || c.EdgeCount() != 28 {
			t.Fatalf("the chord did not extend the clique's cluster: %d clusters", en.ClusterCount())
		}
		return after.Mallocs - before.Mallocs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	extend() // grow the scratch
	var total uint64
	const runs = 50
	for i := 0; i < runs; i++ {
		total += extend()
	}
	if per := float64(total) / runs; per != 0 {
		t.Errorf("AddEdge extending a cluster: %.2f allocs per call, want 0", per)
	}
}
