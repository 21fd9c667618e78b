package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dygraph"
	"repro/internal/quasi"
)

// addEdges is a test helper inserting unit-weight edges.
func addEdges(en *Engine, pairs ...[2]dygraph.NodeID) {
	for _, p := range pairs {
		en.AddEdge(p[0], p[1], 1)
	}
}

func TestTriangleFormsCluster(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en, [2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3})
	if en.ClusterCount() != 0 {
		t.Fatalf("cluster before any cycle exists")
	}
	c := en.AddEdge(1, 3, 1)
	if c == nil {
		t.Fatalf("closing triangle formed no cluster")
	}
	if c.NodeCount() != 3 || c.EdgeCount() != 3 {
		t.Fatalf("cluster = %d nodes %d edges, want 3/3", c.NodeCount(), c.EdgeCount())
	}
}

func TestFourCycleFormsCluster(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2},
		[2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{3, 4})
	if en.ClusterCount() != 0 {
		t.Fatalf("premature cluster")
	}
	c := en.AddEdge(4, 1, 1)
	if c == nil || c.NodeCount() != 4 || c.EdgeCount() != 4 {
		t.Fatalf("4-cycle cluster wrong: %+v", c)
	}
}

func TestFiveCycleIsNotCluster(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2},
		[2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{3, 4},
		[2]dygraph.NodeID{4, 5},
		[2]dygraph.NodeID{5, 1})
	if en.ClusterCount() != 0 {
		t.Fatalf("a 5-cycle has no short cycle and must not cluster")
	}
}

// TestPaperFigure1 reproduces the earthquake example: a 4-node cluster
// exists and the keyword "5.9" (node 6) joins via a triangle with
// earthquake(1) and turkey(4).
func TestPaperFigure1(t *testing.T) {
	// 1=earthquake 2=struck 3=eastern 4=turkey
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2},
		[2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{1, 4},
		[2]dygraph.NodeID{2, 4},
		[2]dygraph.NodeID{3, 4})
	if en.ClusterCount() != 1 {
		t.Fatalf("want 1 cluster, got %d", en.ClusterCount())
	}
	base := en.Clusters()[0]
	if base.NodeCount() != 4 {
		t.Fatalf("base cluster has %d nodes", base.NodeCount())
	}
	// "5.9" arrives correlated with earthquake and turkey.
	en.AddEdge(6, 1, 1)
	c := en.AddEdge(6, 4, 1)
	if c == nil || c.NodeCount() != 5 || !c.HasNode(6) {
		t.Fatalf("new keyword did not join the cluster: %+v", c)
	}
	if en.ClusterCount() != 1 {
		t.Fatalf("joining should not create a second cluster")
	}
}

// TestPaperFigure2 covers both R1 and R2 initialisation shapes from the
// paper's Figure 2: incoming node n correlated with n1 and n2.
func TestPaperFigure2(t *testing.T) {
	t.Run("R1 common neighbor", func(t *testing.T) {
		en := NewEngine(Hooks{})
		// n1 and n2 share neighbor nc but no direct edge.
		addEdges(en, [2]dygraph.NodeID{1, 3}, [2]dygraph.NodeID{2, 3}) // nc=3
		en.AddNodeWithEdges(9, []dygraph.NodeID{1, 2}, nil)
		if en.ClusterCount() != 1 {
			t.Fatalf("want 1 cluster, got %d", en.ClusterCount())
		}
		c := en.Clusters()[0]
		if c.NodeCount() != 4 {
			t.Fatalf("R1 cluster should have 4 nodes, got %d", c.NodeCount())
		}
	})
	t.Run("R2 direct edge", func(t *testing.T) {
		en := NewEngine(Hooks{})
		addEdges(en, [2]dygraph.NodeID{1, 2})
		en.AddNodeWithEdges(9, []dygraph.NodeID{1, 2}, nil)
		if en.ClusterCount() != 1 {
			t.Fatalf("want 1 cluster, got %d", en.ClusterCount())
		}
		c := en.Clusters()[0]
		if c.NodeCount() != 3 {
			t.Fatalf("R2 cluster should be a triangle, got %d nodes", c.NodeCount())
		}
	})
	t.Run("single correlation does nothing", func(t *testing.T) {
		en := NewEngine(Hooks{})
		addEdges(en, [2]dygraph.NodeID{1, 2})
		en.AddNodeWithEdges(9, []dygraph.NodeID{1}, nil)
		if en.ClusterCount() != 0 {
			t.Fatalf("node with one edge must not cluster")
		}
	})
}

// TestPaperFigure5a replays the edge-addition example: edge (1,2) arrives
// into a graph where phase-1 clusters (1,2,4), (1,2,4,5), (1,2,3,4) merge
// into a single cluster C3 = {1..5}.
func TestPaperFigure5a(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 4},
		[2]dygraph.NodeID{2, 4},
		[2]dygraph.NodeID{1, 5},
		[2]dygraph.NodeID{2, 5},
		[2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{3, 4})
	before := en.ClusterCount()
	c := en.AddEdge(1, 2, 1)
	if c == nil {
		t.Fatalf("no cluster after edge addition")
	}
	if en.ClusterCount() != 1 {
		t.Fatalf("want single merged cluster, got %d (before: %d)", en.ClusterCount(), before)
	}
	if c.NodeCount() != 5 {
		t.Fatalf("merged cluster has %d nodes, want 5", c.NodeCount())
	}
}

// TestPaperFigure5cd: removing node n from the 5-node cluster leaves no
// short cycles (cluster discarded); removing only edge (n,1) leaves the
// triangle (3,4,n).
func paperFig5Graph() *Engine {
	en := NewEngine(Hooks{})
	// n=9; edges: n-1, n-3, n-4, 1-2, 2-5, 5-... per Figure 5(c)/(d):
	// pentagon 1-2-5-4?-... The figure: nodes 1..5 and n; edges n-1, n-3,
	// n-4, 3-4, 1-2, 2-5, 4-5 (so n-3-4-n triangle and cycle n-1-2-5-4-n).
	addEdges(en,
		[2]dygraph.NodeID{9, 1},
		[2]dygraph.NodeID{9, 3},
		[2]dygraph.NodeID{9, 4},
		[2]dygraph.NodeID{3, 4},
		[2]dygraph.NodeID{1, 2},
		[2]dygraph.NodeID{2, 5},
		[2]dygraph.NodeID{4, 5})
	return en
}

func TestPaperFigure5d_EdgeDeparture(t *testing.T) {
	en := paperFig5Graph()
	if !en.RemoveEdge(9, 1) {
		t.Fatalf("edge removal failed")
	}
	// Triangle 9-3-4 must survive; 1,2,5 fall out of any cluster.
	var tri *Cluster
	for _, c := range en.Clusters() {
		if c.HasNode(9) {
			tri = c
		}
	}
	if tri == nil || tri.NodeCount() != 3 || !tri.HasNode(3) || !tri.HasNode(4) {
		t.Fatalf("expected surviving triangle (9,3,4); clusters=%d", en.ClusterCount())
	}
	for _, n := range []dygraph.NodeID{1, 2, 5} {
		if en.InAnyCluster(n) {
			t.Fatalf("node %d should be cluster-less", n)
		}
	}
}

func TestPaperFigure5c_NodeDeparture(t *testing.T) {
	en := paperFig5Graph()
	if !en.RemoveNode(9) {
		t.Fatalf("node removal failed")
	}
	if en.ClusterCount() != 0 {
		t.Fatalf("no short cycle remains; clusters=%d", en.ClusterCount())
	}
}

// TestPaperFigure6 reproduces the articulation-point split: deleting node
// 9 splits the single cluster into {0,1,2,3,10,11} and {3,4,5,6,7,8} with
// node 3 shared (the articulation point).
func TestPaperFigure6(t *testing.T) {
	en := NewEngine(Hooks{})
	// Left block: 0-1-2-3 + 10,11 forming short cycles; right block:
	// 3-4-5-6-7-8; node 9 bridges 2/10-side to 8-side per the figure.
	// We construct a concrete graph with the same shape:
	addEdges(en,
		// left ring with chords
		[2]dygraph.NodeID{0, 1},
		[2]dygraph.NodeID{1, 11},
		[2]dygraph.NodeID{11, 10},
		[2]dygraph.NodeID{10, 2},
		[2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{0, 10}, // chord: 0-1-11-10 4-cycle
		[2]dygraph.NodeID{10, 3}, // chord: 10-2-3 triangle
		[2]dygraph.NodeID{0, 2},  // chord
		// right ring with chords
		[2]dygraph.NodeID{3, 4},
		[2]dygraph.NodeID{4, 5},
		[2]dygraph.NodeID{5, 8},
		[2]dygraph.NodeID{8, 7},
		[2]dygraph.NodeID{7, 6},
		[2]dygraph.NodeID{6, 3},
		[2]dygraph.NodeID{4, 8}, // chord
		[2]dygraph.NodeID{3, 7}, // chord
		[2]dygraph.NodeID{6, 7},
		// node 9 ties the two halves together with short cycles
		[2]dygraph.NodeID{9, 2},
		[2]dygraph.NodeID{9, 4},
		[2]dygraph.NodeID{9, 3},
	)
	if en.ClusterCount() != 1 {
		t.Fatalf("setup should be one cluster, got %d", en.ClusterCount())
	}
	en.RemoveNode(9)
	if en.ClusterCount() != 2 {
		t.Fatalf("deleting 9 should split cluster at articulation node 3, got %d clusters", en.ClusterCount())
	}
	for _, c := range en.Clusters() {
		if !c.HasNode(3) {
			t.Fatalf("both split parts must contain articulation node 3")
		}
	}
}

// TestLemma6MergeOnSharedEdge: two clusters acquiring a shared edge merge.
func TestLemma6MergeOnSharedEdge(t *testing.T) {
	en := NewEngine(Hooks{})
	// Triangle A: 1,2,3. Triangle B: 4,5,6. Connect so a short cycle forms
	// across: add edges 3-4 then 2-4 creating triangle (2,3,4) sharing
	// edges with both? Edge 2-3 in A, edge ... Build explicitly:
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{4, 5}, [2]dygraph.NodeID{5, 6}, [2]dygraph.NodeID{4, 6})
	if en.ClusterCount() != 2 {
		t.Fatalf("setup: want 2 clusters, got %d", en.ClusterCount())
	}
	en.AddEdge(3, 4, 1)
	if en.ClusterCount() != 2 {
		t.Fatalf("bridge edge alone must not merge")
	}
	// Closing triangle (3,4,2) uses edge 2-3 (cluster A) and 3-4; new
	// cluster shares an edge with A, merging. Then 4-cycle via B edges?
	c := en.AddEdge(2, 4, 1)
	if c == nil {
		t.Fatalf("no cluster after closing cross triangle")
	}
	if !c.HasNode(1) || !c.HasNode(2) || !c.HasNode(3) || !c.HasNode(4) {
		t.Fatalf("merged cluster missing nodes: %v", c.Nodes())
	}
	// B stays separate: its edges share no short cycle with the new edges.
	foundB := false
	for _, cl := range en.Clusters() {
		if cl.HasEdge(dygraph.NewEdge(5, 6)) {
			foundB = true
			if cl.HasNode(1) {
				t.Fatalf("cluster B wrongly merged")
			}
		}
	}
	if !foundB {
		t.Fatalf("cluster B disappeared")
	}
}

// TestNodeInMultipleClusters: two triangles sharing only a node remain
// distinct clusters and the shared node reports both.
func TestNodeInMultipleClusters(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{4, 5}, [2]dygraph.NodeID{3, 5})
	if en.ClusterCount() != 2 {
		t.Fatalf("want 2 clusters, got %d", en.ClusterCount())
	}
	cs := en.ClustersOfNode(3)
	if len(cs) != 2 {
		t.Fatalf("node 3 should be in 2 clusters, got %d", len(cs))
	}
	if !en.InAnyCluster(3) || en.InAnyCluster(99) {
		t.Fatalf("InAnyCluster wrong")
	}
}

func TestWeightUpdateKeepsClustering(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en, [2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3})
	before := en.Snapshot()
	en.AddEdge(1, 2, 0.9) // duplicate: weight refresh
	en.SetWeight(2, 3, 0.8)
	if !SameClustering(before, en.Snapshot()) {
		t.Fatalf("weight updates changed clustering")
	}
	if w, _ := en.Graph().Weight(1, 2); w != 0.9 {
		t.Fatalf("weight not refreshed")
	}
}

func TestRemoveAbsent(t *testing.T) {
	en := NewEngine(Hooks{})
	if en.RemoveEdge(1, 2) {
		t.Fatalf("removing absent edge reported true")
	}
	if en.RemoveNode(7) {
		t.Fatalf("removing absent node reported true")
	}
}

func TestClusterAccessors(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en, [2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3})
	c := en.ClusterOfEdge(1, 2)
	if c == nil {
		t.Fatalf("ClusterOfEdge nil")
	}
	if c.ID() == 0 {
		t.Fatalf("cluster id zero")
	}
	if en.Cluster(c.ID()) != c {
		t.Fatalf("Cluster lookup mismatch")
	}
	if got := c.Density(); got != 1.0 {
		t.Fatalf("triangle density = %v, want 1", got)
	}
	if !c.HasEdge(dygraph.NewEdge(3, 1)) || c.HasEdge(dygraph.NewEdge(1, 9)) {
		t.Fatalf("HasEdge wrong")
	}
	nodes := c.Nodes()
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Fatalf("Nodes = %v", nodes)
	}
	edges := c.Edges()
	if len(edges) != 3 || edges[0] != dygraph.NewEdge(1, 2) {
		t.Fatalf("Edges = %v", edges)
	}
	count := 0
	c.ForEachNode(func(dygraph.NodeID) { count++ })
	c.ForEachEdge(func(dygraph.Edge) { count++ })
	if count != 6 {
		t.Fatalf("ForEach visited %d", count)
	}
	if en.ClusterOfEdge(1, 99) != nil {
		t.Fatalf("ClusterOfEdge for absent edge should be nil")
	}
}

func TestHooksLifecycle(t *testing.T) {
	var formed, updated, merged, split, dissolved int
	en := NewEngine(Hooks{
		OnFormed:    func(*Cluster) { formed++ },
		OnUpdated:   func(*Cluster) { updated++ },
		OnMerged:    func(*Cluster, ClusterID) { merged++ },
		OnSplit:     func(ClusterID, []*Cluster) { split++ },
		OnDissolved: func(ClusterID) { dissolved++ },
	})
	// Two triangles -> 2 formed.
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{4, 5}, [2]dygraph.NodeID{5, 6}, [2]dygraph.NodeID{4, 6})
	if formed != 2 {
		t.Fatalf("formed = %d, want 2", formed)
	}
	// Bridge, then grow A across the bridge: triangle 2-3-4 only touches
	// cluster A (its edge 2-3), so this is an update, not a merge.
	addEdges(en, [2]dygraph.NodeID{3, 4})
	addEdges(en, [2]dygraph.NodeID{2, 4})
	if merged != 0 {
		t.Fatalf("premature merge: triangle touches only one cluster")
	}
	if updated == 0 {
		t.Fatalf("growing cluster A did not fire OnUpdated")
	}
	// Triangle 3-4-5 uses edge 3-4 (now in A) and 4-5 (in B): true merge.
	addEdges(en, [2]dygraph.NodeID{3, 5})
	if merged == 0 {
		t.Fatalf("merge not observed")
	}
	if en.ClusterCount() != 1 {
		t.Fatalf("expected one merged cluster, got %d", en.ClusterCount())
	}
	// Tear down to trigger dissolution.
	for _, n := range []dygraph.NodeID{1, 2, 3, 4, 5, 6} {
		en.RemoveNode(n)
	}
	if dissolved == 0 {
		t.Fatalf("no dissolution observed")
	}
	if updated == 0 {
		t.Fatalf("no updates observed")
	}
}

func TestBirthAndOps(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en, [2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3})
	c := en.AddEdge(1, 3, 1)
	if c.Birth() != 3 {
		t.Fatalf("birth = %d, want 3", c.Birth())
	}
	if en.Ops() != 3 {
		t.Fatalf("ops = %d", en.Ops())
	}
}

// --- Invariant checking over randomized operation sequences ---

// checkInvariants verifies the engine's structural invariants:
// 1. every cluster satisfies SCP within its own edges;
// 2. every cluster is biconnected (Theorem 2);
// 3. clusters are edge-disjoint and edgeCluster/nodeClusters maps agree;
// 4. every short cycle in the graph lies inside a single cluster;
// 5. the clustering equals the canonical recompute (Theorem 3 / Lemma 2).
func checkInvariants(t *testing.T, en *Engine) {
	t.Helper()
	seenEdges := make(map[dygraph.Edge]ClusterID)
	for _, c := range en.Clusters() {
		sub := quasi.FromEdges(c.Edges())
		if !sub.SatisfiesSCP() {
			t.Fatalf("cluster %d violates SCP: %v", c.ID(), c.Edges())
		}
		if !sub.IsBiconnected() {
			t.Fatalf("cluster %d not biconnected: %v", c.ID(), c.Edges())
		}
		for _, e := range c.Edges() {
			if prev, dup := seenEdges[e]; dup {
				t.Fatalf("edge %v in clusters %d and %d", e, prev, c.ID())
			}
			seenEdges[e] = c.ID()
			if got := en.ClusterOfEdge(e.U, e.V); got == nil || got.ID() != c.ID() {
				t.Fatalf("edgeCluster map inconsistent for %v", e)
			}
			if !en.Graph().HasEdge(e.U, e.V) {
				t.Fatalf("cluster edge %v missing from graph", e)
			}
		}
		for _, n := range c.Nodes() {
			found := false
			for _, cn := range en.ClustersOfNode(n) {
				if cn.ID() == c.ID() {
					found = true
				}
			}
			if !found {
				t.Fatalf("nodeClusters missing node %d -> cluster %d", n, c.ID())
			}
		}
	}
	if !SameClustering(en.Snapshot(), Canonical(en.Graph())) {
		t.Fatalf("incremental clustering diverged from canonical recompute")
	}
}

// checkEngine cross-checks the engine's indexes against each other after
// any operation: the graph's rows are sorted and symmetric (equal weights
// and owners on both sides) and its counters right; every owner is the
// cluster whose edge list holds the edge, and every cluster edge is owned
// by its cluster; each cluster's node list and per-node edge counts are
// what its edges imply; and every node's cluster list is exactly the
// clusters listing it.
func checkEngine(t testing.TB, en *Engine) {
	t.Helper()
	g := en.Graph()
	nodes, edges := 0, 0
	clustersOf := map[dygraph.NodeID][]ClusterID{}
	g.ForEachNode(func(n dygraph.NodeID) {
		nodes++
		nbrs, owners := g.Row(n)
		if len(nbrs) != len(owners) || len(nbrs) != g.Degree(n) {
			t.Fatalf("node %d: %d neighbors, %d owners, degree %d", n, len(nbrs), len(owners), g.Degree(n))
		}
		for i, m := range nbrs {
			if i > 0 && nbrs[i-1] >= m {
				t.Fatalf("node %d: row not strictly ascending: %v", n, nbrs)
			}
			w, _ := g.Weight(n, m)
			if back, ok := g.Weight(m, n); !ok || back != w {
				t.Fatalf("edge %d–%d: weight %v, reverse side %v (present %v)", n, m, w, back, ok)
			}
			if back := g.Owner(m, n); back != owners[i] {
				t.Fatalf("edge %d–%d: owner %d, reverse side %d", n, m, owners[i], back)
			}
			if n < m {
				edges++
			}
			if id := ClusterID(owners[i]); id != 0 {
				if c := en.clusters[id]; c == nil || !c.HasEdge(dygraph.NewEdge(n, m)) {
					t.Fatalf("edge %d–%d owned by cluster %d, which does not hold it", n, m, id)
				}
			}
		}
		var visited []ClusterID
		en.ForEachClusterOf(n, func(id ClusterID) { visited = append(visited, id) })
		slices.Sort(visited)
		var listed []ClusterID
		for _, c := range en.ClustersOfNode(n) {
			listed = append(listed, c.ID())
		}
		if !slices.Equal(visited, listed) || en.InAnyCluster(n) != (len(listed) > 0) {
			t.Fatalf("node %d: ForEachClusterOf %v, ClustersOfNode %v, InAnyCluster %v", n, visited, listed, en.InAnyCluster(n))
		}
		if len(listed) > 0 {
			clustersOf[n] = listed
		}
	})
	if nodes != g.NodeCount() || edges != g.EdgeCount() {
		t.Fatalf("graph counts %d nodes %d edges, rows hold %d / %d", g.NodeCount(), g.EdgeCount(), nodes, edges)
	}
	members := map[dygraph.NodeID][]ClusterID{}
	for _, c := range en.Clusters() {
		if len(c.nodes) != len(c.deg) {
			t.Fatalf("cluster %d: %d nodes, %d edge counts", c.id, len(c.nodes), len(c.deg))
		}
		deg := map[dygraph.NodeID]int32{}
		for i, e := range c.edges {
			if i > 0 && cmpEdge(c.edges[i-1], e) >= 0 {
				t.Fatalf("cluster %d: edges not strictly ascending: %v", c.id, c.edges)
			}
			if o := ClusterID(g.Owner(e.U, e.V)); o != c.id {
				t.Fatalf("cluster %d holds %v, owned by %d", c.id, e, o)
			}
			deg[e.U]++
			deg[e.V]++
		}
		for i, n := range c.nodes {
			if i > 0 && c.nodes[i-1] >= n {
				t.Fatalf("cluster %d: nodes not strictly ascending: %v", c.id, c.nodes)
			}
			if c.deg[i] != deg[n] {
				t.Fatalf("cluster %d: node %d counts %d edges, holds %d", c.id, n, c.deg[i], deg[n])
			}
			members[n] = append(members[n], c.id)
		}
		if len(deg) != len(c.nodes) {
			t.Fatalf("cluster %d: edges touch %d nodes, node list has %d", c.id, len(deg), len(c.nodes))
		}
	}
	if !maps.EqualFunc(members, clustersOf, slices.Equal) {
		t.Fatalf("clusters listing each node %v, each node's own list %v", members, clustersOf)
	}
}

// TestRandomOpsMatchCanonical is the central property test: after every
// operation in a random add/remove sequence, the incrementally maintained
// clustering must equal the canonical global recomputation and satisfy all
// structural invariants.
func TestRandomOpsMatchCanonical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 1234} {
		rng := rand.New(rand.NewSource(seed))
		en := NewEngine(Hooks{})
		const nodes = 14
		for i := 0; i < 300; i++ {
			a := dygraph.NodeID(rng.Intn(nodes))
			b := dygraph.NodeID(rng.Intn(nodes))
			switch r := rng.Float64(); {
			case r < 0.55:
				en.AddEdge(a, b, rng.Float64())
			case r < 0.85:
				en.RemoveEdge(a, b)
			default:
				en.RemoveNode(a)
			}
			checkEngine(t, en)
			if i%10 == 0 {
				checkInvariants(t, en)
			}
		}
		checkInvariants(t, en)
	}
}

// TestDenseRandomOps uses a smaller node universe so the graph gets dense
// and merges/splits churn constantly.
func TestDenseRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	en := NewEngine(Hooks{})
	const nodes = 8
	for i := 0; i < 400; i++ {
		a := dygraph.NodeID(rng.Intn(nodes))
		b := dygraph.NodeID(rng.Intn(nodes))
		if rng.Float64() < 0.6 {
			en.AddEdge(a, b, 1)
		} else {
			en.RemoveEdge(a, b)
		}
		checkEngine(t, en)
		if i%20 == 0 {
			checkInvariants(t, en)
		}
	}
	checkInvariants(t, en)
}

// TestLemma5OrderIndependence: inserting the same edge set in different
// orders yields the same clustering.
func TestLemma5OrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var edges [][2]dygraph.NodeID
	for i := 0; i < 40; i++ {
		a := dygraph.NodeID(rng.Intn(12))
		b := dygraph.NodeID(rng.Intn(12))
		if a != b {
			edges = append(edges, [2]dygraph.NodeID{a, b})
		}
	}
	build := func(order []int) []EdgeSet {
		en := NewEngine(Hooks{})
		for _, idx := range order {
			e := edges[idx]
			en.AddEdge(e[0], e[1], 1)
		}
		return en.Snapshot()
	}
	base := make([]int, len(edges))
	for i := range base {
		base[i] = i
	}
	ref := build(base)
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(edges))
		if !SameClustering(ref, build(perm)) {
			t.Fatalf("insertion order changed clustering (trial %d)", trial)
		}
	}
}

// TestStatsAdvance sanity-checks the work counters.
func TestStatsAdvance(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3}, [2]dygraph.NodeID{1, 3},
		[2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{2, 4})
	en.RemoveNode(4)
	checks, merges, splits := en.Stats()
	if checks == 0 {
		t.Fatalf("no cycle checks recorded")
	}
	_ = merges
	_ = splits
}

// TestLongMergeChain grows a path of triangles one at a time: every new
// triangle shares an edge with the previous one, so the cluster absorbs
// each extension and survives as a single identity throughout.
func TestLongMergeChain(t *testing.T) {
	en := NewEngine(Hooks{})
	en.AddEdge(0, 1, 1)
	c := en.AddEdge(0, 2, 1)
	en.AddEdge(1, 2, 1)
	first := en.Clusters()[0].ID()
	for i := dygraph.NodeID(3); i < 40; i++ {
		en.AddEdge(i, i-1, 1)
		c = en.AddEdge(i, i-2, 1)
		if c == nil {
			t.Fatalf("extension %d did not cluster", i)
		}
		if en.ClusterCount() != 1 {
			t.Fatalf("extension %d split the chain: %d clusters", i, en.ClusterCount())
		}
		if c.ID() != first {
			t.Fatalf("chain lost its identity at %d: %d vs %d", i, c.ID(), first)
		}
	}
	if c.NodeCount() != 40 {
		t.Fatalf("chain has %d nodes", c.NodeCount())
	}
	// The chain is an aMQC but certainly not an MQC (degree 2–4 of 39).
	sub := quasi.FromEdges(c.Edges())
	if !sub.SatisfiesSCP() || sub.IsMQC() {
		t.Fatalf("chain classification wrong: SCP=%v MQC=%v", sub.SatisfiesSCP(), sub.IsMQC())
	}
}

// TestInterleavedAddRemoveSameEdge hammers one edge on and off inside a
// cluster; the cluster must flap between 4 and 5 edges without corruption.
func TestInterleavedAddRemoveSameEdge(t *testing.T) {
	en := NewEngine(Hooks{})
	addEdges(en,
		[2]dygraph.NodeID{1, 2}, [2]dygraph.NodeID{2, 3},
		[2]dygraph.NodeID{3, 4}, [2]dygraph.NodeID{4, 1})
	for i := 0; i < 50; i++ {
		en.AddEdge(1, 3, 1)
		if c := en.ClusterOfEdge(1, 3); c == nil || c.EdgeCount() != 5 {
			t.Fatalf("iter %d: diagonal not absorbed", i)
		}
		en.RemoveEdge(1, 3)
		if en.ClusterCount() != 1 || en.Clusters()[0].EdgeCount() != 4 {
			t.Fatalf("iter %d: square did not survive diagonal removal", i)
		}
	}
	checkInvariants(t, en)
}
