package rank

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dygraph"
)

// triangleCluster builds a live engine cluster over nodes 1,2,3.
func triangleCluster(t *testing.T, w float64) *core.Cluster {
	t.Helper()
	en := core.NewEngine(core.Hooks{})
	en.AddEdge(1, 2, w)
	en.AddEdge(2, 3, w)
	c := en.AddEdge(1, 3, w)
	if c == nil {
		t.Fatalf("no cluster")
	}
	return c
}

func constW(v float64) Weights {
	return func(dygraph.NodeID) float64 { return v }
}

func TestScoreTriangle(t *testing.T) {
	c := triangleCluster(t, 0.5)
	// rank = (Σw + Σ ec·(wi+wj))/n = (3·10 + 3·0.5·20)/3 = 20.
	got := ScoreParts(c.Nodes(), c.Edges(), constW(10), func(a, b dygraph.NodeID) float64 { return 0.5 })
	if math.Abs(got-20) > 1e-9 {
		t.Fatalf("ScoreParts = %v, want 20", got)
	}
}

func TestScoreGrowsWithSupport(t *testing.T) {
	c := triangleCluster(t, 0.5)
	ec := func(a, b dygraph.NodeID) float64 { return 0.5 }
	if ScoreParts(c.Nodes(), c.Edges(), constW(20), ec) <= ScoreParts(c.Nodes(), c.Edges(), constW(10), ec) {
		t.Fatalf("rank must grow with support")
	}
}

func TestScoreGrowsWithCorrelation(t *testing.T) {
	c := triangleCluster(t, 0.5)
	lo := ScoreParts(c.Nodes(), c.Edges(), constW(10), func(a, b dygraph.NodeID) float64 { return 0.2 })
	hi := ScoreParts(c.Nodes(), c.Edges(), constW(10), func(a, b dygraph.NodeID) float64 { return 0.9 })
	if hi <= lo {
		t.Fatalf("rank must grow with correlation")
	}
}

func TestScoreGrowsWithDensity(t *testing.T) {
	// Square (4 edges) vs square with both diagonals (6 edges), same
	// size and weights: denser cluster must rank higher.
	en := core.NewEngine(core.Hooks{})
	en.AddEdge(1, 2, 1)
	en.AddEdge(2, 3, 1)
	en.AddEdge(3, 4, 1)
	sq := en.AddEdge(4, 1, 1)
	sparse := ScoreParts(sq.Nodes(), sq.Edges(), constW(5), func(a, b dygraph.NodeID) float64 { return 0.5 })
	en.AddEdge(1, 3, 1)
	en.AddEdge(2, 4, 1)
	dense := ScoreParts(sq.Nodes(), sq.Edges(), constW(5), func(a, b dygraph.NodeID) float64 { return 0.5 })
	if dense <= sparse {
		t.Fatalf("dense=%v sparse=%v", dense, sparse)
	}
}

func TestScoreNormalisedBySize(t *testing.T) {
	// A complete clique's rank should not blow up linearly with n when
	// weights are constant; check K3 vs K3-sized values via ScoreParts.
	nodes3 := []dygraph.NodeID{1, 2, 3}
	edges3 := []dygraph.Edge{dygraph.NewEdge(1, 2), dygraph.NewEdge(2, 3), dygraph.NewEdge(1, 3)}
	// Duplicate disjoint triangle union (6 nodes, 6 edges): same density,
	// same per-node support → same rank as a single triangle.
	nodes6 := []dygraph.NodeID{1, 2, 3, 4, 5, 6}
	edges6 := append(edges3, dygraph.NewEdge(4, 5), dygraph.NewEdge(5, 6), dygraph.NewEdge(4, 6))
	ec := func(a, b dygraph.NodeID) float64 { return 0.5 }
	r3 := ScoreParts(nodes3, edges3, constW(10), ec)
	r6 := ScoreParts(nodes6, edges6, constW(10), ec)
	if math.Abs(r3-r6) > 1e-9 {
		t.Fatalf("normalisation broken: r3=%v r6=%v", r3, r6)
	}
}

func TestScorePartsEmpty(t *testing.T) {
	if ScoreParts(nil, nil, constW(1), nil) != 0 {
		t.Fatalf("empty cluster should score 0")
	}
}

func TestMinEdges(t *testing.T) {
	cases := map[int]int{2: 0, 3: 3, 4: 4, 5: 6, 6: 7, 7: 9, 8: 10}
	for n, want := range cases {
		if got := MinEdges(n); got != want {
			t.Errorf("MinEdges(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMinScoreMonotoneInThresholds(t *testing.T) {
	if MinScore(5, 4, 0.2) >= MinScore(5, 8, 0.2) {
		t.Fatalf("MinScore must grow with τ")
	}
	if MinScore(5, 4, 0.1) >= MinScore(5, 4, 0.3) {
		t.Fatalf("MinScore must grow with β")
	}
	if MinScore(2, 4, 0.2) != 0 {
		t.Fatalf("clusters need ≥3 nodes")
	}
}

func TestSpurious(t *testing.T) {
	// Sudden burst then monotone decay, never evolved: spurious.
	if !Spurious([]float64{90, 70, 50, 20}, false) {
		t.Fatalf("decaying non-evolving event should be spurious")
	}
	// Same rank shape but evolved: real (events change keywords).
	if Spurious([]float64{90, 70, 50, 20}, true) {
		t.Fatalf("evolving event must not be spurious")
	}
	// Burst, plateau while the window holds it, then decay: spurious.
	// (Plateau values carry floating-point noise.)
	plateau := []float64{50, 90}
	for i := 0; i < 10; i++ {
		plateau = append(plateau, 90+1e-12*float64(i%3-1))
	}
	plateau = append(plateau, 60, 30)
	if !Spurious(plateau, false) {
		t.Fatalf("burst+plateau+decay should be spurious")
	}
	// Build-up over many quanta with peak mid-life: real.
	if Spurious([]float64{10, 20, 40, 60, 90, 80, 60, 30}, false) {
		t.Fatalf("gradual build-up must not be spurious")
	}
	// Recovery after a peak: real.
	if Spurious([]float64{90, 50, 70, 60}, false) {
		t.Fatalf("rank recovery must not be spurious")
	}
	// Too little history to judge.
	if Spurious([]float64{90}, false) {
		t.Fatalf("single observation cannot be spurious")
	}
}
