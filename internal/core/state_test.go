package core

import (
	"math/rand"
	"testing"

	"repro/internal/dygraph"
)

func TestEngineStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	en := NewEngine(Hooks{})
	for i := 0; i < 200; i++ {
		a := dygraph.NodeID(rng.Intn(20))
		b := dygraph.NodeID(rng.Intn(20))
		if rng.Float64() < 0.7 {
			en.AddEdge(a, b, rng.Float64())
		} else {
			en.RemoveEdge(a, b)
		}
	}
	s := en.State()
	en2, err := EngineFromState(s, Hooks{}, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !SameClustering(en.Snapshot(), en2.Snapshot()) {
		t.Fatalf("clustering lost in round trip")
	}
	if en2.Ops() != en.Ops() {
		t.Fatalf("ops lost: %d vs %d", en2.Ops(), en.Ops())
	}
	// The restored engine must keep evolving identically.
	for i := 0; i < 100; i++ {
		a := dygraph.NodeID(rng.Intn(20))
		b := dygraph.NodeID(rng.Intn(20))
		add := rng.Float64() < 0.6
		w := rng.Float64()
		if add {
			c1 := en.AddEdge(a, b, w)
			c2 := en2.AddEdge(a, b, w)
			if (c1 == nil) != (c2 == nil) {
				t.Fatalf("divergence on AddEdge(%d,%d)", a, b)
			}
			if c1 != nil && c1.ID() != c2.ID() {
				t.Fatalf("cluster IDs diverged: %d vs %d", c1.ID(), c2.ID())
			}
		} else {
			en.RemoveEdge(a, b)
			en2.RemoveEdge(a, b)
		}
		if !SameClustering(en.Snapshot(), en2.Snapshot()) {
			t.Fatalf("post-restore divergence at step %d", i)
		}
	}
}

func TestEngineStateValidation(t *testing.T) {
	en := NewEngine(Hooks{})
	en.AddEdge(1, 2, 1)
	en.AddEdge(2, 3, 1)
	en.AddEdge(1, 3, 1)
	good := en.State()

	bad := good
	bad.Clusters = append([]ClusterState(nil), good.Clusters...)
	bad.Clusters[0] = ClusterState{ID: 99, Birth: 0, Edges: good.Clusters[0].Edges}
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("out-of-range cluster ID accepted")
	}

	bad = good
	bad.Clusters = []ClusterState{{
		ID:    good.Clusters[0].ID,
		Edges: []dygraph.Edge{dygraph.NewEdge(7, 8)},
	}}
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("missing-edge cluster accepted")
	}

	bad = good
	bad.Clusters = []ClusterState{{
		ID:    good.Clusters[0].ID,
		Edges: good.Clusters[0].Edges[:2],
	}}
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("sub-triangle cluster accepted")
	}

	bad = good
	bad.Clusters = append(append([]ClusterState(nil), good.Clusters...), good.Clusters[0])
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("duplicate cluster accepted")
	}

	// The graph's node table is indexed by ID: an ID beyond the bound is
	// refused wherever the graph names it, before the table is sized.
	bad = good
	bad.Graph.Nodes = append(append([]dygraph.NodeID(nil), good.Graph.Nodes...), 9)
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("engine node beyond the bound accepted")
	}
	bad = good
	bad.Graph.Edges = append(append([]dygraph.Edge(nil), good.Graph.Edges...), dygraph.NewEdge(3, 1<<31))
	bad.Graph.Weights = append(append([]float64(nil), good.Graph.Weights...), 1)
	if _, err := EngineFromState(bad, Hooks{}, 8); err == nil {
		t.Fatalf("engine edge endpoint beyond the bound accepted")
	}
	if _, err := EngineFromState(good, Hooks{}, 8); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
}

func TestGraphStateRoundTrip(t *testing.T) {
	g := dygraph.New()
	g.AddEdge(1, 2, 0.25)
	g.AddEdge(2, 3, 0.75)
	g.AddNode(9) // isolated node must survive
	s := g.State()
	g2, err := dygraph.FromState(s)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasNode(9) || g2.EdgeCount() != 2 {
		t.Fatalf("round trip lost content")
	}
	if w, _ := g2.Weight(1, 2); w != 0.25 {
		t.Fatalf("weight lost")
	}
	// Corrupt states rejected.
	s.Weights = s.Weights[:1]
	if _, err := dygraph.FromState(s); err == nil {
		t.Fatalf("mismatched weights accepted")
	}
	if _, err := dygraph.FromState(dygraph.State{
		Edges:   []dygraph.Edge{{U: 4, V: 4}},
		Weights: []float64{1},
	}); err == nil {
		t.Fatalf("self loop accepted")
	}
}
