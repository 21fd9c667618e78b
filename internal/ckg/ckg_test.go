package ckg

import (
	"math/rand"
	"testing"

	"repro/internal/dygraph"
)

func uk(user uint64, kws ...dygraph.NodeID) UserKeywords {
	return UserKeywords{User: user, Keywords: kws}
}

func TestNodesAndEdgesFromCoOccurrence(t *testing.T) {
	g := New(3)
	g.AddQuantum([]UserKeywords{uk(1, 10, 11, 12), uk(2, 10, 13)})
	if g.NodeCount() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NodeCount())
	}
	// user1 contributes edges (10,11),(10,12),(11,12); user2 (10,13).
	if g.EdgeCount() != 4 {
		t.Fatalf("edges = %d, want 4", g.EdgeCount())
	}
	if !g.HasEdge(11, 10) || g.HasEdge(11, 13) {
		t.Fatalf("edge membership wrong")
	}
	if !g.HasNode(13) || g.HasNode(99) {
		t.Fatalf("node membership wrong")
	}
}

func TestWindowExpiry(t *testing.T) {
	g := New(2)
	g.AddQuantum([]UserKeywords{uk(1, 10, 11)})
	g.AddQuantum([]UserKeywords{uk(2, 20, 21)})
	if g.NodeCount() != 4 || g.QuantaHeld() != 2 {
		t.Fatalf("setup wrong: %d nodes %d quanta", g.NodeCount(), g.QuantaHeld())
	}
	g.AddQuantum([]UserKeywords{uk(3, 30, 31)})
	// First quantum expired: 10,11 gone.
	if g.HasNode(10) || g.HasNode(11) {
		t.Fatalf("expired keywords survive")
	}
	if g.HasEdge(10, 11) {
		t.Fatalf("expired edge survives")
	}
	if g.NodeCount() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NodeCount())
	}
}

func TestRefCountAcrossQuanta(t *testing.T) {
	g := New(2)
	g.AddQuantum([]UserKeywords{uk(1, 10, 11)})
	g.AddQuantum([]UserKeywords{uk(2, 10, 11)})
	g.AddQuantum([]UserKeywords{uk(3, 99)})
	// (10,11) was observed in quantum 2 which is still in the window.
	if !g.HasEdge(10, 11) {
		t.Fatalf("edge with live support expired early")
	}
	g.AddQuantum([]UserKeywords{uk(4, 98)})
	if g.HasEdge(10, 11) || g.HasNode(10) {
		t.Fatalf("edge survived past its last observation")
	}
}

func TestDuplicateKeywordInSetIgnored(t *testing.T) {
	g := New(2)
	// Self pair (10,10) must not create a self edge.
	g.AddQuantum([]UserKeywords{uk(1, 10, 10, 11)})
	if g.HasEdge(10, 10) {
		t.Fatalf("self edge created")
	}
}

// TestCountsMatchBruteForce replays random quanta and verifies node/edge
// counts against a brute-force recomputation over the live window.
func TestCountsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w = 4
	g := New(w)
	var history [][]UserKeywords
	for q := 0; q < 40; q++ {
		batch := make([]UserKeywords, 1+rng.Intn(5))
		for i := range batch {
			kws := make([]dygraph.NodeID, 0, 4)
			seen := map[dygraph.NodeID]struct{}{}
			for j := 0; j < 2+rng.Intn(3); j++ {
				k := dygraph.NodeID(rng.Intn(15))
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					kws = append(kws, k)
				}
			}
			batch[i] = UserKeywords{User: uint64(rng.Intn(6)), Keywords: kws}
		}
		history = append(history, batch)
		g.AddQuantum(batch)

		// Brute force over the last w quanta.
		lo := len(history) - w
		if lo < 0 {
			lo = 0
		}
		nodes := map[dygraph.NodeID]struct{}{}
		edges := map[dygraph.Edge]struct{}{}
		for _, b := range history[lo:] {
			for _, u := range b {
				for _, k := range u.Keywords {
					nodes[k] = struct{}{}
				}
				for i := 0; i < len(u.Keywords); i++ {
					for j := i + 1; j < len(u.Keywords); j++ {
						edges[dygraph.NewEdge(u.Keywords[i], u.Keywords[j])] = struct{}{}
					}
				}
			}
		}
		if g.NodeCount() != len(nodes) || g.EdgeCount() != len(edges) {
			t.Fatalf("quantum %d: got %d/%d nodes/edges, want %d/%d",
				q, g.NodeCount(), g.EdgeCount(), len(nodes), len(edges))
		}
	}
}

func TestWindowClamp(t *testing.T) {
	g := New(0)
	g.AddQuantum([]UserKeywords{uk(1, 1, 2)})
	if g.QuantaHeld() != 1 {
		t.Fatalf("window not clamped to 1")
	}
}
