package core

import (
	"testing"

	"repro/internal/dygraph"
	"repro/internal/quasi"
)

// FuzzEngineOps drives the engine with an op script decoded from fuzz
// bytes (2 bits op, 2×5 bits node ids per 2-byte step) and checks the full
// invariant set: the engine's indexes agree after every step (checkEngine),
// and at the end canonical equality, SCP, biconnectivity.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x12, 0x34})
	f.Add([]byte("incremental dense cluster maintenance"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400] // bound canonical-recompute cost
		}
		en := NewEngine(Hooks{})
		for i := 0; i+1 < len(script); i += 2 {
			a := dygraph.NodeID(script[i] & 0x1f)
			b := dygraph.NodeID(script[i+1] & 0x1f)
			switch script[i] >> 6 {
			case 0, 1:
				en.AddEdge(a, b, 1)
			case 2:
				en.RemoveEdge(a, b)
			case 3:
				en.RemoveNode(a)
			}
			checkEngine(t, en)
		}
		if !SameClustering(en.Snapshot(), Canonical(en.Graph())) {
			t.Fatalf("incremental diverged from canonical")
		}
		for _, c := range en.Clusters() {
			sub := quasi.FromEdges(c.Edges())
			if !sub.SatisfiesSCP() {
				t.Fatalf("cluster %d violates SCP", c.ID())
			}
			if !sub.IsBiconnected() {
				t.Fatalf("cluster %d not biconnected", c.ID())
			}
		}
	})
}
