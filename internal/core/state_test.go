package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/dygraph"
)

// roundTrip encodes with encode and decodes what it wrote with decode,
// which must consume it all.
func roundTrip[T any](t *testing.T, encode func(*codec.Writer), decode func(*codec.Reader) T) T {
	t.Helper()
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, "")
	encode(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := codec.ReadFrames(&buf, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	r := codec.NewReader(payload)
	v := decode(&r)
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return v
}

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
	en2 := roundTrip(t, en.Encode, func(r *codec.Reader) *Engine { return DecodeEngine(r, Hooks{}, 19) })
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

func TestGraphStateRoundTrip(t *testing.T) {
	g := dygraph.New()
	g.AddEdge(1, 2, 0.25)
	g.AddEdge(2, 3, 0.75)
	g.AddNode(9) // isolated node must survive
	g2 := roundTrip(t, g.Encode, func(r *codec.Reader) *dygraph.Graph { return dygraph.Decode(r, 9) })
	if !g2.HasNode(9) || g2.EdgeCount() != 2 {
		t.Fatalf("round trip lost content")
	}
	if w, _ := g2.Weight(1, 2); w != 0.25 {
		t.Fatalf("weight lost")
	}
}
