package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// eventsDigest summarises the full event history for comparison.
func eventsDigest(d *Detector) string {
	var b bytes.Buffer
	for _, ev := range d.AllEvents() {
		fmt.Fprintf(&b, "%d|%v|%v|born=%d|last=%d|rank=%.6f|peak=%.6f|sup=%d|rep=%v|first=%d|evolved=%v|mqc=%v\n",
			ev.ID, ev.State, ev.Keywords, ev.BornQuantum, ev.LastQuantum,
			ev.Rank, ev.PeakRank, ev.Support, ev.Reported, ev.FirstReported,
			ev.Evolved, ev.ExactMQC)
	}
	return b.String()
}

// TestCheckpointResumeEquivalence is the central persistence property:
// running a trace straight through must equal running half, saving,
// loading into a fresh detector, and running the rest — identical event
// histories, identical graph state.
func TestCheckpointResumeEquivalence(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.ESConfig(77, 30000))
	cfg := Config{Delta: 120}

	// Uninterrupted run.
	ref := New(cfg)
	if err := ref.Run(stream.NewSliceSource(msgs), nil); err != nil {
		t.Fatal(err)
	}

	// Split at an arbitrary point (not a quantum boundary: 13001).
	cut := 13001
	d1 := New(cfg)
	for _, m := range msgs[:cut] {
		d1.Ingest(m)
	}
	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[cut:] {
		d2.Ingest(m)
	}
	d2.Flush()
	ref2 := New(cfg) // re-run reference including the trailing Flush
	_ = ref2
	refDetector := New(cfg)
	if err := refDetector.Run(stream.NewSliceSource(msgs), nil); err != nil {
		t.Fatal(err)
	}

	if got, want := eventsDigest(d2), eventsDigest(refDetector); got != want {
		t.Fatalf("event histories diverge after checkpoint resume:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if d2.Processed() != refDetector.Processed() {
		t.Fatalf("processed counts differ: %d vs %d", d2.Processed(), refDetector.Processed())
	}
	// Graph-level state must agree too.
	g1 := refDetector.AKG().Engine().Graph()
	g2 := d2.AKG().Engine().Graph()
	if g1.NodeCount() != g2.NodeCount() || g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("graphs differ: %d/%d vs %d/%d nodes/edges",
			g1.NodeCount(), g1.EdgeCount(), g2.NodeCount(), g2.EdgeCount())
	}
	if !reflect.DeepEqual(refDetector.AKG().Engine().Snapshot(), d2.AKG().Engine().Snapshot()) {
		t.Fatalf("clusterings differ after resume")
	}
}

func TestCheckpointRoundTripState(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(5, 8000))
	d := New(Config{Delta: 100})
	for _, m := range msgs {
		d.Ingest(m)
	}
	s1 := d.State()
	d2, err := FromState(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := d2.State()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("State → FromState → State not a fixpoint")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not gob"))); err == nil {
		t.Fatalf("garbage checkpoint accepted")
	}
	if _, err := FromState(DetectorState{Magic: "wrong"}); err == nil {
		t.Fatalf("bad magic accepted")
	}
}

// TestFromStateRejectsForeignIDs: keyword IDs index dense tables, so a
// checkpoint naming one beyond its own vocabulary — one past the end, or
// 2³¹, which would size a table in gigabytes — is refused with an error
// wherever it appears, before anything is allocated for it.
func TestFromStateRejectsForeignIDs(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(5, 8000))
	d := New(Config{Delta: 100})
	for _, m := range msgs {
		d.Ingest(m)
	}
	if len(d.State().AKG.Present) == 0 {
		t.Fatal("no AKG nodes: the engine cases are vacuous")
	}
	words := dygraph.NodeID(len(d.State().Words))
	for _, id := range []dygraph.NodeID{words + 1, 1 << 31} {
		for name, corrupt := range map[string]func(s *DetectorState){
			"NounSeen": func(s *DetectorState) { s.NounSeen = append(s.NounSeen, id) },
			"ring keyword": func(s *DetectorState) {
				q := &s.AKG.Ring[len(s.AKG.Ring)-1]
				q.Keywords = append(q.Keywords, id)
				q.Users = append(q.Users, []uint64{1})
			},
			"Present":     func(s *DetectorState) { s.AKG.Present = append(s.AKG.Present, id) },
			"engine node": func(s *DetectorState) { s.AKG.Engine.Graph.Nodes = append(s.AKG.Engine.Graph.Nodes, id) },
			"engine edge endpoint": func(s *DetectorState) {
				g := &s.AKG.Engine.Graph
				g.Edges = append(g.Edges, dygraph.NewEdge(s.AKG.Present[0], id))
				g.Weights = append(g.Weights, 1)
			},
			"engine and Present": func(s *DetectorState) {
				s.AKG.Present = append(s.AKG.Present, id)
				s.AKG.Engine.Graph.Nodes = append(s.AKG.Engine.Graph.Nodes, id)
			},
		} {
			s := d.State() // fresh deep copy
			corrupt(&s)
			if _, err := FromState(s); err == nil {
				t.Errorf("%s = %d accepted with a vocabulary of %d", name, id, words)
			}
		}
	}
	if _, err := FromState(d.State()); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
}

func TestCheckpointPendingBuffer(t *testing.T) {
	d := New(Config{Delta: 10})
	for i := 0; i < 7; i++ { // partial quantum
		d.Ingest(stream.Message{ID: uint64(i + 1), User: uint64(i), Text: "storm coast"})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Three more messages should complete the quantum on the restored
	// detector exactly as they would have on the original.
	var res *QuantumResult
	for i := 7; i < 10; i++ {
		res = d2.Ingest(stream.Message{ID: uint64(i + 1), User: uint64(i), Text: "storm coast"})
	}
	if res == nil || res.Quantum != 1 {
		t.Fatalf("restored pending buffer did not complete the quantum")
	}
	if res.Stats.Keywords != 2 {
		t.Fatalf("restored quantum saw %d keywords, want 2", res.Stats.Keywords)
	}
}

// TestSerialDeterminism pins down full run-to-run reproducibility: the
// engine's merge-survivor and split-identity rules, the AKG's sorted
// iteration, and event-ID assignment must make identical inputs produce
// identical histories. (A regression here once came from an unsorted
// tie-break in cluster repair.)
func TestSerialDeterminism(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.ESConfig(31, 25000))
	cfg := Config{Delta: 120}
	run := func() string {
		d := New(cfg)
		if err := d.Run(stream.NewSliceSource(msgs), nil); err != nil {
			t.Fatal(err)
		}
		return eventsDigest(d)
	}
	ref := run()
	for i := 0; i < 2; i++ {
		if run() != ref {
			t.Fatalf("identical inputs produced different event histories (attempt %d)", i)
		}
	}
}
