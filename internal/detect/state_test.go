package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
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
	if !reflect.DeepEqual(d.State(), reload(t, d).State()) {
		t.Fatalf("Save → Load does not restore the state")
	}
}

// reload returns the detector Save → Load makes of d.
func reload(t testing.TB, d *Detector) *Detector {
	t.Helper()
	restored, err := Load(bytes.NewReader(save(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// refused fails t unless Load refuses writeState's bytes for s with an
// error that says want.
func refused(t *testing.T, name string, s DetectorState, want string) {
	t.Helper()
	_, err := Load(bytes.NewReader(writeState(t, s)))
	switch {
	case err == nil:
		t.Errorf("%s: accepted", name)
	case !strings.Contains(err.Error(), want):
		t.Errorf("%s: %v; want an error about %q", name, err, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := Load(bytes.NewReader([]byte("definitely not a checkpoint")))
	if err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
		t.Fatalf("garbage checkpoint: %v", err)
	}
}

// TestFromStateRejectsForeignIDs: keyword IDs index dense tables, so a
// checkpoint naming one beyond its own vocabulary — one past the end, or
// 2³¹, which would size a table in gigabytes — is refused with an error
// wherever it appears, before anything is allocated for it.
func TestFromStateRejectsForeignIDs(t *testing.T) {
	d, good := validationState(t)
	words := dygraph.NodeID(len(good.Words))
	for _, id := range []dygraph.NodeID{words + 1, 1 << 31} {
		for name, tc := range map[string]struct {
			corrupt func(s *DetectorState)
			want    string
		}{
			"ring keyword": {func(s *DetectorState) {
				q := &s.AKG.Ring[len(s.AKG.Ring)-1]
				q.Keywords = append(q.Keywords, id)
				q.Users = append(q.Users, []uint64{1})
			}, "beyond the vocabulary"},
			"engine node": {func(s *DetectorState) {
				s.AKG.Engine.Graph.Nodes = append(s.AKG.Engine.Graph.Nodes, id)
			}, "beyond the bound"},
			"engine edge endpoint": {func(s *DetectorState) {
				g := &s.AKG.Engine.Graph
				g.Edges = append(g.Edges, dygraph.NewEdge(g.Nodes[len(g.Nodes)-1], id))
				g.Weights = append(g.Weights, 1)
			}, "not in the graph"},
		} {
			s := d.State() // fresh deep copy
			tc.corrupt(&s)
			refused(t, fmt.Sprintf("%s %d", name, id), s, tc.want)
		}
	}
	// The bitmap holds IDs up to the word count and pads its last byte.
	if words%8 == 7 {
		t.Fatalf("%d words fill the noun-seen bitmap: no padding bit to set", words)
	}
	s := d.State()
	s.NounSeen = append(s.NounSeen, words+1)
	refused(t, "noun-seen padding bit", s, "noun-seen bitmap")
	// A list that repeats a word interns one word fewer than it counts.
	s = d.State()
	s.Words[len(s.Words)-1] = s.Words[0]
	s.NounSeen = append(s.NounSeen, words)
	refused(t, "noun-seen keyword past a repeated word", s, "noun-seen bitmap")
}

// validationState returns the detector whose state the validation tests
// corrupt, and that state: a full window, several clusters and live
// events, which Load accepts as written.
func validationState(t *testing.T) (*Detector, DetectorState) {
	t.Helper()
	msgs, _ := tracegen.Generate(tracegen.TWConfig(5, 8000))
	d := New(Config{Delta: 100})
	for _, m := range msgs {
		d.Ingest(m)
	}
	s := d.State()
	if len(s.AKG.Ring) != d.AKG().Config().Window || len(s.AKG.Engine.Clusters) < 2 || len(s.Events) == 0 {
		t.Fatalf("%d ring entries, %d clusters, %d live events: the cases are vacuous",
			len(s.AKG.Ring), len(s.AKG.Engine.Clusters), len(s.Events))
	}
	if _, err := Load(bytes.NewReader(writeState(t, s))); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
	return d, s
}

// TestAKGStateValidation: the window ring must be what Save writes —
// no longer than the window, keywords strictly ascending per quantum,
// users strictly ascending and present per keyword — because the id
// sets are maintained by merge and would be silently corrupted by
// anything else; and every AKG member (engine graph node) must be seen
// inside the window.
func TestAKGStateValidation(t *testing.T) {
	d, good := validationState(t)
	const huge = dygraph.NodeID(1) << 31
	// Ring entry 0 and a keyword of it with two users or more.
	multi := slices.IndexFunc(good.AKG.Ring[0].Users, func(us []uint64) bool { return len(us) > 1 })
	if len(good.AKG.Ring[0].Keywords) < 2 || multi < 0 {
		t.Fatal("ring entry 0 too small for the reshaping cases")
	}
	// A vocabulary word that is neither in the ring nor in the graph.
	inRing := map[dygraph.NodeID]bool{}
	for _, q := range good.AKG.Ring {
		for _, k := range q.Keywords {
			inRing[k] = true
		}
	}
	unseen := dygraph.NodeID(1)
	for inRing[unseen] {
		unseen++
	}
	maxRing := dygraph.NodeID(0)
	for _, q := range good.AKG.Ring {
		maxRing = max(maxRing, q.Keywords[len(q.Keywords)-1])
	}
	for name, tc := range map[string]struct {
		corrupt func(s *DetectorState)
		want    string
	}{
		"ring longer than the window": {func(s *DetectorState) {
			s.AKG.Ring = append(s.AKG.Ring, s.AKG.Ring[0])
		}, "window is"},
		"member unseen in the window": {func(s *DetectorState) {
			g := &s.AKG.Engine.Graph
			at, _ := slices.BinarySearch(g.Nodes, unseen)
			g.Nodes = slices.Insert(g.Nodes, at, unseen)
		}, "unseen inside the window"},
		"vocabulary shorter than the ring": {func(s *DetectorState) {
			s.Words = s.Words[:maxRing-1]
			s.NounSeen = slices.DeleteFunc(s.NounSeen, func(id dygraph.NodeID) bool { return id >= maxRing })
		}, "beyond the vocabulary"},
		"keywords descending": {func(s *DetectorState) {
			slices.Reverse(s.AKG.Ring[0].Keywords)
			slices.Reverse(s.AKG.Ring[0].Users)
		}, "out of range"},
		"keyword repeated": {func(s *DetectorState) {
			q := &s.AKG.Ring[0]
			q.Keywords[1] = q.Keywords[0]
		}, "not strictly ascending"},
		"users descending": {func(s *DetectorState) {
			slices.Reverse(s.AKG.Ring[0].Users[multi])
		}, "out of range"},
		"user repeated": {func(s *DetectorState) {
			us := s.AKG.Ring[0].Users[multi]
			us[1] = us[0]
		}, "not strictly ascending"},
		"no users": {func(s *DetectorState) {
			s.AKG.Ring[0].Users[0] = nil
		}, "has no users"},
		"keyword 2^31": {func(s *DetectorState) {
			q := &s.AKG.Ring[0]
			q.Keywords = append(q.Keywords, huge)
			q.Users = append(q.Users, []uint64{1})
		}, "beyond the vocabulary"},
	} {
		s := d.State() // fresh deep copy
		tc.corrupt(&s)
		refused(t, name, s, tc.want)
	}
}

// TestEngineStateValidation: every cluster needs an ID from 1 to NextID,
// ascending, and at least three edges of the graph that no other
// cluster holds. (The graph's ID bound is TestFromStateRejectsForeignIDs'.)
func TestEngineStateValidation(t *testing.T) {
	d, good := validationState(t)
	edges := map[dygraph.Edge]bool{}
	for _, e := range good.AKG.Engine.Graph.Edges {
		edges[e] = true
	}
	nodes := good.AKG.Engine.Graph.Nodes
	var missing dygraph.Edge
	for _, v := range nodes[1:] {
		if e := dygraph.NewEdge(nodes[0], v); !edges[e] {
			missing = e
			break
		}
	}
	if missing == (dygraph.Edge{}) {
		t.Fatalf("node %d is adjacent to every other node", nodes[0])
	}
	for name, tc := range map[string]struct {
		corrupt func(en *core.EngineState)
		want    string
	}{
		"cluster ID past NextID": {func(en *core.EngineState) {
			en.Clusters[len(en.Clusters)-1].ID = en.NextID + 1
		}, "out of range"},
		"missing edge": {func(en *core.EngineState) {
			en.Clusters[0].Edges = []dygraph.Edge{missing}
		}, "missing edge"},
		"sub-triangle cluster": {func(en *core.EngineState) {
			en.Clusters[0].Edges = en.Clusters[0].Edges[:2]
		}, "minimum cluster is a triangle"},
		"duplicate cluster": {func(en *core.EngineState) {
			en.Clusters = slices.Insert(en.Clusters, 1, en.Clusters[0])
		}, "not ascending"},
		"edge in two clusters": {func(en *core.EngineState) {
			en.Clusters[1].Edges = en.Clusters[0].Edges
		}, "claimed by clusters"},
	} {
		s := d.State() // fresh deep copy
		tc.corrupt(&s.AKG.Engine)
		refused(t, name, s, tc.want)
	}
}

// TestGraphStateValidation: a self-loop cannot be written in the edge
// list's order, and is refused.
func TestGraphStateValidation(t *testing.T) {
	_, s := validationState(t)
	g := &s.AKG.Engine.Graph
	last := g.Nodes[len(g.Nodes)-1]
	g.Edges = append(g.Edges, dygraph.Edge{U: last, V: last})
	g.Weights = append(g.Weights, 1)
	refused(t, "self-loop", s, "out of order")
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
