package detect

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/akg"
	"repro/internal/tracegen"
)

// runReconcile drains a synthetic trace through a detector on the dirty
// reconciliation path, or on the full pass when full is set, capturing
// every per-quantum wire artifact plus the final event registry.
func runReconcile(t *testing.T, full bool, retain int) (quanta []string, final string) {
	t.Helper()
	msgs, _ := tracegen.Generate(tracegen.TWConfig(7, 16000))
	d := New(Config{Delta: 80, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}})
	d.reconcileFull = full
	for _, m := range msgs {
		for _, res := range d.IngestAll(m) {
			raw, err := json.Marshal(struct {
				Q       int
				Reports []Report
				Born    []uint64
				Ended   []uint64
				Merged  []MergeNote
			}{res.Quantum, res.Reports, res.Born, res.Ended, res.Merged})
			if err != nil {
				t.Fatal(err)
			}
			quanta = append(quanta, string(raw))
		}
		if retain > 0 {
			d.TrimFinished(retain)
		}
	}
	if res := d.Flush(); res != nil {
		quanta = append(quanta, fmt.Sprintf("flush-%d", res.Quantum))
	}
	type finalEv struct {
		Ev       Event
		Spurious bool
	}
	var evs []finalEv
	for _, ev := range d.AllEvents() {
		evs = append(evs, finalEv{Ev: *ev, Spurious: ev.Spurious()})
	}
	raw, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return quanta, string(raw)
}

// TestReconcileDirtyEquivalence is the replay-equivalence guarantee of
// the dirty-set maintenance layer: the incremental path (only clusters
// touched by the engine or containing a support-dirty vertex are
// recomputed) must produce byte-identical per-quantum reports,
// lifecycle deltas, rank histories and final event registries to the
// full per-quantum rescan, with and without retention trimming.
func TestReconcileDirtyEquivalence(t *testing.T) {
	for _, retain := range []int{0, 4} {
		fullQ, fullFinal := runReconcile(t, true, retain)
		dirtyQ, dirtyFinal := runReconcile(t, false, retain)
		if len(fullQ) == 0 {
			t.Fatal("trace produced no quanta")
		}
		if len(fullQ) != len(dirtyQ) {
			t.Fatalf("retain=%d: quantum counts diverge: full=%d dirty=%d",
				retain, len(fullQ), len(dirtyQ))
		}
		for i := range fullQ {
			if fullQ[i] != dirtyQ[i] {
				t.Fatalf("retain=%d: quantum %d diverges (full vs dirty):\nfull  %s\ndirty %s",
					retain, i, fullQ[i], dirtyQ[i])
			}
		}
		if fullFinal != dirtyFinal {
			t.Fatalf("retain=%d: final event registries diverge", retain)
		}
	}
}

// TestReconcileDirtyEquivalenceAcrossCheckpoint replays the second half
// of a stream on a restored checkpoint under the dirty path and
// requires the final registry to match an uninterrupted full-pass
// run — the dirty set must not depend on state a checkpoint cannot
// carry.
func TestReconcileDirtyEquivalenceAcrossCheckpoint(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(11, 12000))
	cfg := Config{Delta: 80, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}}

	ref := New(cfg)
	ref.reconcileFull = true
	for _, m := range msgs {
		ref.IngestAll(m)
	}
	ref.Flush()
	want := mustJSON(t, ref.AllEvents())

	d1 := New(cfg)
	cut := 6000 // mid-quantum on purpose
	for _, m := range msgs[:cut] {
		d1.IngestAll(m)
	}
	st := d1.State()
	d2, err := FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[cut:] {
		d2.IngestAll(m)
	}
	d2.Flush()
	if got := mustJSON(t, d2.AllEvents()); got != want {
		t.Fatalf("restored dirty-path run diverges from uninterrupted full-path run:\ngot  %s\nwant %s", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
