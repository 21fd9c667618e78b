package detect

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/akg"
)

// TestRetainMatchesTrimPerRecord pins why the retention cap can trim
// inside the quantum without changing what a WAL replay rebuilds: a
// detector capped by SetRetain and a twin that calls TrimFinished after
// every record (the older per-batch trim) must agree at every record
// boundary — Save bytes and the (ordinal, ID) eviction sequence alike.
// Records run one to five quanta, with flush markers mixed in, so trims
// land both mid-record and at partial quanta. Inside the quantum hook
// the capped detector never holds more than the cap.
func TestRetainMatchesTrimPerRecord(t *testing.T) {
	const (
		retain = 64
		delta  = 80
	)
	type eviction struct{ ordinal, id uint64 }
	cfg := Config{Delta: delta, AKG: akg.Config{Tau: 3, Beta: 0.2, Window: 8}}
	newTwin := func() (*Detector, *[]eviction) {
		d := New(cfg)
		var evicted []eviction
		d.SetOnEvict(func(ev *Event) { evicted = append(evicted, eviction{d.Trimmed(), ev.ID}) })
		return d, &evicted
	}
	capped, cappedEv := newTwin()
	capped.SetRetain(retain)
	capped.SetOnQuantum(func(res *QuantumResult) {
		if n := len(capped.finished); n > retain {
			t.Fatalf("quantum %d: %d finished events inside the hook, cap %d", res.Quantum, n, retain)
		}
	})
	ref, refEv := newTwin()
	overCap := false // the reference held more than the cap at some quantum
	ref.SetOnQuantum(func(*QuantumResult) { overCap = overCap || len(ref.finished) > retain })

	save := func(d *Detector) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	msgs := shortTrace(5, 12000)
	rng := rand.New(rand.NewSource(1))
	records, flushes := 0, 0
	for len(msgs) > 0 {
		if rng.Intn(6) == 0 {
			capped.Flush()
			ref.Flush()
			flushes++
		} else {
			n := min(len(msgs), delta+rng.Intn(4*delta+1))
			for _, m := range msgs[:n] {
				capped.IngestAll(m)
				ref.IngestAll(m)
			}
			msgs = msgs[n:]
		}
		ref.TrimFinished(retain)
		records++
		if !bytes.Equal(save(capped), save(ref)) {
			t.Fatalf("record %d: Save bytes differ", records)
		}
		if !slices.Equal(*cappedEv, *refEv) {
			t.Fatalf("record %d: evictions differ:\ncapped %v\nref    %v", records, *cappedEv, *refEv)
		}
	}
	if len(*cappedEv) == 0 || !overCap || flushes == 0 {
		t.Fatalf("trace exercises nothing: %d evictions, reference over the cap %v, %d flushes",
			len(*cappedEv), overCap, flushes)
	}
}
