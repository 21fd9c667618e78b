package detect

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"repro/internal/akg"
	"repro/internal/codec"
	"repro/internal/tracegen"
)

// smallDetector runs a short trace with small quanta and window, so its
// checkpoint is a few kilobytes yet holds live and finished events, a
// trimmed count, synonyms, noun-seen keywords and a partial quantum.
// quantumTime selects time-cut quanta.
func smallDetector(t testing.TB, quantumTime int64) *Detector {
	t.Helper()
	cfg := Config{
		Delta:    40,
		AKG:      akg.Config{Tau: 3, Beta: 0.2, Window: 4},
		Synonyms: map[string]string{"quake": "earthquake", "tremor": "earthquake"},
	}
	if quantumTime > 0 {
		cfg.QuantumTime = quantumTime
	}
	d := New(cfg)
	d.SetRetain(2)
	msgs, _ := tracegen.Generate(tracegen.TWConfig(3, 617))
	for _, m := range msgs {
		d.IngestAll(m)
	}
	return d
}

func save(t testing.TB, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointDeterministic: two Saves of one detector are byte-equal,
// and so is Save → Load → Save; Load reads the checkpoint's bytes and
// nothing after them (a snapshot file continues with the archive image).
func TestCheckpointDeterministic(t *testing.T) {
	for _, qt := range []int64{0, 25} {
		d := smallDetector(t, qt)
		if d.LiveCount() == 0 || len(d.finished) == 0 || d.Trimmed() == 0 {
			t.Fatalf("quantum time %d: %d live, %d finished, %d trimmed: the trace exercises too little",
				qt, d.LiveCount(), len(d.finished), d.Trimmed())
		}
		first := save(t, d)
		if again := save(t, d); !bytes.Equal(first, again) {
			t.Fatalf("quantum time %d: two Saves of one detector differ", qt)
		}
		const tail = "the archive image follows"
		r := bytes.NewReader(append(bytes.Clone(first), tail...))
		restored, err := Load(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != len(tail) {
			t.Fatalf("quantum time %d: Load left %d bytes unread, want the %d after the checkpoint", qt, r.Len(), len(tail))
		}
		if got := save(t, restored); !bytes.Equal(first, got) {
			t.Fatalf("quantum time %d: Save → Load → Save is not byte-identical", qt)
		}
		if canonicalDigest(restored.State()) != canonicalDigest(d.State()) {
			t.Fatalf("quantum time %d: restored state differs", qt)
		}
	}
}

// TestCheckpointByteFlips: every single-byte corruption of a checkpoint
// — magic, frame header, payload or checksum — makes Load fail.
func TestCheckpointByteFlips(t *testing.T) {
	good := save(t, smallDetector(t, 0))
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	for i := range bad {
		bad[i] ^= 0xff
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Errorf("byte %d of %d flipped: Load accepted the checkpoint", i, len(bad))
		}
		bad[i] = good[i]
	}
	for n := range len(good) {
		if _, err := Load(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", n, len(good))
		}
	}
}

// framed wraps payload in a checkpoint's magic, frames and checksum,
// so that the fuzzer's mutations reach the decoder behind the checksum.
func framed(t testing.TB, payload []byte) []byte {
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, checkpointMagic)
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// unframed returns a checkpoint's payload.
func unframed(t testing.TB, ckpt []byte) []byte {
	p, err := codec.ReadFrames(bytes.NewReader(ckpt[len(checkpointMagic):]), checkpointMagic, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzCheckpoint: whatever the bytes, Load returns an error or a
// detector whose checkpoint round-trips — Save, Load, Save again gives
// the same bytes. It never panics, and what it allocates is bounded by
// the input's length: a claimed count or length cannot size anything.
// Each input is tried twice: as a whole checkpoint (magic, frames and
// checksum included), and as a checkpoint's payload, framed and
// checksummed here. The retired gob checkpoint stays a seed; Load
// refuses it (TestLoadV1Checkpoint).
func FuzzCheckpoint(f *testing.F) {
	for _, d := range []*Detector{smallDetector(f, 0), smallDetector(f, 25), New(Config{})} {
		ckpt := save(f, d)
		f.Add(ckpt)
		f.Add(unframed(f, ckpt))
	}
	if v1, err := os.ReadFile(v1Fixture); err == nil {
		f.Add(v1)
	}
	f.Add([]byte("definitely not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, framed(t, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := Load(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			// Restoring costs a few hundred bytes per input byte (word
			// list, symbol table, keyword and node tables), plus the stop
			// list and a frame: fixed costs. A make from an unchecked
			// count costs far more.
			if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(16<<20+1024*len(in)); grew > bound {
				t.Fatalf("Load of %d bytes allocated %d bytes, bound %d", len(in), grew, bound)
			}
			if err != nil {
				continue
			}
			first := save(t, d)
			again, err := Load(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("a restored detector's checkpoint does not load: %v", err)
			}
			if second := save(t, again); !bytes.Equal(first, second) {
				t.Fatalf("Save → Load → Save not byte-identical (%d vs %d bytes)", len(first), len(second))
			}
		}
	})
}
