package detect

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/akg"
	"repro/internal/dygraph"
	"repro/internal/tracegen"
)

// canonical writes a DetectorState in one fixed field order, numbers as
// fixed-width little-endian words, strings and lists with a length
// prefix, maps by sorted key. It is the state's meaning, not any file's
// bytes: two checkpoint formats that restore the same detector walk to
// the same digest. The format's own tag (Magic) is not part of it.
type canonical struct{ h hash.Hash }

func (c canonical) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.h.Write(b[:])
}

func (c canonical) i64(v int64)           { c.u64(uint64(v)) }
func (c canonical) f64(v float64)         { c.u64(math.Float64bits(v)) }
func (c canonical) str(s string)          { c.u64(uint64(len(s))); c.h.Write([]byte(s)) }
func (c canonical) node(n dygraph.NodeID) { c.u64(uint64(n)) }

func (c canonical) flag(v bool) {
	if v {
		c.u64(1)
	} else {
		c.u64(0)
	}
}

func (c canonical) nodes(ns []dygraph.NodeID) {
	c.u64(uint64(len(ns)))
	for _, n := range ns {
		c.node(n)
	}
}

func (c canonical) edges(es []dygraph.Edge) {
	c.u64(uint64(len(es)))
	for _, e := range es {
		c.node(e.U)
		c.node(e.V)
	}
}

func (c canonical) strs(ss []string) {
	c.u64(uint64(len(ss)))
	for _, s := range ss {
		c.str(s)
	}
}

func (c canonical) f64s(fs []float64) {
	c.u64(uint64(len(fs)))
	for _, f := range fs {
		c.f64(f)
	}
}

func (c canonical) akgConfig(a akg.Config) {
	c.i64(int64(a.Tau))
	c.f64(a.Beta)
	c.i64(int64(a.Window))
	c.i64(int64(a.P))
	c.u64(a.Seed)
	c.flag(a.MinHashOnly)
	c.flag(a.NoMinHashScreen)
}

func (c canonical) events(evs []EventSnapshot) {
	c.u64(uint64(len(evs)))
	for _, e := range evs {
		c.u64(e.ID)
		c.u64(uint64(e.ClusterID))
		c.i64(int64(e.BornQuantum))
		c.i64(int64(e.LastQuantum))
		c.strs(e.Keywords)
		c.f64(e.Rank)
		c.f64s(e.RankHistory)
		c.f64(e.PeakRank)
		c.flag(e.Evolved)
		c.u64(e.MergedInto)
		c.u64(e.SplitFrom)
		c.i64(int64(e.Lifecycle))
		c.i64(int64(e.Support))
		c.i64(int64(e.Size))
		c.flag(e.Reported)
		c.i64(int64(e.FirstReported))
		c.strs(e.AllKeywords)
		c.flag(e.ExactMQC)
	}
}

// canonicalDigest is the SHA-256 of s's canonical walk, in hex.
func canonicalDigest(s DetectorState) string {
	c := canonical{h: sha256.New()}

	c.i64(int64(s.Cfg.Delta))
	c.i64(s.Cfg.QuantumTime)
	c.akgConfig(s.Cfg.AKG)
	c.f64(s.Cfg.SpuriousFactor)
	c.flag(s.Cfg.DisableNounFilter)
	syn := slices.Sorted(maps.Keys(s.Cfg.Synonyms))
	c.u64(uint64(len(syn)))
	for _, w := range syn {
		c.str(w)
		c.str(s.Cfg.Synonyms[w])
	}

	c.strs(s.Words)
	c.nodes(s.NounSeen)

	c.akgConfig(s.AKG.Cfg)
	c.i64(int64(s.AKG.Quantum))
	c.u64(uint64(len(s.AKG.Ring)))
	for _, q := range s.AKG.Ring {
		c.nodes(q.Keywords)
		c.u64(uint64(len(q.Users)))
		for _, us := range q.Users {
			c.u64(uint64(len(us)))
			for _, u := range us {
				c.u64(u)
			}
		}
	}
	g := s.AKG.Engine.Graph
	c.nodes(g.Nodes)
	c.edges(g.Edges)
	c.f64s(g.Weights)
	c.u64(uint64(len(s.AKG.Engine.Clusters)))
	for _, cl := range s.AKG.Engine.Clusters {
		c.u64(uint64(cl.ID))
		c.u64(cl.Birth)
		c.edges(cl.Edges)
	}
	c.u64(uint64(s.AKG.Engine.NextID))
	c.u64(s.AKG.Engine.Ops)
	c.nodes(s.AKG.Present)

	c.events(s.Events)
	c.events(s.Finished)
	c.u64(s.NextEvent)
	c.u64(s.Processed)
	c.u64(s.Trimmed)
	c.u64(uint64(len(s.Pending)))
	for _, m := range s.Pending {
		c.u64(m.ID)
		c.u64(m.User)
		c.i64(m.Time)
		c.str(m.Text)
	}
	c.i64(s.TQStart)
	c.flag(s.TQStarted)
	return hex.EncodeToString(c.h.Sum(nil))
}

// TestDetectorStateCanonicalGolden pins what a checkpoint says, whatever
// its bytes: over TestDetectorStateGolden's three traces it runs Save →
// Load and hashes the canonical walk of the restored detector's State.
// The digests were taken with the gob checkpoint format; a new format
// must restore every trace to the same digest. Never re-pin this test: a
// moved digest means a checkpoint no longer restores the detector it was
// taken from.
func TestDetectorStateCanonicalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 600k messages")
	}
	const seed, n = 7, 200000
	dense := tracegen.TWConfig(seed, n)
	dense.RealEvents *= 10
	dense.SpuriousEvents *= 10
	dense.Discussions *= 10
	short := tracegen.TWConfig(seed, n)
	short.RealEvents = n / 100
	short.EventMessagesMin, short.EventMessagesMax = 50, 100
	short.EventSpanMin, short.EventSpanMax = 320, 640
	short.EventUsersMin, short.EventUsersMax = 30, 60
	short.PoolMin, short.PoolMax = 6, 8

	for _, tc := range []struct {
		name  string
		trace tracegen.Config
		sum   string
	}{
		{"tw", tracegen.TWConfig(seed, n), "7c666c1dc48bb5cb023e2975abbadc1ad949b46fbeb3e5b5533019b9248ba0aa"},
		{"dense", dense, "c4271caa3d26b45047bb66f67de30e66e16fc545ced1c4a493494bd8b96c3beb"},
		{"short", short, "618ddb414a05703bf4c3534e056c58a22067cb3624a193d09e81cc83e953a15b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msgs, _ := tracegen.Generate(tc.trace)
			d := New(Config{})
			for _, m := range msgs {
				d.IngestAll(m)
			}
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got := canonicalDigest(restored.State())
			if live := canonicalDigest(d.State()); got != live {
				t.Fatalf("restored state walks to %s, the live detector to %s", got, live)
			}
			if got != tc.sum {
				t.Fatalf("canonical state sha256 %s; want %s", got, tc.sum)
			}
		})
	}
}

// v1Fixture is a checkpoint in the retired gob format
// (repro-detector-v1), as the last build that wrote it produced it:
// tracegen.TWConfig(5, 4037) through New(Config{Delta: 100, Synonyms:
// {"quake": "earthquake"}}) with SetRetain(2).
const v1Fixture = "testdata/detector-v1.ckpt"

// TestLoadV1Checkpoint: this build reads no gob checkpoint. Load refuses
// one with an error that names it and the way past it — the previous
// build, which reads it, started once and stopped cleanly, so that its
// shutdown snapshot rewrites the state in the current format.
func TestLoadV1Checkpoint(t *testing.T) {
	raw, err := os.ReadFile(v1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("Load read a gob checkpoint")
	}
	for _, want := range []string{"gob", "previous build", "stop it cleanly"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
}
