package detect

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/tracegen"
)

// TestDetectorStateGolden pins the checkpoint bytes of the default
// detector after three 200k-message traces — the benchmark's three trace
// kinds (field tweaks copied from bench/spec.go). The digests were
// computed on the commit before the AKG id sets moved off hash maps and
// re-pinned once, unchanged in meaning, when the checkpoint moved from
// gob to the binary repro-detector-v2 layout (TestDetectorStateCanonicalGolden
// holds that move to the same restored state); any change to window
// bookkeeping, correlation, cluster repair or ID assignment that is not
// bit-identical shows up here.
func TestDetectorStateGolden(t *testing.T) {
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
		name   string
		trace  tracegen.Config
		events int
		sum    string
	}{
		{"tw", tracegen.TWConfig(seed, n), 73, "3eed82cf954e9d8985f0ceb2768a0436083fafe53f03951cf43227514fe9485e"},
		{"dense", dense, 609, "585160b07f149fccd04ed5c3b9f61c1dac07cf9a6409649d18d4ccd66e663afb"},
		{"short", short, 1989, "ccb15abb44e6ed6d9673eddbce90c33a5e9a652615dcb1951eb0b7d7224b8627"},
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
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sum || len(d.AllEvents()) != tc.events {
				t.Fatalf("%d events, checkpoint sha256 %s; want %d, %s", len(d.AllEvents()), got, tc.events, tc.sum)
			}
		})
	}
}
