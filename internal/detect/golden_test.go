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
// computed on the commit before the AKG id sets moved off hash maps;
// any change to window bookkeeping, correlation, cluster repair or ID
// assignment that is not bit-identical shows up here.
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
		{"tw", tracegen.TWConfig(seed, n), 73, "5e83d9ca4ab7ebd4048cb79baf414407c32a5a0c15935d46e3cf11e4c49f528a"},
		{"dense", dense, 609, "52cb82aa0357e8f376c1207d5a2ef368187213b34be29740abf008f0bd233acb"},
		{"short", short, 1989, "90998b79f2b3c3bf9066bc7650eade1d4f212da280339baa119cc0909d434319"},
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
