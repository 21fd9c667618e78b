package detect

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/akg"
	"repro/internal/ckg"
	"repro/internal/stream"
)

// msgsFrom builds one message per entry: (user, text).
func msgsFrom(entries ...[2]string) []stream.Message {
	out := make([]stream.Message, len(entries))
	for i, e := range entries {
		var user uint64
		fmt.Sscanf(e[0], "%d", &user)
		out[i] = stream.Message{ID: uint64(i + 1), User: user, Time: int64(i), Text: e[1]}
	}
	return out
}

// burstMessages makes n messages from n distinct users all saying text.
func burstMessages(startUser int, n int, text string) []stream.Message {
	out := make([]stream.Message, n)
	for i := range out {
		out[i] = stream.Message{
			ID:   uint64(i + 1),
			User: uint64(startUser + i),
			Time: int64(i),
			Text: text,
		}
	}
	return out
}

func testConfig(delta int) Config {
	return Config{
		Delta: delta,
		AKG:   akg.Config{Tau: 3, Beta: 0.2, Window: 5},
	}
}

func TestQuantumBoundary(t *testing.T) {
	d := New(testConfig(4))
	msgs := burstMessages(0, 4, "earthquake struck turkey")
	var res *QuantumResult
	for _, m := range msgs {
		res = d.Ingest(m)
	}
	if res == nil {
		t.Fatalf("quantum did not complete after Delta messages")
	}
	if res.Quantum != 1 {
		t.Fatalf("quantum index %d", res.Quantum)
	}
	if d.Processed() != 4 {
		t.Fatalf("Processed = %d", d.Processed())
	}
}

func TestEventDiscoveredFromBurst(t *testing.T) {
	d := New(testConfig(8))
	res := runAll(t, d, burstMessages(0, 8, "earthquake struck eastern turkey"))
	if len(res) == 0 {
		t.Fatalf("no quantum processed")
	}
	last := res[len(res)-1]
	if len(last.Reports) != 1 {
		t.Fatalf("want 1 reported event, got %d", len(last.Reports))
	}
	r := last.Reports[0]
	if len(r.Keywords) != 4 {
		t.Fatalf("keywords = %v", r.Keywords)
	}
	if r.Rank <= 0 || r.Support != 8 {
		t.Fatalf("report = %+v", r)
	}
}

func TestFlushProcessesPartialQuantum(t *testing.T) {
	d := New(testConfig(100))
	for _, m := range burstMessages(0, 6, "flood warning coast") {
		if r := d.Ingest(m); r != nil {
			t.Fatalf("quantum completed early")
		}
	}
	res := d.Flush()
	if res == nil || res.Quantum != 1 {
		t.Fatalf("Flush did not process partial quantum")
	}
	if d.Flush() != nil {
		t.Fatalf("second Flush should be nil")
	}
}

func TestEventEvolution(t *testing.T) {
	d := New(testConfig(6))
	// Quantum 1: 4-keyword event.
	q1 := burstMessages(0, 6, "earthquake struck eastern turkey")
	// Quantum 2: same users adopt "5.9" alongside old keywords.
	q2 := burstMessages(0, 6, "earthquake turkey 5.9")
	runAll(t, d, append(q1, q2...))
	evs := d.AllEvents()
	if len(evs) != 1 {
		t.Fatalf("want one tracked event, got %d", len(evs))
	}
	ev := evs[0]
	if !ev.Evolved {
		t.Fatalf("event did not evolve")
	}
	found := false
	for _, kw := range ev.Keywords {
		if kw == "5.9" {
			found = true
		}
	}
	if !found {
		t.Fatalf("5.9 did not join the cluster: %v", ev.Keywords)
	}
	if _, ok := ev.AllKeywords["eastern"]; !ok {
		t.Fatalf("historical keyword lost from AllKeywords")
	}
	if len(ev.RankHistory) != 2 {
		t.Fatalf("rank history = %v", ev.RankHistory)
	}
}

func TestEventDeathAfterWindow(t *testing.T) {
	cfg := testConfig(6)
	cfg.AKG.Window = 2
	d := New(cfg)
	msgs := burstMessages(0, 6, "earthquake struck turkey")
	// Then three quanta of unrelated chatter from other users.
	for q := 0; q < 3; q++ {
		msgs = append(msgs, burstMessages(100+10*q, 6, fmt.Sprintf("weather sunny nice%d", q))...)
	}
	runAll(t, d, msgs)
	var quake *Event
	for _, ev := range d.AllEvents() {
		for _, kw := range ev.Keywords {
			if kw == "earthquake" {
				quake = ev
			}
		}
	}
	if quake == nil {
		t.Fatalf("earthquake event never tracked")
	}
	if quake.State != EventEnded {
		t.Fatalf("event state = %v, want ended", quake.State)
	}
	if len(d.LiveEvents()) != 0 {
		// the weather cluster may be live; ensure earthquake is not
		for _, ev := range d.LiveEvents() {
			if ev.ID == quake.ID {
				t.Fatalf("dead event still live")
			}
		}
	}
}

func TestNounFilterSuppressesVerbOnlyClusters(t *testing.T) {
	cfg := testConfig(6)
	d := New(cfg)
	// All words are in the verb/adjective lexicon → filtered.
	res := runAll(t, d, burstMessages(0, 6, "struck massive huge"))
	for _, r := range res {
		if len(r.Reports) != 0 {
			t.Fatalf("verb-only cluster reported: %+v", r.Reports)
		}
	}
	// Same shape with a noun: reported.
	d2 := New(cfg)
	res2 := runAll(t, d2, burstMessages(0, 6, "struck massive earthquake"))
	if len(res2[len(res2)-1].Reports) == 0 {
		t.Fatalf("noun-bearing cluster suppressed")
	}
	// Disabling the filter reports both.
	cfg.DisableNounFilter = true
	d3 := New(cfg)
	res3 := runAll(t, d3, burstMessages(0, 6, "struck massive huge"))
	if len(res3[len(res3)-1].Reports) == 0 {
		t.Fatalf("filter not disabled")
	}
}

func TestRankThresholdFilter(t *testing.T) {
	cfg := testConfig(6)
	cfg.SpuriousFactor = 1e9 // absurd cutoff: nothing reportable
	d := New(cfg)
	res := runAll(t, d, burstMessages(0, 6, "earthquake struck turkey"))
	for _, r := range res {
		if len(r.Reports) != 0 {
			t.Fatalf("rank filter did not suppress: %+v", r.Reports)
		}
	}
	// The event is still tracked internally.
	if len(d.AllEvents()) != 1 {
		t.Fatalf("event not tracked despite filter")
	}
	if d.AllEvents()[0].Reported {
		t.Fatalf("event marked reported despite filter")
	}
}

func TestMergeTracking(t *testing.T) {
	cfg := testConfig(5)
	d := New(cfg)
	var msgs []stream.Message
	// Quantum 1: two disjoint events from disjoint user communities.
	for i := 0; i < 5; i++ {
		user := uint64(i)
		text := "fire downtown harbor"
		if i >= 3 {
			user = uint64(100 + i)
			text = "storm coast warning"
		}
		msgs = append(msgs, stream.Message{ID: uint64(len(msgs) + 1), User: user, Time: int64(len(msgs)), Text: text})
	}
	// Give both events their own full quantum to form clusters.
	msgs = append(msgs, burstMessages(0, 5, "fire downtown harbor")...)
	msgs = append(msgs, burstMessages(100, 5, "storm coast warning")...)
	// Then a quantum where the same users use both vocabularies: merge.
	msgs = append(msgs, burstMessages(0, 5, "fire storm downtown coast harbor warning")...)
	runAll(t, d, msgs)
	merged := 0
	for _, ev := range d.AllEvents() {
		if ev.State == EventMerged {
			merged++
		}
	}
	if merged == 0 {
		t.Fatalf("no merge tracked; events: %d", len(d.AllEvents()))
	}
}

func TestCKGTracking(t *testing.T) {
	d := New(testConfig(6))
	full := ckg.New(d.AKG().Config().Window)
	d.SetOnResolved(full.AddQuantum)
	res := runAll(t, d, burstMessages(0, 6, "earthquake struck turkey"))
	last := res[len(res)-1]
	if full.NodeCount() == 0 || full.EdgeCount() == 0 {
		t.Fatalf("CKG not tracked: %d nodes, %d edges", full.NodeCount(), full.EdgeCount())
	}
	if last.AKGNodes > full.NodeCount() {
		t.Fatalf("AKG larger than CKG")
	}
}

func TestEventStateString(t *testing.T) {
	if EventLive.String() != "live" || EventMerged.String() != "merged" || EventEnded.String() != "ended" {
		t.Fatalf("state strings wrong")
	}
	if EventState(42).String() == "" {
		t.Fatalf("unknown state should format")
	}
}

func TestEmptyMessagesHarmless(t *testing.T) {
	d := New(testConfig(3))
	msgs := []stream.Message{
		{ID: 1, User: 1, Text: ""},
		{ID: 2, User: 2, Text: "   !!! "},
		{ID: 3, User: 3, Text: "the and of"},
	}
	for _, m := range msgs {
		d.Ingest(m)
	}
	if d.Processed() != 3 {
		t.Fatalf("Processed = %d", d.Processed())
	}
	if got := d.AKG().NodeCount(); got != 0 {
		t.Fatalf("empty chatter created %d AKG nodes", got)
	}
}

func runAll(t *testing.T, d *Detector, msgs []stream.Message) []*QuantumResult {
	t.Helper()
	var out []*QuantumResult
	err := d.Run(stream.NewSliceSource(msgs), func(r *QuantumResult) {
		out = append(out, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// timeMessages builds n burst messages with explicit timestamps.
func timeMessages(startUser int, n int, t0 int64, gap int64, text string) []stream.Message {
	out := make([]stream.Message, n)
	for i := range out {
		out[i] = stream.Message{
			ID:   uint64(startUser + i + 1),
			User: uint64(startUser + i),
			Time: t0 + int64(i)*gap,
			Text: text,
		}
	}
	return out
}

func TestTimeBasedQuanta(t *testing.T) {
	cfg := Config{
		QuantumTime: 100,
		AKG:         akg.Config{Tau: 3, Beta: 0.2, Window: 3},
	}
	d := New(cfg)
	// Six users tweet within [0,100): one quantum.
	msgs := timeMessages(0, 6, 0, 10, "earthquake struck turkey")
	// A later message at t=120 closes the quantum.
	msgs = append(msgs, stream.Message{ID: 99, User: 99, Time: 120, Text: "unrelated chatter"})
	var results []*QuantumResult
	for _, m := range msgs {
		results = append(results, d.IngestAll(m)...)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 completed quantum, got %d", len(results))
	}
	if len(results[0].Reports) != 1 {
		t.Fatalf("time-based quantum missed the event: %+v", results[0])
	}
}

// TestTimeQuantaGapExpiresEvents: silence in the stream must still slide
// the window and expire events — the property message-count quanta cannot
// provide.
func TestTimeQuantaGapExpiresEvents(t *testing.T) {
	cfg := Config{
		QuantumTime: 100,
		AKG:         akg.Config{Tau: 3, Beta: 0.2, Window: 2},
	}
	d := New(cfg)
	for _, m := range timeMessages(0, 6, 0, 10, "earthquake struck turkey") {
		d.IngestAll(m)
	}
	// One lone message far in the future: the gap spans many quanta, the
	// event's id sets expire on the way.
	res := d.IngestAll(stream.Message{ID: 50, User: 50, Time: 1000, Text: "hello world"})
	if len(res) < 3 {
		t.Fatalf("gap produced only %d quanta", len(res))
	}
	for _, ev := range d.AllEvents() {
		if ev.State == EventLive {
			t.Fatalf("event survived a %d-quantum silence: %+v", len(res), ev)
		}
	}
}

func TestTimeQuantaCheckpointResume(t *testing.T) {
	cfg := Config{QuantumTime: 50, AKG: akg.Config{Tau: 2, Beta: 0.2, Window: 4}}
	d := New(cfg)
	msgs := timeMessages(0, 20, 0, 9, "storm coast warning")
	for _, m := range msgs[:11] {
		d.IngestAll(m)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(cfg)
	for _, m := range msgs {
		ref.IngestAll(m)
	}
	for _, m := range msgs[11:] {
		d2.IngestAll(m)
	}
	if eventsDigest(d2) != eventsDigest(ref) {
		t.Fatalf("time-quantum checkpoint resume diverged:\n%s\nvs\n%s",
			eventsDigest(d2), eventsDigest(ref))
	}
}

func TestQuantumElapsedRecorded(t *testing.T) {
	d := New(testConfig(4))
	var res *QuantumResult
	for _, m := range burstMessages(0, 4, "earthquake struck turkey") {
		if r := d.Ingest(m); r != nil {
			res = r
		}
	}
	if res == nil || res.Elapsed <= 0 {
		t.Fatalf("Elapsed not recorded: %+v", res)
	}
}
