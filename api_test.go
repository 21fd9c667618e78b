// Tests of the public facade: everything a downstream user touches must
// work through the root package alone.
package repro_test

import (
	"bytes"

	"testing"

	"repro"
)

func TestPublicDetectorFlow(t *testing.T) {
	d := repro.NewDetector(repro.Config{
		Delta: 6,
		AKG:   repro.GraphConfig{Tau: 3, Beta: 0.2, Window: 4},
	})
	var msgs []repro.Message
	for i := 0; i < 6; i++ {
		msgs = append(msgs, repro.Message{
			ID: uint64(i + 1), User: uint64(i + 1), Time: int64(i),
			Text: "earthquake struck eastern turkey",
		})
	}
	var reports []repro.Report
	err := d.Run(repro.NewSliceSource(msgs), func(r *repro.QuantumResult) {
		reports = append(reports, r.Reports...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("want 1 report, got %d", len(reports))
	}
	if len(reports[0].Keywords) != 4 {
		t.Fatalf("keywords = %v", reports[0].Keywords)
	}
	live := d.LiveEvents()
	if len(live) != 1 || live[0].State != repro.EventLive {
		t.Fatalf("live events wrong: %+v", live)
	}
}

func TestPublicEngineFlow(t *testing.T) {
	formed := 0
	en := repro.NewEngine(repro.Hooks{
		OnFormed: func(c *repro.Cluster) { formed++ },
	})
	en.AddEdge(1, 2, 1)
	en.AddEdge(2, 3, 1)
	c := en.AddEdge(3, 1, 1)
	if c == nil || formed != 1 {
		t.Fatalf("triangle not discovered via public API")
	}
	if got := repro.CanonicalClusters(en.Graph()); len(got) != 1 {
		t.Fatalf("canonical clusters = %d", len(got))
	}
	if e := repro.NewEdge(3, 1); e.U != 1 || e.V != 3 {
		t.Fatalf("NewEdge not canonical")
	}
	g := repro.NewGraph()
	g.AddEdge(7, 8, 0.5)
	if g.EdgeCount() != 1 {
		t.Fatalf("public graph broken")
	}
}

func TestPublicTraceAndEvaluate(t *testing.T) {
	msgs, gt := repro.TWTrace(3, 30000)
	if len(msgs) != 30000 || len(gt.Events) == 0 {
		t.Fatalf("TWTrace wrong: %d msgs %d events", len(msgs), len(gt.Events))
	}
	res, d, err := repro.Evaluate(repro.Config{}, msgs, &gt)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || res.RealTotal == 0 {
		t.Fatalf("Evaluate returned empty result")
	}
	if res.Recall < 0.5 {
		t.Fatalf("public pipeline recall suspiciously low: %v", res.Recall)
	}

	es, esGT := repro.ESTrace(3, 30000)
	if len(es) != 30000 || len(esGT.Events) <= len(gt.Events) {
		t.Fatalf("ES trace should be denser: %d vs %d events",
			len(esGT.Events), len(gt.Events))
	}

	custom, customGT := repro.GenerateTrace(repro.TraceConfig{
		Seed: 1, TotalMessages: 5000,
	})
	if len(custom) != 5000 || customGT.Events == nil && len(customGT.Events) != 0 {
		t.Fatalf("GenerateTrace with custom config failed")
	}
}

func TestPublicCheckpoint(t *testing.T) {
	msgs, _ := repro.TWTrace(9, 12000)
	d := repro.NewDetector(repro.Config{})
	for _, m := range msgs[:6000] {
		d.Ingest(m)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := repro.LoadDetector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[6000:] {
		d2.Ingest(m)
	}
	if d2.Processed() != uint64(len(msgs)) {
		t.Fatalf("Processed = %d", d2.Processed())
	}
	_ = d2.TopK(3)
	_ = d2.RelatedEvents(0.9)
	_ = d2.SpuriousEvents()
}
