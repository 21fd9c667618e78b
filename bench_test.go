// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7) plus ablations of the design choices called out in
// DESIGN.md. Quality metrics (recall, precision, sizes) are attached to
// the benchmark output via b.ReportMetric, so one `go test -bench=.
// -benchmem` run reports both the performance and the fidelity side of the
// reproduction. Traces are kept small enough for iteration; cmd/experiments
// runs the full-size versions.
package repro_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro"
	"repro/internal/akg"
	"repro/internal/baseline"
	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dygraph"
	"repro/internal/eval"
	"repro/internal/minhash"
	"repro/internal/stream"
	"repro/internal/textproc"
	"repro/internal/tracegen"
)

const benchTraceLen = 24000

// cache generated traces across benchmark iterations.
var traceCache = map[string]struct {
	msgs []stream.Message
	gt   tracegen.GroundTruth
}{}

func cachedTrace(profile string, n int) ([]stream.Message, *tracegen.GroundTruth) {
	key := fmt.Sprintf("%s-%d", profile, n)
	if c, ok := traceCache[key]; ok {
		return c.msgs, &c.gt
	}
	var cfg tracegen.Config
	switch profile {
	case "es":
		cfg = tracegen.ESConfig(42, n)
	case "gt":
		cfg = tracegen.GroundTruthConfig(42, n)
	case "dense": // the spine's ingest-dense shape: 10× the events and discussions
		cfg = tracegen.TWConfig(42, n)
		cfg.RealEvents *= 10
		cfg.SpuriousEvents *= 10
		cfg.Discussions *= 10
	default:
		cfg = tracegen.TWConfig(42, n)
	}
	msgs, gt := tracegen.Generate(cfg)
	traceCache[key] = struct {
		msgs []stream.Message
		gt   tracegen.GroundTruth
	}{msgs, gt}
	c := traceCache[key]
	return c.msgs, &c.gt
}

func runEval(b *testing.B, cfg detect.Config, profile string) eval.Result {
	b.Helper()
	msgs, gt := cachedTrace(profile, benchTraceLen)
	res, _, err := eval.Run(cfg, msgs, gt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---- Table 1 / Section 7.1: ground-truth study ----

func BenchmarkTable1GroundTruth(b *testing.B) {
	var last eval.Result
	for i := 0; i < b.N; i++ {
		last = runEval(b, detect.Config{}, "gt")
	}
	b.ReportMetric(last.Recall, "recall")
	b.ReportMetric(last.Precision, "precision")
	b.ReportMetric(last.MeanLatency, "latency_quanta")
}

// ---- Figures 7–10: recall/precision sweeps ----

func sweepBench(b *testing.B, profile, metric string) {
	for _, delta := range []int{80, 160, 240} {
		for _, beta := range []float64{0.10, 0.20, 0.25} {
			b.Run(fmt.Sprintf("delta=%d/beta=%.2f", delta, beta), func(b *testing.B) {
				var last eval.Result
				for i := 0; i < b.N; i++ {
					last = runEval(b, detect.Config{
						Delta: delta,
						AKG:   akg.Config{Beta: beta},
					}, profile)
				}
				if metric == "recall" {
					b.ReportMetric(last.Recall, "recall")
				} else {
					b.ReportMetric(last.Precision, "precision")
				}
			})
		}
	}
}

func BenchmarkFig7RecallTW(b *testing.B)     { sweepBench(b, "tw", "recall") }
func BenchmarkFig8RecallES(b *testing.B)     { sweepBench(b, "es", "recall") }
func BenchmarkFig9PrecisionTW(b *testing.B)  { sweepBench(b, "tw", "precision") }
func BenchmarkFig10PrecisionES(b *testing.B) { sweepBench(b, "es", "precision") }

// ---- Section 7.2.4: event quality ----

func BenchmarkQualityMetrics(b *testing.B) {
	var last eval.Result
	for i := 0; i < b.N; i++ {
		last = runEval(b, detect.Config{}, "es")
	}
	b.ReportMetric(last.AvgClusterSize, "avg_cluster_size")
	b.ReportMetric(last.AvgRank, "avg_rank")
}

// ---- Table 3 / Section 7.3: SCP vs offline biconnected clustering ----

// BenchmarkTable3Schemes times the offline BC recompute performed after
// every quantum on the same AKG the SCP engine maintains incrementally,
// and reports how many clusters each side produced.
func BenchmarkTable3Schemes(b *testing.B) {
	msgs, _ := cachedTrace("gt", benchTraceLen)
	var scpClusters, bcClusters int
	for i := 0; i < b.N; i++ {
		scpClusters, bcClusters = 0, 0
		d := detect.New(detect.Config{})
		err := d.Run(stream.NewSliceSource(msgs), func(res *detect.QuantumResult) {
			scpClusters += d.AKG().Engine().ClusterCount()
			for _, c := range baseline.BiconnectedComponents(d.AKG().Engine().Graph()) {
				if len(c.Nodes) >= 3 {
					bcClusters++
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(scpClusters), "scp_cluster_instances")
	b.ReportMetric(float64(bcClusters), "bc_cluster_instances")
}

// ---- Table 4 / Section 7.4: message processing rate ----

func throughputBench(b *testing.B, profile string, delta int) {
	msgs, _ := cachedTrace(profile, benchTraceLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := detect.New(detect.Config{Delta: delta})
		if err := d.Run(stream.NewSliceSource(msgs), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	msgsPerSec := float64(len(msgs)) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(msgsPerSec, "msgs/sec")
}

func BenchmarkTable4ThroughputTW(b *testing.B) {
	for _, delta := range []int{120, 160, 200} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			throughputBench(b, "tw", delta)
		})
	}
}

func BenchmarkTable4ThroughputES(b *testing.B) {
	for _, delta := range []int{120, 160, 200} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			throughputBench(b, "es", delta)
		})
	}
}

// spineTrace is one ingest-tw tenant's trace shape (bench/spec.go: the
// TW profile, 662,400 messages, tenant seeds from 1001), generated once
// per process.
var spineTrace = sync.OnceValue(func() []stream.Message {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(1001, 662400))
	return msgs
})

// BenchmarkDetectorSpineTW replays a whole spine-size TW trace through a
// bare detector at Δ = 160, one op being one replay. Its vocabulary and
// user population are about twenty times those of the benchTraceLen
// traces, so the window's records, id sets and the symbol table outgrow
// the L2 cache as they do on the server, and memory latency shows.
func BenchmarkDetectorSpineTW(b *testing.B) {
	msgs := spineTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := detect.New(detect.Config{Delta: detect.DefaultDelta})
		if err := d.Run(stream.NewSliceSource(msgs), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(msgs)), "ns/msg")
}

// shortEventTrace is a spine-size trace of the benchmark's query-archive
// shape (bench/spec.go's shortEvents: many short, small events over the
// TW background), tenant seed 1001.
var shortEventTrace = sync.OnceValue(func() []stream.Message {
	const n = 390400
	c := tracegen.TWConfig(1001, n)
	c.RealEvents = n / 100
	c.EventMessagesMin, c.EventMessagesMax = 50, 100
	c.EventSpanMin, c.EventSpanMax = 320, 640
	c.EventUsersMin, c.EventUsersMax = 30, 60
	c.PoolMin, c.PoolMax = 6, 8
	msgs, _ := tracegen.Generate(c)
	return msgs
})

// checkpointBenchDetector is the detector BenchmarkDetectorSave and
// BenchmarkDetectorLoad checkpoint: one that has run the whole
// short-event trace with the benchmark's settings (Δ 160, τ 4, β 0.2,
// w 30, 64 finished events retained). The replay that builds it is
// set-up and is not timed.
func checkpointBenchDetector(b *testing.B) *detect.Detector {
	d := detect.New(detect.Config{Delta: 160, AKG: akg.Config{Tau: 4, Beta: 0.2, Window: 30}})
	d.SetRetain(64)
	if err := d.Run(stream.NewSliceSource(shortEventTrace()), nil); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkDetectorSave times one Detector.Save — the checkpoint every
// WAL snapshot writes — of checkpointBenchDetector, and reports the
// bytes it writes.
func BenchmarkDetectorSave(b *testing.B) {
	d := checkpointBenchDetector(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := d.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "B/save")
}

// BenchmarkDetectorLoad times one detect.Load — a tenant's restore from
// its snapshot, before the WAL tail replays — of the checkpoint
// BenchmarkDetectorSave writes.
func BenchmarkDetectorLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := checkpointBenchDetector(b).Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := detect.Load(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw)), "B/load")
}

// ---- Section 7.4: AKG reduction ----

func BenchmarkAKGReduction(b *testing.B) {
	msgs, _ := cachedTrace("tw", benchTraceLen)
	var akgEdges, ckgEdges float64
	for i := 0; i < b.N; i++ {
		akgEdges, ckgEdges = 0, 0
		d := detect.New(detect.Config{})
		full := ckg.New(d.AKG().Config().Window)
		d.SetOnResolved(full.AddQuantum)
		err := d.Run(stream.NewSliceSource(msgs), func(res *detect.QuantumResult) {
			akgEdges += float64(res.AKGEdges)
			ckgEdges += float64(full.EdgeCount())
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if ckgEdges > 0 {
		b.ReportMetric(100*akgEdges/ckgEdges, "akg_edges_pct_of_ckg")
	}
}

// BenchmarkAKGWindow times the AKG layer alone — window slide, id-set
// upkeep, correlation refresh, Min-Hash screen, engine maintenance — one
// op being a fresh layer fed the whole cached TW trace quantum by quantum.
func BenchmarkAKGWindow(b *testing.B) {
	msgs, _ := cachedTrace("tw", benchTraceLen)
	in := textproc.NewInterner()
	var tk textproc.Tokenizer
	var quanta [][]ckg.UserKeywords
	for lo := 0; lo+detect.DefaultDelta <= len(msgs); lo += detect.DefaultDelta {
		byUser := map[uint64][]dygraph.NodeID{}
		for _, m := range msgs[lo : lo+detect.DefaultDelta] {
			for _, tok := range tk.Tokenize(m.Text) {
				byUser[m.User] = append(byUser[m.User], in.InternBytes(tok.Text))
			}
		}
		batch := make([]ckg.UserKeywords, 0, len(byUser))
		for u, ks := range byUser {
			slices.Sort(ks)
			batch = append(batch, ckg.UserKeywords{User: u, Keywords: slices.Compact(ks)})
		}
		slices.SortFunc(batch, func(x, y ckg.UserKeywords) int { return cmp.Compare(x.User, y.User) })
		quanta = append(quanta, batch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := akg.New(akg.Config{}, core.Hooks{})
		for _, batch := range quanta {
			a.ProcessQuantum(batch)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(quanta)*detect.DefaultDelta), "ns/msg")
}

// ---- Ablations ----

// BenchmarkAblationMinHash compares the Min-Hash candidate screen against
// exact all-pairs Jaccard and against the sketch-only decision rule.
func BenchmarkAblationMinHash(b *testing.B) {
	msgs, gt := cachedTrace("tw", benchTraceLen)
	for _, mode := range []struct {
		name string
		cfg  akg.Config
	}{
		{"screen+exact", akg.Config{}},
		{"exact-only", akg.Config{NoMinHashScreen: true}},
		{"sketch-only", akg.Config{MinHashOnly: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last eval.Result
			for i := 0; i < b.N; i++ {
				res, _, err := eval.Run(detect.Config{AKG: mode.cfg}, msgs, gt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Recall, "recall")
		})
	}
}

// BenchmarkAblationIncrementalVsCanonical isolates the paper's central
// performance claim: maintaining SCP clusters incrementally vs
// recomputing the canonical clustering from scratch after every batch of
// graph updates (what a snapshot-based technique such as [2] must do).
func BenchmarkAblationIncrementalVsCanonical(b *testing.B) {
	const nodes, ops = 300, 4000
	type op struct {
		add  bool
		a, b dygraph.NodeID
	}
	rng := rand.New(rand.NewSource(9))
	script := make([]op, ops)
	for i := range script {
		script[i] = op{
			add: rng.Float64() < 0.7,
			a:   dygraph.NodeID(rng.Intn(nodes)),
			b:   dygraph.NodeID(rng.Intn(nodes)),
		}
	}
	const batch = 50 // quantum-sized update batches

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			en := core.NewEngine(core.Hooks{})
			for j, o := range script {
				if o.add {
					en.AddEdge(o.a, o.b, 1)
				} else {
					en.RemoveEdge(o.a, o.b)
				}
				_ = j
			}
		}
	})
	b.Run("canonical-per-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := dygraph.New()
			for j, o := range script {
				if o.add {
					g.AddEdge(o.a, o.b, 1)
				} else {
					g.RemoveEdge(o.a, o.b)
				}
				if j%batch == batch-1 {
					core.Canonical(g) // global recompute each "quantum"
				}
			}
		}
	})
}

// BenchmarkAblationAKG compares clustering on the reduced AKG (burstiness
// gate on) against admitting every keyword (τ=1), the "no AKG reduction"
// arm: the same stream, orders of magnitude more graph work.
func BenchmarkAblationAKG(b *testing.B) {
	msgs, gt := cachedTrace("tw", benchTraceLen/2)
	for _, mode := range []struct {
		name string
		tau  int
	}{
		{"akg-tau4", 4},
		{"full-tau1", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last eval.Result
			for i := 0; i < b.N; i++ {
				res, _, err := eval.Run(detect.Config{
					AKG: akg.Config{Tau: mode.tau},
				}, msgs, gt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Recall, "recall")
			b.ReportMetric(float64(last.ReportedEvents), "reported_events")
		})
	}
}

// BenchmarkAblationSketchSize sweeps the Min-Hash sketch size p.
func BenchmarkAblationSketchSize(b *testing.B) {
	msgs, gt := cachedTrace("tw", benchTraceLen)
	for _, p := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var last eval.Result
			for i := 0; i < b.N; i++ {
				res, _, err := eval.Run(detect.Config{
					AKG: akg.Config{P: p},
				}, msgs, gt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Recall, "recall")
		})
	}
}

// ---- Micro-benchmarks of the core data structures ----

func BenchmarkEngineAddEdge(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pairs := make([][2]dygraph.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]dygraph.NodeID{
			dygraph.NodeID(rng.Intn(500)),
			dygraph.NodeID(rng.Intn(500)),
		}
	}
	b.ResetTimer()
	en := core.NewEngine(core.Hooks{})
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		en.AddEdge(p[0], p[1], 1)
	}
}

// BenchmarkEngineChurn measures sustained add/remove mixes at the steady
// state of a random-pair workload. A random-pair churn equilibrates at
// edge density p_add/(p_add+p_remove), so the mix is tuned to ~12% —
// average degree ≈ 7, matching the sparse AKGs the detector actually
// builds (Section 7.4 reports average degree < 6).
func BenchmarkEngineChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	en := core.NewEngine(core.Hooks{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := dygraph.NodeID(rng.Intn(64))
		c := dygraph.NodeID(rng.Intn(64))
		if rng.Float64() < 0.12 {
			en.AddEdge(a, c, 1)
		} else {
			en.RemoveEdge(a, c)
		}
	}
}

func BenchmarkCanonicalRecompute(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := dygraph.New()
	for i := 0; i < 2000; i++ {
		g.AddEdge(dygraph.NodeID(rng.Intn(300)), dygraph.NodeID(rng.Intn(300)), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Canonical(g)
	}
}

func BenchmarkBiconnectedComponents(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := dygraph.New()
	for i := 0; i < 2000; i++ {
		g.AddEdge(dygraph.NodeID(rng.Intn(300)), dygraph.NodeID(rng.Intn(300)), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.BiconnectedComponents(g)
	}
}

func BenchmarkMinHashAdd(b *testing.B) {
	s := minhash.New(8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(uint64(i))
	}
}

func BenchmarkMinHashSharesValue(b *testing.B) {
	s1 := minhash.New(8, 1)
	s2 := minhash.New(8, 1)
	for i := uint64(0); i < 1000; i++ {
		s1.Add(i)
		s2.Add(i + 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		minhash.SharesValue(s1, s2)
	}
}

func BenchmarkTokenize(b *testing.B) {
	msg := "Breaking: massive 5.9 earthquake struck eastern Turkey, #earthquake reports say https://example.com @newsdesk"
	var tk textproc.Tokenizer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Tokenize(msg)
	}
}

func BenchmarkDetectorIngest(b *testing.B)      { detectorIngestBench(b, "tw") }
func BenchmarkDetectorIngestDense(b *testing.B) { detectorIngestBench(b, "dense") }

func detectorIngestBench(b *testing.B, profile string) {
	msgs, _ := cachedTrace(profile, benchTraceLen)
	d := repro.NewDetector(repro.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Ingest(msgs[i%len(msgs)])
	}
	b.StopTimer()
	b.ReportMetric(float64(d.AKG().NodeCount()), "akg_nodes")
}
