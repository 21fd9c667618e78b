package main

import (
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tracegen"
)

// The full workloads run only through `bench run`; these tests cover the
// harness's own arithmetic and parsers and finish in well under a second.

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	// A percentile is reported only with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.50}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {999, 0.90}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; want 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestBestQuarter(t *testing.T) {
	vs := []float64{5, 1, 8, 2, 7, 3, 6, 4}
	if hi, lo := bestQuarter(vs, true), bestQuarter(vs, false); hi != 7.5 || lo != 1.5 {
		t.Errorf("bestQuarter(1..8) = %v high, %v low; want 7.5, 1.5", hi, lo)
	}
	// A quarter rounds up: with five values it is the best two.
	if got := bestQuarter([]float64{10, 20, 30, 40, 50}, true); got != 45 {
		t.Errorf("bestQuarter of five = %v, want 45", got)
	}
	if got := bestQuarter(nil, true); got != 0 {
		t.Errorf("bestQuarter of nothing = %v, want 0", got)
	}
	// A slowdown of half the slices leaves the best quarter where it was.
	quiet := []float64{100, 101, 99, 100, 102, 98, 100, 100}
	noisy := []float64{100, 51, 99, 50, 102, 49, 100, 50}
	if q, n := bestQuarter(quiet, true), bestQuarter(noisy, true); math.Abs(q-n) > 1 {
		t.Errorf("best quarter moved from %v to %v under one-sided noise", q, n)
	}
}

func TestChunkRates(t *testing.T) {
	// Two goroutines, two chunks: work adds up, wall time runs from the
	// first start to the last end.
	per := [][]chunk{
		{{start: 0, end: 1e9, work: 100}, {start: 2e9, end: 4e9, work: 100}},
		{{start: 1e8, end: 9e8, work: 300}, {start: 2e9, end: 3e9, work: 300}},
	}
	if got := chunkRates(per); !slices.Equal(got, []float64{400, 200}) {
		t.Errorf("chunkRates = %v, want [400 200]", got)
	}
	if got := chunkMean(per); math.Abs(got-800.0/3) > 1e-9 {
		t.Errorf("chunkMean = %v, want 266.67", got)
	}
	if got := queryWall(per); got != 4*time.Second {
		t.Errorf("queryWall = %v, want 4s", got)
	}
	// A host half as fast takes twice the reference time per spin.
	if got := hostSpeed([]time.Duration{2 * spinRef, 2 * spinRef, 3 * spinRef, 4 * spinRef}); got != 0.5 {
		t.Errorf("hostSpeed = %v, want 0.5", got)
	}
}

func TestPacerKeepsGoroutinesInStep(t *testing.T) {
	// Every goroutine passes pause k before any starts chunk k; marks come
	// in pairs from the one goroutine that was given the callback.
	const n, rounds = 3, 4
	pc := newPacer(n)
	var marks atomic.Int32
	var mu sync.Mutex
	started := make([]int, rounds)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mark func()
			if g == 0 {
				mark = func() { marks.Add(1) }
			}
			for k := 0; k < rounds; k++ {
				if err := pc.sync(); err != nil {
					t.Error(err)
					return
				}
				if mark != nil {
					mark()
					mark()
				}
				mu.Lock()
				started[k]++
				for _, later := range started[k+1:] {
					if later != 0 {
						t.Errorf("a goroutine ran ahead of round %d", k)
					}
				}
				mu.Unlock()
				if err := pc.sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if marks.Load() != 2*rounds {
		t.Errorf("%d marks, want %d", marks.Load(), 2*rounds)
	}
	// abort releases a goroutine that would otherwise wait forever.
	pc = newPacer(2)
	done := make(chan error, 1)
	go func() { done <- pc.sync() }()
	pc.abort()
	if err := <-done; err != errPhaseAborted {
		t.Errorf("sync after abort = %v, want errPhaseAborted", err)
	}
}

func TestCompletedQuantaPairing(t *testing.T) {
	// B < Δ: some POSTs complete no quantum; the quantum belongs to the
	// POST that carries its last message.
	type span struct{ first, last int }
	var got []span
	for at := 0; at < 500; at += 100 {
		f, l := completedQuanta(at, 100, 160)
		got = append(got, span{f, l})
	}
	want := []span{{1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 3}}
	if !slices.Equal(got, want) {
		t.Errorf("B=100, Δ=160: %v, want %v", got, want)
	}
	// B > Δ and not a multiple: 400 messages complete quanta 1–2, the next
	// 400 complete 3–5.
	if f, l := completedQuanta(0, 400, 160); f != 1 || l != 2 {
		t.Errorf("first 400 of Δ=160: quanta %d..%d, want 1..2", f, l)
	}
	if f, l := completedQuanta(400, 400, 160); f != 3 || l != 5 {
		t.Errorf("second 400 of Δ=160: quanta %d..%d, want 3..5", f, l)
	}
}

func tinyWorkload() workload {
	return workload{name: "tiny", trace: tracegen.TWConfig, tenants: 2, latPosts: 3, satPosts: 1, queries: 40}
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	a, b, c := buildPlan(tinyWorkload(), 7), buildPlan(tinyWorkload(), 7), buildPlan(tinyWorkload(), 8)
	if a.sha != b.sha {
		t.Errorf("same seed, different plan: %s vs %s", a.sha, b.sha)
	}
	if a.sha == c.sha {
		t.Errorf("different seeds, same plan %s", a.sha)
	}
	tp := a.tenants[0]
	if got, want := len(tp.msgs), (warmQuanta+3+satFactor)*delta; got != want {
		t.Errorf("tenant has %d messages, want %d", got, want)
	}
	// Posts tile the stream: quanta run on from one phase to the next.
	if tp.warm[0].firstQ != 1 || tp.lat[0].firstQ != warmQuanta+1 || tp.sat[0].lastQ != tp.quanta() {
		t.Errorf("phases do not tile: warm from %d, lat from %d, sat to %d of %d",
			tp.warm[0].firstQ, tp.lat[0].firstQ, tp.sat[0].lastQ, tp.quanta())
	}
	// Class shares are exact in every block of the list.
	for block := 0; block < len(a.queries); block += queryBlock {
		n := map[string]int{}
		for _, q := range a.queries[block : block+queryBlock] {
			n[q.class]++
		}
		if n["limit10"] != 8 || n["events-topk"] != 4 || n["time-range"] != 3 || n["keyword"] != 3 || n["fullscan"] != 2 {
			t.Errorf("block at %d: class counts %v", block, n)
		}
	}
	if len(a.queries) != 40 {
		t.Errorf("%d queries planned, want 40", len(a.queries))
	}
}

func TestBodyIsValidJSONArray(t *testing.T) {
	if got := string(appendJSONString(nil, "a\"b\\c\n")); got != `"a\"b\\c\u000a"` {
		t.Errorf("appendJSONString = %s", got)
	}
	p := buildPlan(tinyWorkload(), 1)
	body := string(p.tenants[0].lat[0].body)
	if !strings.HasPrefix(body, `[{"id":`) || !strings.HasSuffix(body, `"}]`) || strings.Count(body, `"text":`) != delta {
		t.Errorf("unexpected body shape: %.80s…", body)
	}
}

func TestSSEQuantum(t *testing.T) {
	q, ok := sseQuantum([]byte(`data: {"tenant":"t0","quantum":1234,"reports":[]}`))
	if !ok || q != 1234 {
		t.Errorf("sseQuantum = %d, %v", q, ok)
	}
	for _, line := range []string{"event: quantum", ": stream t0", "", `data: {"tenant":"t0"}`} {
		if _, ok := sseQuantum([]byte(line)); ok {
			t.Errorf("sseQuantum(%q) reported a quantum", line)
		}
	}
}

func TestParseProm(t *testing.T) {
	const text = `# HELP eventdetect_live_events Currently live detected events.
# TYPE eventdetect_live_events gauge
eventdetect_live_events{tenant="t0"} 3
eventdetect_live_events{tenant="t\"1,x"} 4
eventdetect_stage_duration_seconds_bucket{tenant="t0",stage="reconcile",le="+Inf"} 7
eventdetect_stage_duration_seconds_sum{tenant="t0",stage="reconcile"} 0.25
eventdetect_stage_duration_seconds_sum{tenant="t1",stage="reconcile"} 0.5
eventdetect_stage_duration_seconds_sum{tenant="t1",stage="tokenize"} 9
eventdetect_stage_duration_seconds_count{tenant="t0",stage="reconcile"} 7
go_gc_cycles_total 12
`
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("eventdetect_live_events"); got != 7 {
		t.Errorf("live events across tenants = %v, want 7", got)
	}
	if got := s.sum("eventdetect_live_events", "tenant", `t"1,x`); got != 4 {
		t.Errorf("escaped label lookup = %v, want 4", got)
	}
	if got := s.stageSeconds("reconcile"); got != 0.75 {
		t.Errorf("reconcile seconds = %v, want 0.75", got)
	}
	if got := s.stageCount("reconcile"); got != 7 {
		t.Errorf("reconcile count = %v, want 7", got)
	}
	if got := s.sum("go_gc_cycles_total"); got != 12 {
		t.Errorf("unlabelled series = %v, want 12", got)
	}
	if _, err := parseProm(strings.NewReader(`x{a="b} 1`)); err == nil {
		t.Error("unterminated label accepted")
	}
}

func TestParseProc(t *testing.T) {
	// comm may hold spaces and parentheses; utime=150 stime=50 ticks.
	stat := "4242 (ser ve) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 150 50 0 0 20 0 9 0 12345 1 2"
	cpu, err := parseProcStatCPU([]byte(stat))
	if err != nil || cpu != 2.0 {
		t.Errorf("parseProcStatCPU = %v, %v; want 2.0", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage stat accepted")
	}
	ns, err := parseSchedstat([]byte("34907123 1062716 2\n"))
	if err != nil || ns != 34907123 {
		t.Errorf("parseSchedstat = %v, %v; want 34907123", ns, err)
	}
	if _, err := parseSchedstat([]byte("\n")); err == nil {
		t.Error("empty schedstat accepted")
	}
	mib, err := parseVmHWM([]byte("Name:\tserve\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n"))
	if err != nil || mib != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200", mib, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tserve\n")); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "msgs_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100.5}
	scale := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metricSpec
		new  []float64
		want string
	}{
		{"lower, 5% worse", lower, scale(tight, 1.05), verdictOK},
		{"lower, 20% worse", lower, scale(tight, 1.20), verdictRegressed},
		{"lower, 20% better", lower, scale(tight, 0.80), verdictOK},
		{"higher, 20% lower", higher, scale(tight, 0.80), verdictRegressed},
		{"higher, 20% higher", higher, scale(tight, 1.20), verdictOK},
	} {
		if got := compareMetric(c.m, tight, c.new); got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (ratio %v)", c.name, got.verdict, c.want, got.ratio)
		}
	}
	// A base whose own quartiles are wider apart than the bound cannot
	// resolve a change of that size.
	noisy := []float64{80, 100, 120, 90, 115}
	if got := compareMetric(lower, noisy, scale(noisy, 1.3)); got.verdict != verdictUnresolved {
		t.Errorf("noisy base: verdict %s, want %s", got.verdict, verdictUnresolved)
	}
	c := compareMetric(lower, tight, scale(tight, 1.05))
	if math.Abs(c.ratio-1.05) > 1e-9 || c.baseMedian != 100 {
		t.Errorf("ratio %v of base %v, want 1.05 of 100", c.ratio, c.baseMedian)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "batch", ID: "a", Start: 0, End: 100},
		{Name: "post_ack", ID: "a", Parent: "batch", Start: 0, End: 30},
		{Name: "sse_wait", ID: "a", Parent: "batch", Start: 30, End: 90},
		{Name: "batch", ID: "b", Start: 0, End: 50},
		{Name: "post_ack", ID: "b", Parent: "batch", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	if self["batch"] != 10 || self["post_ack"] != 80 || self["sse_wait"] != 60 {
		t.Errorf("self times %v", self)
	}
}

func TestResponseFieldScans(t *testing.T) {
	body := []byte(`{
  "cursor": "abc123==",
  "debug": {"spans": [{"stage": "plan", "ms": 0.5}]},
  "events": [{"id": 1, "keywords": ["stats", "cursor"], "born_quantum": 3}],
  "stats": {"segments": 4, "segments_scanned": 1, "blocks_scanned": 2, "records_scanned": 9},
  "tenant": "t0"
}`)
	if got := cursorValue(body); got != "abc123==" {
		t.Errorf("cursorValue = %q", got)
	}
	if got := cursorValue([]byte(`{"cursor":"","events":[]}`)); got != "" {
		t.Errorf("empty cursor = %q", got)
	}
	var qr queryResponse
	if err := decodeField(body, "debug", false, &qr.Debug); err != nil {
		t.Fatal(err)
	}
	if err := decodeField(body, "stats", true, &qr.Stats); err != nil {
		t.Fatal(err)
	}
	if qr.Debug == nil || len(qr.Debug.Spans) != 1 || qr.Debug.Spans[0].Stage != "plan" || qr.Stats.BlocksScanned != 2 || qr.Stats.Segments != 4 {
		t.Errorf("decoded %+v", qr)
	}
}

func TestExpectedHits(t *testing.T) {
	o := &oracle{topK: 2, events: []oracleEvent{
		{ID: 1, Born: 1, Last: 5, all: []string{"quake", "turkey"}},
		{ID: 2, Born: 4, Last: 9, all: []string{"quake"}},
		{ID: 3, Born: 20, Last: 30, all: []string{"vote"}},
	}}
	for _, c := range []struct {
		q    query
		want int
	}{
		{query{class: "limit10", from: 6, to: -1, limit: 10}, 2},
		{query{class: "limit10", from: 0, to: -1, limit: 2}, 2},
		{query{class: "time-range", from: 6, to: 19, limit: 100}, 1},
		{query{class: "keyword", to: -1, keyword: "quake", limit: 100}, 2},
		{query{class: "keyword", to: -1, keyword: "none", limit: 100}, 0},
		{query{class: "fullscan", to: -1, limit: 10000}, 3},
		{query{class: "events-topk", limit: 10}, 2},
	} {
		if got := o.expectedHits(&c.q); got != c.want {
			t.Errorf("%+v: %d hits, want %d", c.q, got, c.want)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	var declared, built []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	if !slices.Equal(declared, built) {
		t.Errorf("BENCHMARK.json workloads %v, harness workloads %v", declared, built)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, harness tuned for %d", spec.RunSeconds, refSeconds)
	}
	if w := workloads[0].scaled(2 * refSeconds); w.latPosts != 2*workloads[0].latPosts {
		t.Errorf("scaled(2×) latPosts = %d", w.latPosts)
	}
}
