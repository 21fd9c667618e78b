package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"repro/internal/vfs"
)

// maxAhead per phase: how many quanta a tenant may have sent beyond what
// its stream has confirmed. lat never gets near its bound in a healthy
// run; sat's keeps exactly one POST queued behind the one being applied.
const (
	latAhead     = 8
	satAhead     = 2 * satFactor
	preloadAhead = 4 * satFactor

	// queryClients is the number of closed-loop clients of the query phase,
	// one per core of the reference box.
	queryClients = 2
	// setupSpinReps is how many spins each core runs before every set-up
	// and after the last.
	setupSpinReps = 2
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the outcome of one workload run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	PlanSHA   string                 `json:"plan_sha256"`
	Digests   []string               `json:"oracle_digests"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Errors    []string               `json:"errors,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *runResult) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *runResult) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// env is what every run of one harness invocation shares.
type env struct {
	root, serveBin, outDir string
	buildS                 float64
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := vfs.OS.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	if err := vfs.OS.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	bin, took, err := buildServe(root)
	if err != nil {
		return nil, err
	}
	e.serveBin, e.buildS = bin, took.Seconds()
	return e, nil
}

// rig is one set-up system: plan, server process, subscribed drivers.
type rig struct {
	plan    *plan
	dir     string
	srv     *serverProc
	drivers []*tenantDriver
	clock   time.Time
}

// teardown stops everything the rig started and removes its scratch dir.
func (g *rig) teardown() {
	for _, d := range g.drivers {
		d.unsubscribe()
	}
	g.srv.kill()
	os.RemoveAll(g.dir) //repro:vfs-exempt scratch-dir cleanup; the vfs seam has no recursive remove
}

// eachTenant runs fn for every tenant driver concurrently and returns
// the first error.
func (g *rig) eachTenant(fn func(i int, d *tenantDriver) error) error {
	errs := make([]error, len(g.drivers))
	var wg sync.WaitGroup
	for i, d := range g.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, d)
		}()
	}
	wg.Wait()
	// The goroutine that failed first says why; the ones it released from
	// a pacer only say that it did.
	var aborted error
	for _, err := range errs {
		if err == errPhaseAborted {
			aborted = err
		} else if err != nil {
			return err
		}
	}
	return aborted
}

// setUp starts a server on a fresh directory, subscribes, preloads and
// warms up: everything between the generated inputs and a system ready to
// be measured. Its wall time is one setup_s sample.
func (e *env) setUp(p *plan, seed int64) (*rig, time.Duration, error) {
	t0 := time.Now()
	w := p.w
	g := &rig{plan: p, clock: t0}
	dir := filepath.Join(e.outDir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid()))
	os.RemoveAll(dir) //repro:vfs-exempt scratch-dir cleanup; the vfs seam has no recursive remove
	if err := vfs.OS.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	g.dir = dir
	srv, err := newServer(e.serveBin, dir, w)
	if err != nil {
		return nil, 0, err
	}
	g.srv = srv
	if err := srv.start(); err != nil {
		return nil, 0, err
	}
	for _, tp := range g.plan.tenants {
		g.drivers = append(g.drivers, newTenantDriver(tp, srv, g.clock))
	}
	err = g.eachTenant(func(_ int, d *tenantDriver) error {
		if err := d.subscribe(); err != nil {
			return err
		}
		if _, err := d.runPosts(d.tp.preload, preloadAhead, nil, "preload"); err != nil {
			return err
		}
		_, err := d.runPosts(d.tp.warm, preloadAhead, nil, "warm")
		return err
	})
	if err != nil {
		g.teardown()
		return nil, 0, err
	}
	return g, time.Since(t0), nil
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// ingestPhase is one measured ingest phase across all tenants.
type ingestPhase struct {
	start, end     int64 // first send, last arrival (ns on the run's clock)
	msgs           int
	acks, sse      []time.Duration
	serverCPU, gen float64 // CPU seconds spent by the server / by this process
	// Paced phases only: each tenant's chunks, the server's CPU clock at
	// every chunk's end and start (pacer.pause's two marks per pause, so
	// chunk i ran from marks[2i+1] to marks[2i+2]), and the spins.
	chunks [][]chunk
	marks  []float64
	spins  []time.Duration
}

func (ph *ingestPhase) wall() time.Duration { return time.Duration(ph.end - ph.start) }

// chunkCPU is the server's CPU time per message, in µs, in each chunk.
func (ph *ingestPhase) chunkCPU() []float64 {
	if len(ph.chunks) == 0 {
		return nil
	}
	out := make([]float64, len(ph.chunks[0]))
	for i := range out {
		out[i] = 1e6 * (ph.marks[2*i+2] - ph.marks[2*i+1]) / float64(chunkWork(ph.chunks, i))
	}
	return out
}

// runIngest drives one phase on every tenant at once. With per > 0 the
// phase is paced: chunks of per POSTs per tenant alternate with spins.
func (g *rig) runIngest(phase string, pick func(*tenantPlan) []post, ahead, per int, tr *tracer) (ingestPhase, error) {
	var ph ingestPhase
	cpu0, err := g.srv.cpuSeconds()
	if err != nil {
		return ph, err
	}
	gen0 := selfCPU()
	ph.start = int64(time.Since(g.clock))
	results := make([]phaseResult, len(g.drivers))
	if per > 0 {
		pc := newPacer(len(g.drivers))
		ph.chunks = make([][]chunk, len(g.drivers))
		var markErr error
		mark := func() {
			cpu, err := g.srv.cpuSeconds()
			if err != nil {
				markErr = err
			}
			ph.marks = append(ph.marks, cpu)
		}
		err = g.eachTenant(func(i int, d *tenantDriver) error {
			var err error
			m := mark
			if i > 0 {
				m = nil // one goroutine reads the clock for all
			}
			results[i], ph.chunks[i], err = d.runPaced(pick(d.tp), per, ahead, pc, m, tr, phase)
			return err
		})
		if err == nil {
			err = markErr
		}
		ph.spins = pc.spins
	} else {
		err = g.eachTenant(func(i int, d *tenantDriver) error {
			var err error
			results[i], err = d.runPosts(pick(d.tp), ahead, tr, phase)
			return err
		})
	}
	if err != nil {
		return ph, err
	}
	for i, d := range g.drivers {
		ph.end = max(ph.end, results[i].endAt)
		ph.msgs += results[i].msgs
		ph.acks = append(ph.acks, results[i].acks...)
		ph.sse = append(ph.sse, d.sseLatencies(pick(d.tp))...)
		tr.closeBatches(d, phase, pick(d.tp))
	}
	cpu1, err := g.srv.cpuSeconds()
	if err != nil {
		return ph, err
	}
	ph.serverCPU, ph.gen = cpu1-cpu0, selfCPU()-gen0
	return ph, nil
}

// queryPhase is the measured query phase.
type queryPhase struct {
	hits      []int // events returned per planned query
	chunks    [][]chunk
	spins     []time.Duration
	serverCPU float64
}

// runQueries is the query phase: closed-loop clients work through the
// seeded list a block at a time, client c taking blocks c, c+clients, …,
// in chunks of per blocks each with a spin between chunks.
func (g *rig) runQueries(per int, tr *tracer, res *queryResult) (queryPhase, error) {
	qp := queryPhase{hits: make([]int, len(g.plan.queries)), chunks: make([][]chunk, queryClients)}
	cpu0, err := g.srv.cpuSeconds()
	if err != nil {
		return qp, err
	}
	blocks := len(g.plan.queries) / queryBlock
	perClient := (blocks + queryClients - 1) / queryClients
	pc := newPacer(queryClients)
	errs := make([]error, queryClients)
	var wg sync.WaitGroup
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qc := newQueryClient(g.srv, g.clock, tr)
			for at := 0; at < perClient; at += per {
				if errs[c] = pc.pause(qc.spins, nil); errs[c] != nil {
					return
				}
				before, start := qc.gets, int64(time.Since(g.clock))
				for own := at; own < min(at+per, perClient); own++ {
					first := (own*queryClients + c) * queryBlock
					for i := first; i < min(first+queryBlock, blocks*queryBlock); i++ {
						qp.hits[i] = qc.run(&g.plan.queries[i], res)
					}
				}
				qp.chunks[c] = append(qp.chunks[c], chunk{start, int64(time.Since(g.clock)), qc.gets - before})
			}
			errs[c] = pc.pause(qc.spins, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return qp, err
		}
	}
	qp.spins = pc.spins
	cpu1, err := g.srv.cpuSeconds()
	qp.serverCPU = cpu1 - cpu0
	return qp, err
}

// measurement is everything the measured phases of one run produced.
type measurement struct {
	planS      float64         // generating the traces and rendering the bodies
	setups     []float64       // set-up wall times, seconds
	setupSpins []time.Duration // spins before each set-up and after the last
	lat, sat   ingestPhase
	queries    *queryResult
	query      queryPhase
	rssMiB     float64
	diskBytes  int64   // under -wal-dir and -archive-dir after the drain
	recoverS   float64 // crash workloads: restart → /readyz after kill -9
	// Traced runs: server scrapes after warm-up, lat, sat and query, and
	// one after verification for the end-state gauges.
	scrapes    []scrape
	lastScrape scrape
}

// measure runs lat, sat and the query phase on a set-up rig. The
// generator's own garbage collector stays off meanwhile: a mark over the
// plan's bodies and messages would take a core from the server for
// hundreds of milliseconds, and the phases allocate little.
func (g *rig) measure(tr *tracer) (*measurement, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := &measurement{queries: newQueryResult()}
	mark := func() error {
		if tr == nil {
			return nil
		}
		s, err := scrapeMetrics(g.srv)
		m.scrapes = append(m.scrapes, s)
		return err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	w := g.plan.w
	var err error
	if m.lat, err = g.runIngest("lat", func(tp *tenantPlan) []post { return tp.lat }, latAhead, 0, tr); err != nil {
		return nil, err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	if m.sat, err = g.runIngest("sat", func(tp *tenantPlan) []post { return tp.sat }, satAhead, w.satChunk, tr); err != nil {
		return nil, err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	if m.query, err = g.runQueries(w.queryChunk, tr, m.queries); err != nil {
		return nil, err
	}
	if err := mark(); err != nil {
		return nil, err
	}
	m.rssMiB, err = g.srv.rssPeakMiB()
	return m, err
}

// verify builds the replay oracles (in parallel: the server is idle now)
// and charges every discrepancy to res: lost quanta, failed GETs, wrong
// hit counts, and an event history that differs from the oracle's.
func (g *rig) verify(res *runResult, m *measurement) ([]*oracle, error) {
	oracles := make([]*oracle, len(g.drivers))
	g.eachTenant(func(i int, d *tenantDriver) error { //nolint:errcheck // fn never fails
		oracles[i] = buildOracle(d.tp)
		return nil
	})
	for _, d := range g.drivers {
		posts := len(d.tp.preload) + len(d.tp.warm) + len(d.tp.lat) + len(d.tp.sat)
		res.count(posts, 0) // a non-202 POST aborted the run before this point
		res.count(d.tp.quanta(), int(d.lost.Load()))
		if n := d.lost.Load(); n > 0 {
			res.Errors = append(res.Errors, fmt.Sprintf("tenant %s: %d quanta missing on the stream", d.tp.name, n))
		}
	}
	res.count(int(m.queries.gets.Load()), m.queries.failed)
	if m.queries.firstErr != nil {
		res.Errors = append(res.Errors, m.queries.firstErr.Error())
	}
	for i, got := range m.query.hits {
		q := &g.plan.queries[i]
		if want := oracles[q.tenant].expectedHits(q); got != want {
			res.fail("GET %s: %d events, oracle expects %d", q.path, got, want)
		}
	}
	res.count(len(m.query.hits), 0)
	return oracles, g.verifyHistory(res, oracles, "after drain")
}

// verifyHistory compares the server's whole event history per tenant
// with the oracle's.
func (g *rig) verifyHistory(res *runResult, oracles []*oracle, when string) error {
	for i, d := range g.drivers {
		attempted, failed, got, err := checkOracle(g.srv, d.tp.name, oracles[i])
		if err != nil {
			return fmt.Errorf("oracle check %s: %w", when, err)
		}
		res.count(attempted, failed)
		if want := digest(oracles[i].events); got != want {
			res.Errors = append(res.Errors, fmt.Sprintf("tenant %s %s: event digest %s, oracle %s (%d mismatches)",
				d.tp.name, when, got[:12], want[:12], failed))
		}
		res.Digests = append(res.Digests, got)
	}
	return nil
}

// crashRestart is kill -9, restart on the same directories, and the
// history check again; it returns the restart → /readyz time.
func (g *rig) crashRestart(res *runResult, oracles []*oracle) (float64, error) {
	for _, d := range g.drivers {
		d.unsubscribe()
	}
	g.srv.kill()
	t0 := time.Now()
	if err := g.srv.start(); err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	took := time.Since(t0).Seconds()
	return took, g.verifyHistory(res, oracles, "after kill -9 + restart")
}

// runOne sets up, measures and verifies one workload. traced selects the
// traced run: spans, server scrapes and the in-process layers pass, and
// a single set-up; end-to-end numbers are taken from untraced runs only.
func (e *env) runOne(w workload, seed int64, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metricValue{}}
	var tr *tracer
	repeats := setupRepeats
	if traced {
		tr, repeats = &tracer{}, 1
	}
	// The inputs are generated once; only what stands between them and a
	// system ready to be measured is set-up, and that is repeated.
	t0 := time.Now()
	p := buildPlan(w, seed)
	planS := time.Since(t0).Seconds()
	res.PlanSHA = p.sha
	var g *rig
	var setups []float64
	var setupSpins []time.Duration
	for r := 0; r < repeats; r++ {
		if g != nil {
			g.teardown()
		}
		setupSpins = append(setupSpins, spinTogether(queryClients, setupSpinReps)...)
		var took time.Duration
		var err error
		if g, took, err = e.setUp(p, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer g.teardown()
	setupSpins = append(setupSpins, spinTogether(queryClients, setupSpinReps)...)

	m, err := g.measure(tr)
	if err != nil {
		return nil, err
	}
	m.planS, m.setups, m.setupSpins = planS, setups, setupSpins
	oracles, err := g.verify(res, m)
	if err != nil {
		return nil, err
	}
	// Disk footprint once every acked batch is applied, before shutdown
	// (a clean shutdown snapshots and would compact the WAL away).
	for _, sub := range []string{"wal", "arch"} {
		n, err := dirBytes(filepath.Join(g.dir, sub))
		if err != nil {
			return nil, err
		}
		m.diskBytes += n
	}
	if traced {
		if m.lastScrape, err = scrapeMetrics(g.srv); err != nil {
			return nil, err
		}
	}
	if w.crash {
		if m.recoverS, err = g.crashRestart(res, oracles); err != nil {
			return nil, err
		}
	}
	for _, d := range g.drivers {
		d.unsubscribe()
	}
	if err := g.srv.stop(); err != nil {
		return nil, fmt.Errorf("server drain: %w", err)
	}

	m.report(res, g)
	res.set("harness.build_s", "s", e.buildS)
	res.Notes = append(res.Notes, fmt.Sprintf("phases: plan %.2fs, set-ups %.2fs, lat %.2fs, sat %.2fs, query %.2fs; %d events on %s",
		m.planS, m.setups, m.lat.wall().Seconds(), m.sat.wall().Seconds(), queryWall(m.query.chunks).Seconds(), len(oracles[0].events), g.drivers[0].tp.name))
	if !traced {
		return res, nil
	}
	// The traced run adds the layers.
	serverMetrics(res, m)
	spanMetrics(res, tr)
	if err := layersPass(res, g, oracles); err != nil {
		return nil, fmt.Errorf("layers pass: %w", err)
	}
	return res, tr.write(e.outDir)
}

// queryWall is the query phase's wall time, pauses included.
func queryWall(per [][]chunk) time.Duration {
	if len(per) == 0 || len(per[0]) == 0 {
		return 0
	}
	start, end := per[0][0].start, int64(0)
	for _, cs := range per {
		start, end = min(start, cs[0].start), max(end, cs[len(cs)-1].end)
	}
	return time.Duration(end - start)
}

// report turns the measurement into the end-to-end metrics and the
// harness's own ungated numbers (both kinds of run carry them).
//
// Every gated timing is the best quarter of its phase's chunks, divided by
// the host's speed over the same phase: the best quarter of the spins that
// alternated with those chunks. Interference from other guests only ever
// slows a chunk or a spin down, so the best quarters are what program and
// host do when left alone; and a host that is slow throughout slows both
// alike. setup_s, a median of three, is scaled by the median of its spins.
func (m *measurement) report(res *runResult, g *rig) {
	totalMsgs := 0
	for _, d := range g.drivers {
		totalMsgs += len(d.tp.msgs)
	}
	allQ := make([]time.Duration, 0, m.queries.gets.Load())
	for _, class := range queryClasses {
		allQ = append(allQ, m.queries.lat[class]...)
		res.set("query."+class+"_p50_ms", "ms", percentile(msSorted(m.queries.lat[class]), 0.50))
	}
	setupSpins := make([]float64, len(m.setupSpins))
	for i, d := range m.setupSpins {
		setupSpins[i] = d.Seconds()
	}
	setupSpeed := spinRef.Seconds() / median(setupSpins)
	satSpeed, querySpeed := hostSpeed(m.sat.spins), hostSpeed(m.query.spins)
	satRate, satCPU := bestQuarter(chunkRates(m.sat.chunks), true), bestQuarter(m.sat.chunkCPU(), false)
	queryRate := bestQuarter(chunkRates(m.query.chunks), true)

	res.set("setup_s", "s", median(m.setups)*setupSpeed)
	res.set("ingest_msgs_per_s", "msgs/s", satRate/satSpeed)
	res.set("server_cpu_us_per_msg", "us", satCPU*satSpeed)
	res.set("query_per_s", "1/s", queryRate/querySpeed)
	res.set("rss_peak_mb", "MiB", m.rssMiB)
	res.set("disk_bytes_per_msg", "B", float64(m.diskBytes)/float64(totalMsgs))

	// Ungated. What the host did to this run: its speed against the
	// reference box per phase, and the plain whole-phase means (pauses left
	// out, nothing scaled) to read the gated numbers against.
	res.set("harness.host_speed_setup", "ratio", setupSpeed)
	res.set("harness.host_speed_sat", "ratio", satSpeed)
	res.set("harness.host_speed_query", "ratio", querySpeed)
	res.set("harness.setup_raw_s", "s", median(m.setups))
	res.set("harness.ingest_msgs_per_s_mean", "msgs/s", chunkMean(m.sat.chunks))
	res.set("harness.server_cpu_us_per_msg_mean", "us", 1e6*(m.sat.marks[len(m.sat.marks)-2]-m.sat.marks[1])/float64(m.sat.msgs))
	res.set("harness.query_per_s_mean", "1/s", chunkMean(m.query.chunks))
	// The latencies this box cannot hold steady enough to gate (README,
	// Noise), their tails, and the harness's own cost.
	sseMs, ackMs, qMs := msSorted(m.lat.sse), msSorted(m.lat.acks), msSorted(allQ)
	res.set("harness.ingest_to_sse_p50_ms", "ms", percentile(sseMs, 0.50))
	res.set("harness.ingest_to_sse_p90_ms", "ms", percentile(sseMs, 0.90))
	res.set("harness.ingest_to_sse_p99_ms", "ms", percentile(sseMs, 0.99))
	res.set("harness.ingest_to_sse_max_ms", "ms", percentile(sseMs, 1))
	res.set("harness.ack_p50_ms", "ms", percentile(ackMs, 0.50))
	res.set("harness.ack_p99_ms", "ms", percentile(ackMs, 0.99))
	res.set("harness.query_p50_ms", "ms", percentile(qMs, 0.50))
	res.set("harness.query_p90_ms", "ms", percentile(qMs, 0.90))
	res.set("harness.query_p99_ms", "ms", percentile(qMs, 0.99))
	res.set("harness.lat_samples", "count", float64(len(sseMs)))
	res.set("harness.query_samples", "count", float64(len(qMs)))
	res.set("harness.gen_cpu_share", "%", 100*m.lat.gen/(m.lat.gen+m.lat.serverCPU))
	res.set("harness.plan_build_s", "s", m.planS)
	res.set("wal.recover_s", "s", m.recoverS)
	res.Notes = append(res.Notes,
		fmt.Sprintf("ingest_to_sse: n=%d, highest supported percentile p%g", len(sseMs), 100*highestSupported(len(sseMs))),
		fmt.Sprintf("query: n=%d, highest supported percentile p%g", len(qMs), 100*highestSupported(len(qMs))),
		fmt.Sprintf("host speed: set-up %.3f, sat %.3f, query %.3f of the reference box; before scaling: set-up %.3fs, best quarter of %d sat chunks %.0f msgs/s and %.2f us/msg (mean %.0f), of %d query chunks %.0f queries/s (mean %.0f)",
			setupSpeed, satSpeed, querySpeed, median(m.setups), len(m.sat.chunks[0]), satRate, satCPU,
			chunkMean(m.sat.chunks), len(m.query.chunks[0]), queryRate, chunkMean(m.query.chunks)))
}
