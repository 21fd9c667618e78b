package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/textproc"
	"repro/internal/wal"
)

// serverMetrics derives source-C layer numbers: the server's own stage
// histograms and counters from GET /metrics?format=prometheus, read as
// exported. scrapes are [after warm-up, after lat, after sat, after
// query]; stage times are the growth over the measured phases.
func serverMetrics(res *runResult, m *measurement) {
	scrapes, last, qres := m.scrapes, m.lastScrape, m.queries
	ingestMsgs := m.lat.msgs + m.sat.msgs
	serverCPU := m.lat.serverCPU + m.sat.serverCPU + m.query.serverCPU
	first, end := scrapes[0], scrapes[len(scrapes)-1]
	stage := func(name string) float64 { return end.stageSeconds(name) - first.stageSeconds(name) }
	ingestStage := func(name string) float64 { return scrapes[2].stageSeconds(name) - first.stageSeconds(name) }

	res.set("server.http_ingest_self_s", "s",
		stage("http_ingest")-stage("admission")-stage("wal_append")-stage("wal_commit"))
	res.set("server.admission_s", "s", stage("admission"))
	res.set("server.queue_wait_s", "s", stage("queue_wait"))
	res.set("server.sched_wait_s", "s", stage("sched_wait"))
	res.set("server.sse_fanout_s", "s", stage("sse_fanout"))
	res.set("server.http_query_s", "s", stage("http_query"))
	res.set("textproc.tokenize_s", "s", stage("tokenize"))
	res.set("akg.graph_maintain_s", "s", stage("graph_maintain"))
	res.set("detect.reconcile_s", "s", stage("reconcile"))
	res.set("detect.snapshot_publish_s", "s", stage("snapshot_publish"))
	// Apply time is everything the worker does per quantum: the detector
	// quantum (tokenize + graph + reconcile), the snapshot and the fan-out.
	apply := ingestStage("detect_quantum") + ingestStage("snapshot_publish") + ingestStage("sse_fanout")
	share := 0.0
	if apply > 0 {
		share = 100 * (ingestStage("reconcile") + ingestStage("snapshot_publish")) / apply
	}
	res.set("detect.reconcile_publish_share", "%", share)
	res.set("detect.live_events", "count", last.sum("eventdetect_live_events"))
	res.set("detect.total_events", "count", last.sum("eventdetect_events"))

	commits := end.stageCount("wal_commit") - first.stageCount("wal_commit")
	commitMs := 0.0
	if commits > 0 {
		commitMs = 1e3 * stage("wal_commit") / commits
	}
	res.set("wal.commit_wait_mean_ms", "ms", commitMs)
	res.set("wal.fsyncs", "count", end.stageCount("wal_fsync")-first.stageCount("wal_fsync"))
	res.set("wal.segments", "count", last.sum("eventdetect_wal_segments"))
	res.set("archive.segments", "count", last.sum("eventdetect_archive_segments"))
	res.set("archive.columnar_segments", "count", last.sum("eventdetect_archive_columnar_segments"))
	res.set("archive.compactions", "count", last.sum("eventdetect_archive_compactions_total"))

	// Query-side: the server's ?debug=1 spans and response stats, per GET
	// of the classes that run through the query engine.
	perQ := func(v float64) float64 {
		if qres.statted == 0 {
			return 0
		}
		return v / float64(qres.statted)
	}
	res.set("query.plan_us", "us", perQ(1e3*(qres.spanMs["parse"]+qres.spanMs["plan"])))
	res.set("query.snapshot_scan_us", "us", perQ(1e3*qres.spanMs["snapshot_scan"]))
	res.set("query.archive_scan_us", "us", perQ(1e3*qres.spanMs["archive_scan"]))
	res.set("query.finalize_us", "us", perQ(1e3*qres.spanMs["finalize"]))
	res.set("query.blocks_scanned_per_q", "count", perQ(float64(qres.blocks)))
	res.set("query.records_scanned_per_q", "count", perQ(float64(qres.records)))
	res.set("query.segments_skipped_per_q", "count", perQ(float64(qres.segsSkipped)))
	// Share of the server's CPU over the measured phases that its query
	// handler spans (planner, snapshot and archive scans) account for.
	res.set("query.share_of_server_busy", "%", 100*stage("http_query")/serverCPU)

	alloc := end.sum("go_memstats_alloc_bytes_total") - first.sum("go_memstats_alloc_bytes_total")
	res.set("harness.go_alloc_bytes_per_msg", "B", alloc/float64(ingestMsgs))
	res.set("harness.go_gc_cycles", "count", end.sum("go_gc_cycles_total")-first.sum("go_gc_cycles_total"))
}

// spanMetrics derives source-A numbers from the harness's own spans:
// self time is a span's duration minus what its children cover.
func spanMetrics(res *runResult, tr *tracer) {
	self := selfTimes(tr.spans)
	res.set("harness.post_ack_s", "s", float64(self["post_ack"])/1e9)
	res.set("harness.sse_wait_s", "s", float64(self["sse_wait"])/1e9)
	outside := int64(0)
	for _, class := range queryClasses {
		outside += self["query:"+class]
	}
	res.set("query.outside_server_spans_s", "s", float64(outside)/1e9)
}

// layerSample caps how many messages / events / queries the in-process
// pass replays per layer, so the traced run fits the run-time budget.
const layerSample = 200000

// layersPass is source B: the workload's exact inputs replayed in this
// process through each layer's public functions, one layer at a time.
// It runs after the server has exited, on tenant 0's plan and on the
// directories the server left behind.
func layersPass(res *runResult, g *rig, oracles []*oracle) error {
	tp, o := g.plan.tenants[0], oracles[0]
	msgs := tp.msgs[:min(len(tp.msgs), layerSample)]

	// stream: the decode the ingest handler does on each body.
	decoded, t0 := 0, time.Now()
	for _, p := range tp.sat[:min(len(tp.sat), 60)] {
		var batch []stream.Message
		if err := json.NewDecoder(bytes.NewReader(p.body)).Decode(&batch); err != nil {
			return err
		}
		decoded += len(batch)
	}
	res.set("stream.decode_ns_per_msg", "ns", float64(time.Since(t0).Nanoseconds())/float64(max(decoded, 1)))

	// textproc: tokenize + intern, as the detector's prepare step does.
	var tk textproc.Tokenizer
	in := textproc.NewInterner()
	t0 = time.Now()
	for i := range msgs {
		for _, tok := range tk.Tokenize(msgs[i].Text) {
			in.InternBytes(tok.Text)
		}
	}
	res.set("textproc.tokenize_ns_per_msg", "ns", float64(time.Since(t0).Nanoseconds())/float64(len(msgs)))
	res.set("textproc.interner_size", "count", float64(in.Size()))

	// detect / akg / core: the oracle replay was the serial bare-detector
	// run; its timings and the engine's exact work counters are the layer.
	kmsgs := float64(len(tp.msgs)) / 1e3
	res.set("detect.bare_msgs_per_s", "msgs/s", float64(len(tp.msgs))/o.elapsed.Seconds())
	res.set("akg.process_quantum_us", "us", float64(o.graph.Microseconds())/float64(tp.quanta()))
	res.set("akg.nodes", "count", float64(o.det.AKG().NodeCount()))
	res.set("akg.edges", "count", float64(o.det.AKG().EdgeCount()))
	eng := o.det.AKG().Engine()
	checks, merges, splits := eng.Stats()
	res.set("core.engine_ops_per_kmsg", "count", float64(eng.Ops())/kmsgs)
	res.set("core.cycle_checks_per_kmsg", "count", float64(checks)/kmsgs)
	res.set("core.merges", "count", float64(merges))
	res.set("core.splits", "count", float64(splits))
	res.set("core.churn_ns_per_op", "ns", engineChurn(eng))

	scratch := filepath.Join(g.dir, "layers")
	if err := walLayer(res, tp, filepath.Join(scratch, "wal")); err != nil {
		return err
	}
	if err := archiveLayer(res, o, filepath.Join(scratch, "arch")); err != nil {
		return err
	}
	return archiveReadLayer(res, g)
}

// engineChurn replays the final graph's edges into a fresh engine — every
// edge added, then every edge removed, for at least 20,000 operations —
// and returns the mean cost of one AddEdge/RemoveEdge.
func engineChurn(src *core.Engine) float64 {
	edges := src.Graph().Edges()
	if len(edges) == 0 {
		return 0
	}
	rounds := 10000/len(edges) + 1
	en := core.NewEngine(core.Hooks{})
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range edges {
			en.AddEdge(e.U, e.V, 1)
		}
		for _, e := range edges {
			en.RemoveEdge(e.U, e.V)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(2*rounds*len(edges))
}

// walLayer appends the plan's sat batches to a fresh log (synchronous
// mode, no fsync: the encode + write path alone) and replays them.
func walLayer(res *runResult, tp *tenantPlan, dir string) error {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	const big = satFactor * delta
	batches, appended := 0, 0
	t0 := time.Now()
	for at := 0; at+big <= len(tp.msgs) && appended < layerSample; at += big {
		if _, err := l.Append(tp.msgs[at : at+big]); err != nil {
			l.Close()
			return err
		}
		batches++
		appended += big
	}
	appendTook := time.Since(t0)
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		l.Close()
		return err
	}
	replayed := 0
	t0 = time.Now()
	err = l.Replay(0, func(_ uint64, msgs []stream.Message, _ bool) error {
		replayed += len(msgs)
		return nil
	})
	replayTook := time.Since(t0)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.set("wal.append_us_per_batch", "us", float64(appendTook.Microseconds())/float64(max(batches, 1)))
	res.set("wal.bytes_per_msg", "B", float64(size)/float64(max(appended, 1)))
	res.set("wal.replay_msgs_per_s", "msgs/s", float64(replayed)/replayTook.Seconds())
	return nil
}

// archiveRecord projects an oracle event onto the archive's record shape.
func archiveRecord(seq uint64, ev *oracleEvent) archive.Record {
	return archive.Record{
		Seq: seq, ID: ev.ID, State: "ended",
		Keywords: ev.Keywords, AllKeywords: ev.all,
		BornQuantum: ev.Born, LastQuantum: ev.Last,
	}
}

// archiveLayer appends the oracle's events to a fresh archive: the write
// path eviction takes, without the detector in front of it.
func archiveLayer(res *runResult, o *oracle, dir string) error {
	l, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	events := o.events[:min(len(o.events), layerSample)]
	t0 := time.Now()
	for i := range events {
		if err := l.Append(archiveRecord(uint64(i+1), &events[i])); err != nil {
			l.Close()
			return err
		}
	}
	took := time.Since(t0)
	if err := l.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	n := float64(max(len(events), 1))
	res.set("archive.append_us_per_event", "us", float64(took.Microseconds())/n)
	res.set("archive.bytes_per_event", "B", float64(size)/n)
	return nil
}

// archiveReadLayer opens the archive the server left behind (tenant 0)
// and measures a full scan, and the blocks the zone maps and Blooms say
// each planned query should touch with no LIMIT to cut the scan short —
// the NeedleTail-style prediction that query.blocks_scanned_per_q, the
// measured count with LIMIT pushdown, is read against.
func archiveReadLayer(res *runResult, g *rig) error {
	res.set("archive.fullscan_ms", "ms", 0)
	res.set("query.blocks_predicted_per_q", "count", 0)
	dir := filepath.Join(g.dir, "arch", g.plan.tenants[0].name)
	if _, err := os.Stat(dir); err != nil {
		return nil // the workload runs without an archive
	}
	l, err := archive.Open(dir, archive.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	segs := l.Segments()
	scan := func(p archive.Pred) (int, error) {
		blocks := 0
		for i := range segs {
			bs, _, err := segs[i].ScanPred(p, func(*archive.Record) error { return nil })
			if err != nil {
				return 0, err
			}
			blocks += bs.Scanned
		}
		return blocks, nil
	}
	t0 := time.Now()
	if _, err := scan(archive.Pred{To: -1}); err != nil {
		return err
	}
	res.set("archive.fullscan_ms", "ms", float64(time.Since(t0).Microseconds())/1e3)

	predicted, n := 0, 0
	for i := range g.plan.queries {
		q := &g.plan.queries[i]
		if q.tenant != 0 || q.class == "events-topk" {
			continue
		}
		if n++; n > 300 {
			n--
			break
		}
		p := archive.Pred{From: q.from, To: q.to}
		if q.keyword != "" {
			p.Keywords = []string{q.keyword}
		}
		blocks, err := scan(p)
		if err != nil {
			return err
		}
		predicted += blocks
	}
	if n > 0 {
		res.set("query.blocks_predicted_per_q", "count", float64(predicted)/float64(n))
	}
	return nil
}
