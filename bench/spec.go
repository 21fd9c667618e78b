package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/tracegen"
)

// Detector tunables every workload runs with: the paper's Table 2
// nominal values, passed to cmd/serve and to the replay oracle alike.
const (
	delta  = 160
	tau    = 4
	beta   = 0.20
	window = 30

	// satFactor is the sat phase's POST size in quanta: at B = 10·Δ the
	// server is CPU-bound, at B = Δ it waits on the group-commit timer.
	satFactor = 10
	// warmQuanta fills the sliding window twice before anything is timed.
	warmQuanta = 2 * window
	// groupCommit is the WAL flush interval every workload runs with.
	groupCommit = 2 * time.Millisecond

	// refSeconds is the --seconds value the frozen work counts below were
	// tuned for on the 2-core reference box; other values scale them.
	refSeconds = 20
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 3
)

// workload is one traffic mix. Message and query counts are frozen here
// (work is fixed, not duration) and scale linearly with --seconds.
type workload struct {
	name string
	// trace builds the tenant's message stream of n messages.
	trace func(seed int64, n int) tracegen.Config
	// tenants is the number of ingest tenants, one driver goroutine each.
	tenants int
	// retain / snapshotEvery / compact are the cmd/serve flags that differ
	// between workloads (retain 0 = no eviction, archive idle).
	retain        int
	snapshotEvery int
	compact       time.Duration
	// preload is the per-tenant message count posted during set-up, before
	// the warm-up: the state the measurement starts from, and most of what
	// setup_s times.
	preload int
	// latPosts and satPosts are per-tenant POST counts of the two ingest
	// phases; queries is the GET count of the query phase.
	latPosts, satPosts, queries int
	// satChunk (POSTs per tenant) and queryChunk (blocks of queryBlock GETs
	// per client) size one chunk of the paced phases: about as long as the
	// spin it alternates with (pace.go), a tenth of a second.
	satChunk, queryChunk int
	// crash ends the run with kill -9, a restart on the same directories
	// and the oracle check again.
	crash bool
}

// shortEvents is the trace kind of the two archive workloads: many
// short-lived events, so eviction keeps feeding the archive.
func shortEvents(seed int64, n int) tracegen.Config {
	c := tracegen.TWConfig(seed, n)
	c.RealEvents = n / 100
	c.EventMessagesMin, c.EventMessagesMax = 50, 100
	c.EventSpanMin, c.EventSpanMax = 320, 640
	c.EventUsersMin, c.EventUsersMax = 30, 60
	c.PoolMin, c.PoolMax = 6, 8
	return c
}

func denseEvents(seed int64, n int) tracegen.Config {
	c := tracegen.TWConfig(seed, n)
	c.RealEvents *= 10
	c.SpuriousEvents *= 10
	c.Discussions *= 10
	return c
}

// neverSnapshot keeps the whole WAL on disk, so disk_bytes_per_msg is
// bytes appended per message and not the phase of a compaction sawtooth.
// query-archive snapshots every 64 quanta instead: WAL snapshots beside
// appends, and a crash recovery that is a snapshot plus a tail.
const neverSnapshot = 1 << 30

var workloads = []workload{
	{
		name: "ingest-tw", trace: tracegen.TWConfig, tenants: 2,
		snapshotEvery: neverSnapshot,
		preload:       96000,
		latPosts:      600, satPosts: 288, queries: 8640,
		satChunk: 8, queryChunk: 6,
	},
	{
		name: "ingest-dense", trace: denseEvents, tenants: 2,
		snapshotEvery: neverSnapshot,
		preload:       80000,
		latPosts:      600, satPosts: 180, queries: 2880,
		satChunk: 5, queryChunk: 2,
	},
	{
		name: "query-archive", trace: shortEvents, tenants: 2,
		retain: 64, snapshotEvery: 64, compact: 250 * time.Millisecond,
		preload:  96000,
		latPosts: 400, satPosts: 144, queries: 1600,
		satChunk: 4, queryChunk: 1,
		crash: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns the workload with its measured work scaled from
// refSeconds to seconds. Set-up work (preload, warm-up) does not scale:
// it fixes the state the measurement starts from.
func (w workload) scaled(seconds int) workload {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(1, n*seconds/refSeconds)
	}
	w.latPosts, w.satPosts, w.queries = scale(w.latPosts), scale(w.satPosts), scale(w.queries)
	return w
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are declared; run, compare and selfcheck read it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// lookup returns the declared spec of a metric, end-to-end or per-layer.
func (s *benchSpec) lookup(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// repoRoot walks up from the working directory to the checkout root —
// the directory holding both BENCHMARK.json and cmd/serve — so the
// harness works from the root (bench/run.sh) and from bench/ (go run).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "serve")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json + cmd/serve) above the working directory")
		}
		dir = parent
	}
}
