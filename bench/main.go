// Command bench is the repository's benchmark: it builds cmd/serve,
// starts it as a separate process per workload, drives it over real HTTP
// (closed loop, one keep-alive connection per driver goroutine, passive
// SSE readers), checks the outcome against a replay oracle and prints
// every metric BENCHMARK.json declares. See README.md in this directory.
//
//	bench run --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	bench run [--trace 1] [--out results.json]                every workload, human-readable
//	bench compare a.json b.json                               verdict per workload × metric
//	bench selfcheck [--runs 5]                                A/A: two interleaved sets must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench run|compare|selfcheck [flags]")
		os.Exit(2)
	}
	// A signal must not leave a server process behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killRunning()
		os.Exit(130)
	}()
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (run, compare, selfcheck)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultLine is the contract's last stdout line of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and end with one JSON result line (default: every workload, human-readable)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same bytes on the wire")
	seconds := fs.Int("seconds", 0, "measured run length the fixed work is scaled to (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run: spans, server scrapes and the in-process layers pass; prints the per-layer metrics")
	out := fs.String("out", "", "with no --workload: also write every run's result to this JSON file, for bench compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *name == "" {
		return runAll(e, spec, *seed, *seconds, *trace == 1, *out)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	res, err := e.runOne(w.scaled(*seconds), *seed, *trace == 1)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		line.Metrics[m.Name] = v
	}
	for _, msg := range append(res.Errors, res.Notes...) {
		fmt.Fprintln(os.Stderr, "bench:", msg)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d plan_sha256=%s\n", res.Workload, res.Seed, *seconds, res.PlanSHA)
	return json.NewEncoder(os.Stdout).Encode(line)
}

// runAll is the human-facing mode: every workload untraced, then (with
// trace) once more traced; prints every metric by name with its unit.
func runAll(e *env, spec *benchSpec, seed int64, seconds int, traced bool, out string) error {
	var results []*runResult
	failed := 0
	for i := range workloads {
		w := workloads[i].scaled(seconds)
		res, err := e.runOne(w, seed, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, res)
		printResult(spec, res)
		failed += res.Failed
		if !traced {
			continue
		}
		tres, err := e.runOne(w, seed, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		// Tracing overhead: how much sat throughput the traced run lost
		// against the untraced run of the same plan.
		plain, withTrace := res.Metrics["ingest_msgs_per_s"].Value, tres.Metrics["ingest_msgs_per_s"].Value
		tres.set("harness.trace_overhead_pct", "%", 100*(plain-withTrace)/plain)
		results = append(results, tres)
		printResult(spec, tres)
		failed += tres.Failed
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printResult(spec *benchSpec, res *runResult) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("\n== %s · seed %d · %s ==\n", res.Workload, res.Seed, kind)
	fmt.Printf("plan_sha256 %s\nops_attempted %d  ops_failed %d\n", res.PlanSHA, res.Attempted, res.Failed)
	for _, msg := range res.Errors {
		fmt.Println("  error:", msg)
	}
	for _, note := range res.Notes {
		fmt.Println("  note:", note)
	}
	for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
		v := res.Metrics[name]
		note := ""
		if m, ok := spec.lookup(name); ok && m.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %.0f%%)", m.Better, 100*m.Bound)
		}
		fmt.Printf("  %-36s %14.4f %s%s\n", name, v.Value, v.Unit, note)
	}
}
