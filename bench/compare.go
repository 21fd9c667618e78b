package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/vfs"
)

func writeResults(path string, results []*runResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return vfs.OS.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*runResult
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// samples collects one metric's values per workload from untraced runs
// (end-to-end metrics are never taken from a traced run).
func samples(results []*runResult, workload, metric string) []float64 {
	var out []float64
	for _, r := range results {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the compare table.
type comparison struct {
	baseMedian, baseQ1, baseQ3 float64
	newMedian, newQ1, newQ3    float64
	ratio                      float64 // new median ÷ base median
	verdict                    string
}

// compareMetric judges new against base for one metric. The change is a
// regression when its median is worse than the base's by more than the
// bound. When the base's own quartile spread is wider than the bound the
// runs cannot resolve a change of that size, and the row says so instead
// of claiming "unchanged".
func compareMetric(m metricSpec, base, new []float64) comparison {
	c := comparison{baseMedian: median(base), newMedian: median(new)}
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.newQ1, c.newQ3 = quartiles(new)
	if c.baseMedian != 0 {
		c.ratio = c.newMedian / c.baseMedian
	}
	worse := c.ratio - 1 // share by which new is worse, for "lower is better"
	if m.Better == "higher" {
		worse = 1 - c.ratio
	}
	switch {
	case c.baseMedian != 0 && (c.baseQ3-c.baseQ1)/c.baseMedian > m.Bound:
		c.verdict = verdictUnresolved
	case worse > m.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictOK
	}
	return c
}

// printComparison prints one row per workload × end-to-end metric and
// returns how many rows regressed and how many could not be resolved.
func printComparison(spec *benchSpec, base, new []*runResult) (regressed, unresolved int) {
	fmt.Printf("%-14s %-24s %5s %12s %25s %12s %25s %18s %s\n",
		"workload", "metric", "n", "base median", "[q1, q3]", "new median", "[q1, q3]", "new/base", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := samples(base, w.Name, m.Name), samples(new, w.Name, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			c := compareMetric(m, b, n)
			fmt.Printf("%-14s %-24s %2d/%-2d %12.4f [%11.4f,%11.4f] %12.4f [%11.4f,%11.4f] %7.4f of %-8.4g %s (%s better, bound %.0f%%)\n",
				w.Name, m.Name, len(b), len(n), c.baseMedian, c.baseQ1, c.baseQ3,
				c.newMedian, c.newQ1, c.newQ3, c.ratio, c.baseMedian, c.verdict, m.Better, 100*m.Bound)
			switch c.verdict {
			case verdictRegressed:
				regressed++
			case verdictUnresolved:
				unresolved++
			}
		}
	}
	return regressed, unresolved
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare base.json new.json (files written by bench run --out)")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	base, err := readResults(args[0])
	if err != nil {
		return err
	}
	new, err := readResults(args[1])
	if err != nil {
		return err
	}
	regressed, unresolved := printComparison(spec, base, new)
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d workload × metric rows regressed beyond their bound", regressed)
	}
	return nil
}

// cmdSelfcheck is the A/A test: two sets of runs of the same binary,
// alternating, must agree within every metric's own bound.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per set and workload (at least 5)")
	seed := fs.Int64("seed", 1, "workload seed, the same for every run")
	only := fs.String("workload", "", "check this one workload (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 5 {
		return fmt.Errorf("selfcheck needs at least 5 runs per set")
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	spec, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	var sets [2][]*runResult
	for i := range workloads {
		w := workloads[i].scaled(spec.RunSeconds)
		if *only != "" && w.name != *only {
			continue
		}
		for r := 0; r < 2**runs; r++ {
			res, err := e.runOne(w, *seed, false)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, r, err)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s run %d: %d operations failed: %v", w.name, r, res.Failed, res.Errors)
			}
			sets[r%2] = append(sets[r%2], res)
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d/%d done\n", w.name, r+1, 2**runs)
		}
	}
	regressed, unresolved := printComparison(spec, sets[0], sets[1])
	demote := 0
	all := slices.Concat(sets[0], sets[1])
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			vs := samples(all, w.Name, m.Name)
			if len(vs) == 0 || m.Name == "setup_s" {
				continue
			}
			// What may be an end-to-end metric at all: one whose range over
			// same-code runs exceeds its own bound cannot tell a regression
			// from noise, and is moved to harness.* — bounds are capped at
			// 0.25, so widening is not a way out.
			if med := median(vs); med != 0 && (slices.Max(vs)-slices.Min(vs))/med > m.Bound {
				fmt.Printf("demote: %s on %s ranges over %.1f%% of its median across %d same-code runs (bound %.0f%%)\n",
					m.Name, w.Name, 100*(slices.Max(vs)-slices.Min(vs))/med, len(vs), 100*m.Bound)
				demote++
			}
		}
	}
	if regressed+unresolved+demote > 0 {
		return fmt.Errorf("selfcheck failed: %d rows disagree beyond their bound, %d unresolved, %d metrics to demote", regressed, unresolved, demote)
	}
	fmt.Println("selfcheck ok: both sets agree within every bound")
	return nil
}
