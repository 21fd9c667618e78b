// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on synthetic traces with exact ground truth.
//
// Usage:
//
//	experiments [-n 80000] [-seed 42] <experiment ...>
//
// Experiments:
//
//	table1    ground-truth study: headlines vs discovered clusters (§7.1)
//	table2    nominal parameter values (§7.2.1)
//	fig7      recall sweep, Time-Window trace (Δ × β)
//	fig8      recall sweep, Event-Specific trace
//	fig9      precision sweep, Time-Window trace
//	fig10     precision sweep, Event-Specific trace
//	quality   event-quality analysis: avg cluster size / avg rank (§7.2.4)
//	table3    SCP vs biconnected vs BC+edges clustering schemes (§7.3)
//	table4    message processing rate per quantum size (§7.4)
//	akgstats  AKG-vs-CKG size reduction (§7.4)
//	all       everything above, in order
//
// Absolute numbers differ from the paper (different hardware, synthetic
// data); the shapes — who wins, directions of trends, rough factors — are
// the reproduction target. See README.md, "Experiments and benchmarks".
package main

import (
	"flag"
	"fmt"
	"os"
)

var (
	flagN    = flag.Int("n", 80000, "trace length in messages")
	flagSeed = flag.Int64("seed", 42, "trace generator seed")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, a := range args {
		if a == "all" {
			args = []string{"table1", "table2", "fig7", "fig8", "fig9",
				"fig10", "quality", "table3", "table4", "akgstats"}
			break
		}
	}
	for _, name := range args {
		fn, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Printf("################ %s ################\n\n", name)
		fn()
		fmt.Println()
	}
}

var experiments = map[string]func(){
	"table1":   runTable1,
	"table2":   runTable2,
	"fig7":     func() { runSweep("recall", "tw") },
	"fig8":     func() { runSweep("recall", "es") },
	"fig9":     func() { runSweep("precision", "tw") },
	"fig10":    func() { runSweep("precision", "es") },
	"quality":  runQuality,
	"table3":   runTable3,
	"table4":   runTable4,
	"akgstats": runAKGStats,
}
