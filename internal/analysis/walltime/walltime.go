// Package walltime forbids ambient nondeterminism sources — wall-clock
// reads (time.Now, time.Since, time.Until), the math/rand global
// source, hash/maphash's random seeds, and crypto/rand — inside the
// replay-deterministic packages.
// Replay re-executes those packages from the WAL; a value pulled from
// the environment instead of the recorded stream diverges silently on
// the second run (or on a WAL-shipping follower).
//
// Seeded generators (rand.New(rand.NewSource(seed)), rand/v2
// rand.New(rand.NewPCG(…))) are allowed: they are deterministic
// functions of their seed. Telemetry-only clock reads whose values
// never enter replayed state, and hash seeds that only place slots,
// are suppressed in place with //repro:wallclock-exempt <reason>.
package walltime

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "walltime",
	Doc:       "forbids wall-clock and global-randomness reads in replay-deterministic packages",
	Directive: "wallclock-exempt",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InDeterministicSet(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			name := obj.Name()
			switch obj.Pkg().Path() {
			case "time":
				// Any reference counts, including assigning time.Now to
				// a function value — that is how a clock usually
				// smuggles itself past review.
				if name == "Now" || name == "Since" || name == "Until" {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock in a replay-deterministic package; take the value from the recorded stream, or annotate //repro:wallclock-exempt <reason>", name)
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; constructors of seeded generators, and methods
				// on an explicitly seeded *rand.Rand, are fine.
				fn, isFunc := obj.(*types.Func)
				if isFunc && fn.Signature().Recv() == nil && !strings.HasPrefix(name, "New") {
					pass.Reportf(sel.Pos(),
						"%s.%s uses the global random source in a replay-deterministic package; use a seeded rand.New(...), or annotate //repro:wallclock-exempt <reason>", obj.Pkg().Path(), name)
				}
			case "hash/maphash":
				// A seed drawn by MakeSeed is random per process: hashes
				// under it, and any order or choice taken from them,
				// differ from run to run.
				if name == "MakeSeed" {
					pass.Reportf(sel.Pos(),
						"maphash.MakeSeed draws a random seed in a replay-deterministic package; nothing replayed may depend on its hashes, so annotate //repro:wallclock-exempt <reason>")
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(),
					"crypto/rand is nondeterministic by design and cannot appear in a replay-deterministic package")
			}
			return true
		})
	}
	return nil
}
