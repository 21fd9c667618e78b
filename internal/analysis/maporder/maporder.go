// Package maporder flags `for range` over maps in replay-deterministic
// packages. Go randomizes map iteration order on purpose; any map loop
// whose body is order-sensitive (float accumulation, slice append,
// first/last-wins selection) makes replayed state diverge from the
// original run — the exact bug class that broke bit-identical replay
// twice (rank float summation, retirement order).
//
// A loop passes if the analyzer can prove the body order-insensitive
// (only commutative integer updates, per-key map writes, deletes), if
// it is the canonical collect-then-sort idiom (the loop only appends
// keys/values to a slice that is later passed to a sort call in the
// same function), or if it carries a //repro:order-insensitive <reason>
// annotation.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:      "maporder",
	Doc:       "flags order-sensitive map iteration in replay-deterministic packages",
	Directive: "order-insensitive",
	Run:       run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InMapOrderSet(pass.PkgPath) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				c := &checker{pass: pass, rs: rs}
				if c.orderInsensitiveBody() || c.collectThenSort(fn) {
					return true
				}
				pass.Reportf(rs.For,
					"iteration over map %s has an order-dependent body in a replay-deterministic package; iterate sorted keys, or annotate //repro:order-insensitive <reason>",
					types.ExprString(rs.X))
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	rs   *ast.RangeStmt
	// assigned is the set of loop-carried objects written anywhere in
	// the loop body: variables declared outside the body (and outside
	// the range clause) that the body mutates. A condition or
	// right-hand side that reads one of these couples iterations
	// together, so order starts to matter. Variables declared inside
	// the body are reborn every iteration and cannot carry state
	// between entries, so they are exempt.
	assigned map[types.Object]bool
	// returns counts ReturnStmts in the loop body (FuncLits excluded);
	// effects records whether the body contains statement-level side
	// effects beyond assignments (calls, sends, go, defer). Together
	// they gate the predicate shape: a single constant return in an
	// otherwise effect-free body.
	returns int
	effects bool
}

// orderInsensitiveBody proves (conservatively) that running the body
// over the map's entries in any order yields identical final state.
func (c *checker) orderInsensitiveBody() bool {
	c.assigned = make(map[types.Object]bool)
	c.returns = 0
	c.effects = false
	ast.Inspect(c.rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // its returns and effects are not the loop's
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				c.markAssigned(lhs)
			}
		case *ast.IncDecStmt:
			c.markAssigned(s.X)
		case *ast.ReturnStmt:
			c.returns++
		case *ast.ExprStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
			c.effects = true
		}
		return true
	})
	return c.stmtsAllowed(c.rs.Body.List)
}

// perIteration reports whether obj is declared inside the loop body or
// range clause — reborn on every entry, so never loop-carried.
func (c *checker) perIteration(obj types.Object) bool {
	return obj.Pos() >= c.rs.Pos() && obj.Pos() < c.rs.End()
}

func (c *checker) markAssigned(lhs ast.Expr) {
	// x = …, x.f = …, x[i] = … all mutate the object named at the root.
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.Ident:
			if obj := c.objOf(e); obj != nil && !c.perIteration(obj) {
				c.assigned[obj] = true
			}
			return
		default:
			return
		}
	}
}

func (c *checker) objOf(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

func (c *checker) stmtsAllowed(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !c.stmtAllowed(s) {
			return false
		}
	}
	return true
}

func (c *checker) stmtAllowed(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assignAllowed(s)
	case *ast.IncDecStmt:
		// n++ / n-- on an integer commutes across iterations.
		return c.isInteger(s.X)
	case *ast.ExprStmt:
		// delete(m, k): deleting a set of keys is order-free.
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		obj := c.pass.TypesInfo.Uses[id]
		b, ok := obj.(*types.Builtin)
		return ok && b.Name() == "delete"
	case *ast.IfStmt:
		// A branch is fine as long as its condition cannot observe
		// earlier iterations: no reads of loop-carried state, and the
		// guarded statements must themselves be order-free.
		if s.Init != nil && !c.stmtAllowed(s.Init) {
			return false
		}
		if !c.pureExpr(s.Cond) {
			return false
		}
		if !c.stmtsAllowed(s.Body.List) {
			return false
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				return c.stmtsAllowed(e.List)
			case *ast.IfStmt:
				return c.stmtAllowed(e)
			default:
				return false
			}
		}
		return true
	case *ast.RangeStmt:
		// A nested loop (copying a map of maps, intersecting sets) is
		// fine when its own body is order-free and it ranges over
		// something order-pure; its loop variables are per-iteration.
		if s.X != nil && !c.pureExpr(s.X) {
			return false
		}
		return c.stmtsAllowed(s.Body.List)
	case *ast.BlockStmt:
		return c.stmtsAllowed(s.List)
	case *ast.DeclStmt:
		// var x T inside the body declares a per-iteration local.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return false
			}
			for _, v := range vs.Values {
				if !c.pureExpr(v) {
					return false
				}
			}
		}
		return true
	case *ast.BranchStmt:
		// continue skips an entry regardless of order; break makes the
		// set of visited entries depend on order.
		return s.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		// The ∃/∀-predicate shape: a single `return <constants>` in an
		// otherwise effect-free body. Whichever entry triggers it the
		// function returns the same constants, and no partial mutation
		// is left behind, so order cannot show. Two return sites (or
		// non-constant results) could disagree between orders.
		if c.returns != 1 || c.effects || len(c.assigned) != 0 {
			return false
		}
		for _, r := range s.Results {
			tv, ok := c.pass.TypesInfo.Types[r]
			if !ok || tv.Value == nil {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (c *checker) assignAllowed(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		// Per-key map writes (out[k] = v) commute because each source
		// key appears exactly once, and writes to per-iteration locals
		// cannot outlive the entry; anything else (x = …, append, the
		// classic "last writer wins") does not commute.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					continue
				}
				if obj := c.objOf(id); obj != nil && c.perIteration(obj) {
					continue
				}
				return false
			}
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				return false
			}
			if t := c.pass.TypesInfo.TypeOf(ix.X); t == nil {
				return false
			} else if _, isMap := t.Underlying().(*types.Map); !isMap {
				return false
			}
		}
		for _, rhs := range s.Rhs {
			if !c.pureExpr(rhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
		token.AND_ASSIGN, token.XOR_ASSIGN:
		// Integer accumulation commutes; float accumulation does not
		// (rounding depends on order — the PR-1 rank bug).
		if len(s.Lhs) != 1 || !c.isInteger(s.Lhs[0]) {
			return false
		}
		return c.pureExpr(s.Rhs[0])
	default:
		return false
	}
}

func (c *checker) isInteger(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pureExpr reports whether evaluating e is independent of iteration
// order: it reads no loop-carried assigned variable, and calls nothing
// but side-effect-free builtins and type conversions (an arbitrary
// function could observe or mutate accumulator state we cannot see).
func (c *checker) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[n]; obj != nil && c.assigned[obj] {
				pure = false
			}
		case *ast.CallExpr:
			if !c.pureCall(n) {
				pure = false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // channel receive
				pure = false
			}
		case *ast.FuncLit:
			pure = false
		}
		return pure
	})
	return pure
}

func (c *checker) pureCall(call *ast.CallExpr) bool {
	// Type conversions are pure.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return false
	}
	switch b.Name() {
	case "len", "cap", "make", "min", "max", "real", "imag", "complex", "new":
		return true
	}
	return false
}

// collectThenSort recognizes the canonical fix idiom:
//
//	for k := range m { keys = append(keys, k) }
//	…
//	sort.Slice(keys, …)   // or slices.Sort*, sort.Strings, …
//
// The body must be a single self-append, and the same slice must later
// flow into a sort call within the enclosing function.
func (c *checker) collectThenSort(fn *ast.FuncDecl) bool {
	if len(c.rs.Body.List) != 1 {
		return false
	}
	as, ok := c.rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return false
	}
	// The destination may be a plain ident (keys) or a field path
	// (st.Keys); it must be appended to itself.
	dstStr := types.ExprString(as.Lhs[0])
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fnID, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := c.pass.TypesInfo.Uses[fnID].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if types.ExprString(call.Args[0]) != dstStr {
		return false
	}

	sorted := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= c.rs.End() {
			return true
		}
		if !c.isSortCall(call) {
			return true
		}
		// The collected slice (or something wrapping it, like
		// dst[start:]) is an argument of the sort call.
		for _, arg := range call.Args {
			hit := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if me, ok := m.(ast.Expr); ok && types.ExprString(me) == dstStr {
					hit = true
				}
				return !hit
			})
			if hit {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// isSortCall recognizes a sorting call: the sort and slices packages'
// entry points, or any function whose name starts with "Sort" (the
// repo's own SortNodes/SortEdges helpers).
func (c *checker) isSortCall(call *ast.CallExpr) bool {
	var obj types.Object
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj, name = c.pass.TypesInfo.Uses[fun.Sel], fun.Sel.Name
	case *ast.Ident:
		obj, name = c.pass.TypesInfo.Uses[fun], fun.Name
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort") {
		return true
	}
	if fn.Pkg() == nil {
		return false
	}
	if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
		return false
	}
	switch name {
	case "Slice", "SliceStable", "Strings", "Ints", "Float64s", "Stable":
		return true
	}
	return false
}
