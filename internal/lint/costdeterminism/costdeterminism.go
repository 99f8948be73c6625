// Package costdeterminism checks that cost computation is a pure function of
// (plan, selectivity vector, statistics). The cost-epoch tags on anchors,
// the plan fingerprints SCR keys its plan list by, and the differential
// fuzz oracle (docs/PERF.md) all assume float-exact reproducibility, and
// the paper's λ-guarantee is only as sound as the cost model's
// determinism — so inside
// the cost-bearing packages (internal/memo, internal/cost, internal/stats)
// the analyzer forbids:
//
//   - iterating a map while accumulating floats or building fingerprints /
//     hashes (map iteration order is randomized per run);
//   - time.Now / time.Since (wall-clock-dependent costs);
//   - math/rand (randomized costs). Seeded rand in _test.go files is fine;
//     test files are exempt.
package costdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "costdeterminism",
	Doc: "forbid map-iteration-order-dependent float/fingerprint computation, " +
		"wall clocks and math/rand in the cost-bearing packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// scope holds the package path segments the analyzer applies to,
// configurable for other repos via -costdeterminism.scope.
var scope = "memo,cost,stats"

func init() {
	Analyzer.Flags.StringVar(&scope, "scope", scope,
		"comma-separated package path segments the analyzer applies to")
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgInScope(pass.Pkg.Path(), strings.Split(scope, ",")) {
		return nil, nil
	}
	lintutil.ReportAllowMisuse(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	nodeFilter := []ast.Node{
		(*ast.RangeStmt)(nil),
		(*ast.CallExpr)(nil),
		(*ast.ImportSpec)(nil),
	}
	ins.Preorder(nodeFilter, func(n ast.Node) {
		if lintutil.InTestFile(pass, n.Pos()) {
			return
		}
		switch s := n.(type) {
		case *ast.ImportSpec:
			path := strings.Trim(s.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				lintutil.Report(pass, s.Pos(), "math/rand imported in a cost-bearing package; costs must be deterministic in (plan, sv, stats)")
			}
		case *ast.CallExpr:
			if fn := calleePkgFunc(pass, s); fn != nil {
				pkg := fn.Pkg()
				if pkg != nil && pkg.Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
					lintutil.Report(pass, s.Pos(), "time.%s in a cost-bearing package; wall-clock-dependent costs break recost caching and the differential oracle", fn.Name())
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, s)
		}
	})
	return nil, nil
}

func calleePkgFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn
}

// checkMapRange flags map iterations whose body performs order-sensitive
// accumulation: compound float or string accumulation (+=, *=, ... or
// x = x <op> y) or fingerprint/hash construction.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if reason := orderSensitiveAssign(pass, s); reason != "" {
				lintutil.Report(pass, s.Pos(), "map iteration feeds %s; iteration order is randomized, so the result is not reproducible — iterate a sorted key slice instead", reason)
			}
		case *ast.CallExpr:
			if name := methodName(s); name != "" && (strings.Contains(name, "Fingerprint") || strings.Contains(name, "Hash") || name == "WriteString") {
				lintutil.Report(pass, s.Pos(), "map iteration feeds %s; iteration order is randomized, so the fingerprint/hash is not reproducible — iterate a sorted key slice instead", name)
			}
		}
		return true
	})
}

// orderSensitiveAssign reports why an assignment inside a map range is
// order-sensitive, or "" if it is not. Float accumulation is inexact under
// reordering; string concatenation is order-dependent by construction.
// Integer accumulation (exact, commutative) and map/slice inserts are fine.
func orderSensitiveAssign(pass *analysis.Pass, as *ast.AssignStmt) string {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			switch kindOf(pass, lhs) {
			case "float":
				return "float accumulation"
			case "string":
				return "order-dependent string accumulation"
			}
		}
	case token.ASSIGN, token.DEFINE:
		// x = x <op> y with a float/string x.
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			bin, ok := as.Rhs[i].(*ast.BinaryExpr)
			if !ok {
				continue
			}
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if sameIdent(bin.X, lid) || sameIdent(bin.Y, lid) {
				switch kindOf(pass, lhs) {
				case "float":
					return "float accumulation"
				case "string":
					return "order-dependent string accumulation"
				}
			}
		}
	}
	return ""
}

func sameIdent(e ast.Expr, id *ast.Ident) bool {
	other, ok := e.(*ast.Ident)
	return ok && other.Name == id.Name
}

func kindOf(pass *analysis.Pass, e ast.Expr) string {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return ""
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch {
	case basic.Info()&types.IsFloat != 0, basic.Info()&types.IsComplex != 0:
		return "float"
	case basic.Info()&types.IsString != 0:
		return "string"
	}
	return ""
}

func methodName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
