// Package cacheinvalidation checks that every mutation of an engine's or
// optimizer's statistics/catalog reference is post-dominated by an
// AdvanceEpoch call. Plan-cache anchors hold costs that are deterministic
// in (plan, sv, statistics) and carry the cost epoch they were derived
// under; swapping the statistics store outside the epoch lifecycle leaves
// the cost epoch unmoved, so stale anchors look current, which silently
// corrupts the cost check and with it the λ-guarantee (docs/LINT.md).
// AdvanceEpoch installs the swap as a new statistics generation: anchors
// whose statistics changed lag by construction and revalidate
// (docs/STATS.md).
package cacheinvalidation

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "cacheinvalidation",
	Doc: "require AdvanceEpoch on every path after a stats/catalog swap " +
		"on an engine or optimizer",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// mutatedFields are the selector names whose reassignment invalidates
// costs derived from statistics.
var mutatedFields = map[string]bool{"Stats": true, "Cat": true, "Catalog": true}

// advanceName is the call that performs the invalidation: AdvanceEpoch
// invalidates by construction because derived costs are tagged with their
// cost epoch.
const advanceName = "AdvanceEpoch"

// ownerTypeNames are the types whose Stats/Cat fields feed cost
// computation (matched by name so fixtures can stub them).
var ownerTypeNames = map[string]bool{"Optimizer": true, "TemplateEngine": true, "System": true}

func run(pass *analysis.Pass) (any, error) {
	lintutil.ReportAllowMisuse(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		g := cfgs.FuncDecl(fd)
		if g == nil {
			return
		}
		checkFunc(pass, fd, g)
	})
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, g *cfg.CFG) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || !mutatedFields[sel.Sel.Name] {
				continue
			}
			if !isCostOwner(pass.TypesInfo.TypeOf(sel.X)) {
				continue
			}
			checkAdvanced(pass, g, as, sel.Sel.Name)
		}
		return true
	})
}

// isCostOwner reports whether t is (a pointer to) one of the cost-owning
// struct types.
func isCostOwner(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return ownerTypeNames[named.Obj().Name()]
}

// checkAdvanced verifies that every path from the mutation to function
// exit passes an AdvanceEpoch call (post-domination on the CFG). A
// deferred advance also satisfies the check.
func checkAdvanced(pass *analysis.Pass, g *cfg.CFG, as *ast.AssignStmt, field string) {
	blk, idx, ok := lintutil.FindNode(g, as)
	if !ok {
		return
	}
	isAdvance := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && methodName(call) == advanceName {
				found = true
			}
			return !found
		})
		return found
	}
	if pos, leak := lintutil.LeaksToExit(blk, idx+1, isAdvance, nil, nil); leak {
		detail := ""
		if pos.IsValid() {
			detail = " (path without an advance escapes near line " +
				itoa(pass.Fset.Position(pos).Line) + ")"
		}
		lintutil.Report(pass, as.Pos(),
			"%s swapped without AdvanceEpoch on every following path%s; stale cached costs corrupt the cost check", field, detail)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
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
