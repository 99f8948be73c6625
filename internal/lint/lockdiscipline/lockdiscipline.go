// Package lockdiscipline checks the lock protocol SCR's concurrent serving
// depends on (docs/PERF.md): no blocking engine call (Optimize / Recost /
// PrepareRecost / Process) while a write lock is held, no RLock→Lock
// upgrades (self-deadlock under Go's writer-preferring RWMutex), no path
// that returns with a lock still held, manual Unlock in multi-return
// functions (where a missed path is one refactor away) is flagged in favor
// of defer, and — since the read path went lock-free — no RLock (or rlock
// wrapper) acquisition anywhere in the Process/getPlan/minCostPlan hot-path
// call graph: the serving path reads the published RCU snapshot and must
// never touch a lock's cache line. An audited exception carries
// `//lint:allow lockdiscipline <reason>`.
//
// The analysis is intraprocedural over each function's CFG; the hot-path
// rule additionally walks a name-based same-package call graph from the
// hot roots. The repo's lock/rlock wrapper methods (which charge lock-wait
// counters) are treated as Lock/RLock on their receiver.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"sort"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"repro/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "check SCR's lock protocol: no blocking engine calls under the " +
		"write lock, no RLock→Lock upgrades, deferred Unlock in multi-return functions, " +
		"no read-lock acquisitions in the lock-free Process hot path",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

// blockingCalls are the engine/optimizer entry points that may block for an
// optimizer-call duration; holding the SCR write lock across one convoys
// every reader behind a plan search.
var blockingCalls = map[string]bool{
	"Optimize":       true,
	"Recost":         true,
	"PrepareRecost":  true,
	"RecostWith":     true,
	"RecostPlanWith": true,
	"Process":        true,
	// Coordinator RPCs block for a network round trip (with retries and
	// backoff); holding the coordinator's lock across one stalls probe and
	// status rollups for every other member.
	"rpcPushEpoch":     true,
	"rpcHealthz":       true,
	"rpcClusterStatus": true,
	"rpcAdminEpochs":   true,
	"rpcGetJSON":       true,
}

// wrapperNames are lock-acquisition/release wrapper methods that hold or
// release a lock across their own return on purpose.
var wrapperNames = map[string]bool{
	"lock": true, "rlock": true, "unlock": true, "runlock": true,
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
}

// hotPathRoots are the serving-path entry points. Since the RCU refactor,
// everything reachable from them (same package) runs lock-free off the
// published snapshot; a read-lock acquisition anywhere in that call graph
// reintroduces the shared reader-count cache line and writer convoys the
// refactor removed. Revalidate's lag walk and the degraded-fallback
// ranking run concurrently with foreground traffic over the same
// snapshot, so they are held to the same rule: a read lock there would
// stall every Process call behind the background sweep.
var hotPathRoots = map[string]bool{
	"Process":         true,
	"getPlan":         true,
	"minCostPlan":     true,
	"Revalidate":      true,
	"revalidateEntry": true,
	"rankFallback":    true,
}

// lockState is the per-mutex abstract state.
type lockState int

const (
	unlocked lockState = iota
	rLocked
	wLocked
)

// mutexOp classifies one lock-related call site.
type mutexOp struct {
	key      types.Object // root object owning the mutex (e.g. the SCR receiver)
	read     bool         // RLock / RUnlock
	acquire  bool         // Lock/RLock vs Unlock/RUnlock
	deferred bool
	call     *ast.CallExpr
}

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
	checkHotPath(pass, ins)
	return nil, nil
}

// checkHotPath enforces the lock-free serving-path invariant: no RLock (or
// rlock wrapper) acquisition in any function reachable, via same-package
// calls, from a hotPathRoots entry point. The call graph is name-based and
// intraprocedural — call sites that type-resolve to a function declared in
// this package add an edge — which is sound for the flat method set of the
// core package and cheap enough to run on every build.
func checkHotPath(pass *analysis.Pass, ins *inspector.Inspector) {
	// First pass: declared functions and their same-package callees.
	decls := map[string]*ast.FuncDecl{}
	callees := map[string][]string{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		name := fd.Name.Name
		decls[name] = fd
		ast.Inspect(fd.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *ast.Ident
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = fun
			case *ast.SelectorExpr:
				callee = fun.Sel
			default:
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[callee].(*types.Func); ok && fn.Pkg() == pass.Pkg {
				callees[name] = append(callees[name], fn.Name())
			}
			return true
		})
	})

	// Reachability from the hot roots, visited in sorted order so a
	// function reachable from several roots is attributed deterministically.
	// Lock wrapper bodies are excluded: the acquisition is reported at their
	// call site, where the hot-path context is visible.
	hot := map[string]string{} // function name → root it is reachable from
	roots := make([]string, 0, len(hotPathRoots))
	for r := range hotPathRoots {
		if _, ok := decls[r]; ok {
			roots = append(roots, r)
			hot[r] = r
		}
	}
	sort.Strings(roots)
	var visit func(name, root string)
	visit = func(name, root string) {
		for _, c := range callees[name] {
			if _, seen := hot[c]; seen || wrapperNames[c] {
				continue
			}
			if _, declared := decls[c]; !declared {
				continue
			}
			hot[c] = root
			visit(c, root)
		}
	}
	for _, root := range roots {
		visit(root, root)
	}

	for name, root := range hot {
		fd := decls[name]
		in := ""
		if name != root {
			in = " (in " + name + ")"
		}
		ast.Inspect(fd.Body, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, isLock := classify(pass, call, false); isLock && op.acquire && op.read {
				lintutil.Report(pass, call.Pos(),
					"read lock acquired on the %s hot path%s: the serving path is lock-free by design — read the published snapshot instead, or annotate an audited exception with //lint:allow",
					root, in)
			}
			return true
		})
	}
}

// classify returns the mutexOp for call, or ok=false if it is not a lock
// operation. Recognized: methods Lock/RLock/Unlock/RUnlock on sync.Mutex /
// sync.RWMutex values (usually fields), and this repo's wrapper methods
// lock()/rlock() (lock-wait-counting acquires) and unlock()/runlock()
// (releases — the write-domain unlock also publishes the snapshot) on a
// receiver owning such a mutex.
func classify(pass *analysis.Pass, call *ast.CallExpr, deferred bool) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	op := mutexOp{deferred: deferred, call: call}
	switch sel.Sel.Name {
	case "Lock":
		op.acquire = true
	case "RLock":
		op.acquire, op.read = true, true
	case "Unlock":
	case "RUnlock":
		op.read = true
	case "lock":
		op.acquire = true
	case "rlock":
		op.acquire, op.read = true, true
	case "unlock":
	case "runlock":
		op.read = true
	default:
		return mutexOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if !isSyncMutex(pass.TypesInfo.TypeOf(sel.X)) {
			return mutexOp{}, false
		}
	default:
		// Wrapper methods must resolve to a method in this package.
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() != pass.Pkg {
			return mutexOp{}, false
		}
	}
	op.key = rootObj(pass, sel.X)
	if op.key == nil {
		return mutexOp{}, false
	}
	return op, true
}

func isSyncMutex(t types.Type) bool {
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
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// rootObj resolves the base identifier of a selector chain: s.mu → s.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkFunc runs the dataflow over one function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, g *cfg.CFG) {
	// Collect lock ops per CFG node, plus function-wide facts.
	opsAt := map[ast.Node][]mutexOp{}
	deferredUnlocks := map[types.Object]bool{}
	manualUnlocks := []mutexOp{}
	returns := 0
	hasLockOps := false

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // nested functions are checked separately
		case *ast.ReturnStmt:
			returns++
		case *ast.DeferStmt:
			if op, ok := classify(pass, s.Call, true); ok {
				hasLockOps = true
				if !op.acquire {
					deferredUnlocks[op.key] = true
				}
			}
			return false
		case *ast.CallExpr:
			if op, ok := classify(pass, s, false); ok {
				hasLockOps = true
				opsAt[findStmtNode(g, s)] = append(opsAt[findStmtNode(g, s)], op)
				if !op.acquire {
					manualUnlocks = append(manualUnlocks, op)
				}
			}
		}
		return true
	})
	if !hasLockOps {
		return
	}

	// Style rule: manual Unlock in a function with several return paths.
	if returns >= 2 && len(manualUnlocks) > 0 {
		op := manualUnlocks[0]
		name := "Unlock"
		if op.read {
			name = "RUnlock"
		}
		lintutil.Report(pass, op.call.Pos(),
			"manual %s in %s, which has %d return statements; a new return path can leak the lock — use defer (extract a helper if the critical section must stay small)",
			name, fd.Name.Name, returns)
	}

	// Dataflow: propagate per-key lock states over the CFG.
	type stateMap map[types.Object]lockState
	in := make([]stateMap, len(g.Blocks))
	cloneInto := func(dst, src stateMap) {
		for k, v := range src {
			dst[k] = v
		}
	}
	// merge: conflicting states degrade to the weaker claim (unlocked) so
	// joins never produce false "held" reports.
	merge := func(dst stateMap, src stateMap) bool {
		changed := false
		for k, v := range src {
			if cur, ok := dst[k]; !ok {
				dst[k] = v
				changed = true
			} else if cur != v {
				if cur != unlocked {
					dst[k] = unlocked
					changed = true
				}
			}
		}
		return changed
	}

	reported := map[ast.Node]bool{}
	var apply func(st stateMap, n ast.Node)
	apply = func(st stateMap, n ast.Node) {
		// Lock ops attached to this CFG node.
		for _, op := range opsAt[n] {
			switch {
			case op.acquire && !op.read:
				if st[op.key] == rLocked {
					if !reported[n] {
						reported[n] = true
						lintutil.Report(pass, op.call.Pos(), "RLock→Lock upgrade: Go's RWMutex self-deadlocks when a reader waits for its own writer")
					}
				}
				st[op.key] = wLocked
			case op.acquire && op.read:
				st[op.key] = rLocked
			default:
				st[op.key] = unlocked
			}
		}
		// Blocking engine calls while a write lock is held.
		heldAny := false
		for _, v := range st {
			if v == wLocked {
				heldAny = true
			}
		}
		if heldAny {
			ast.Inspect(n, func(c ast.Node) bool {
				if _, ok := c.(*ast.FuncLit); ok {
					return false
				}
				call, ok := c.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isLockOpCall(pass, call) {
					return true
				}
				if name := methodName(call); blockingCalls[name] && !reported[call] {
					reported[call] = true
					lintutil.Report(pass, call.Pos(), "%s called while the write lock is held; optimizer-call latency convoys every waiting reader — move it outside the critical section", name)
				}
				return true
			})
		}
		// Returning with a lock still held and no deferred unlock. Lock
		// wrapper methods (lock/rlock and friends) return holding the lock
		// by design; their callers are checked instead.
		if ret, ok := n.(*ast.ReturnStmt); ok && !wrapperNames[fd.Name.Name] {
			for k, v := range st {
				if v != unlocked && !deferredUnlocks[k] && !reported[n] {
					reported[n] = true
					lintutil.Report(pass, ret.Pos(), "return with %s still held and no deferred unlock", lockName(v))
				}
			}
		}
	}

	// Iterate to fixpoint.
	for i := range in {
		in[i] = stateMap{}
	}
	work := []int32{0}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := g.Blocks[bi]
		st := stateMap{}
		cloneInto(st, in[bi])
		for _, n := range b.Nodes {
			apply(st, n)
		}
		for _, succ := range b.Succs {
			if merge(in[succ.Index], st) {
				work = append(work, succ.Index)
			}
		}
	}
	// Implicit return at the end of the function: exit blocks with no
	// explicit ReturnStmt still must not hold a lock... except the idiomatic
	// final manual Unlock leaves state clean, so only explicit returns are
	// checked above; the implicit-exit case is covered by the multi-return
	// style rule and the deferred-unlock idiom.
}

func lockName(v lockState) string {
	if v == rLocked {
		return "the read lock"
	}
	return "the write lock"
}

func isLockOpCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	_, ok := classify(pass, call, false)
	return ok
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

// findStmtNode maps an expression to the CFG node (statement) containing it,
// by position containment; lock calls appear inside ExprStmts or larger
// statements.
func findStmtNode(g *cfg.CFG, e ast.Expr) ast.Node {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= e.Pos() && e.End() <= n.End() {
				return n
			}
		}
	}
	return e
}
