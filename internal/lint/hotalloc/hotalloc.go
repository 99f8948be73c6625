// Package hotalloc enforces the per-call allocation budget of the
// serving hot path (docs/PERF.md): Process and the functions it reaches
// must not allocate beyond the budgeted decision object, or tail latency
// regresses under concurrency.
//
// Over the ssalite IR, the analyzer walks the static same-package call
// graph from the configured roots (Process, getPlan, minCostPlan and the
// re-costing entry points by default) and flags, in every reachable
// function:
//
//   - make of slices, maps and channels;
//   - append calls whose backing slice does not provably come from a
//     capacity-preallocated make in the same function (growth realloc);
//   - escaping closures: a func literal passed to a call, returned, or
//     stored into a structure forces its captures onto the heap. Purely
//     local closures (assigned to a variable and invoked in place) and
//     deferred literals stay off the heap and pass;
//   - interface boxing of non-pointer concrete values (the boxed copy
//     allocates; pointers ride in the interface word for free);
//   - heap composite literals and new(T), except for the budgeted result
//     types (-hotalloc.budget, default Decision).
//
// Cold helpers that the walk would otherwise drag in (publishers, snapshot
// rebuilds) carry a decl-level //lint:allow hotalloc <reason>, which prunes
// them and their callees from the walk; single sites on the miss path are
// excused the same way inline. The walk does not descend into function
// literals: a closure on the hot path is flagged at its creation site,
// which is the allocation.
package hotalloc

import (
	"flag"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/ssalite"
)

var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Doc:      "flag allocation sites reachable from the serving hot path that break the per-call allocation budget",
	Flags:    flags(),
	Requires: []*analysis.Analyzer{ssalite.Analyzer},
	Run:      run,
}

// scope lists the package path segments the check applies to.
var scope = []string{"core", "engine", "memo", "hot", "hotseed"}

var (
	rootsFlag  = "Process,getPlan,minCostPlan,Recost,RecostPlanWith"
	budgetFlag = "Decision"
)

func flags() flag.FlagSet {
	fs := flag.NewFlagSet("hotalloc", flag.ExitOnError)
	fs.StringVar(&rootsFlag, "roots", rootsFlag,
		"comma-separated function/method names rooting the hot-path call graph")
	fs.StringVar(&budgetFlag, "budget", budgetFlag,
		"comma-separated type names whose heap allocation is budgeted (exempt)")
	return *fs
}

func splitList(s string) map[string]bool {
	out := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out[f] = true
		}
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgInScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	lintutil.ReportAllowMisuse(pass)
	ssa := pass.ResultOf[ssalite.Analyzer].(*ssalite.SSA)
	roots := splitList(rootsFlag)
	budget := splitList(budgetFlag)

	// Name → declared functions (methods of different types may share a
	// name; the walk follows all of them, conservatively).
	byName := map[string][]*ssalite.Function{}
	for _, fn := range ssa.Funcs {
		if fn.Decl != nil {
			byName[fn.Name] = append(byName[fn.Name], fn)
		}
	}

	// pruned: a decl-level allow excuses the function and, through it,
	// everything only reachable via its body.
	pruned := func(fn *ssalite.Function) bool {
		return fn.Decl != nil && lintutil.Allowed(pass, fn.Decl.Pos(), "hotalloc")
	}

	// BFS over the static call graph; rootOf records attribution.
	rootOf := map[*ssalite.Function]string{}
	var queue []*ssalite.Function
	for _, fn := range ssa.Funcs {
		if fn.Decl == nil || !roots[fn.Name] || fn.Incomplete {
			continue
		}
		if lintutil.InTestFile(pass, fn.Decl.Pos()) || pruned(fn) {
			continue
		}
		rootOf[fn] = fn.Name
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fn.Instrs(func(in ssalite.Instruction) {
			c, ok := in.(*ssalite.Call)
			if !ok {
				return
			}
			for _, callee := range byName[c.CalleeName()] {
				if callee == fn || callee.Incomplete {
					continue
				}
				if _, seen := rootOf[callee]; seen || pruned(callee) {
					continue
				}
				if lintutil.InTestFile(pass, callee.Decl.Pos()) {
					continue
				}
				rootOf[callee] = rootOf[fn]
				queue = append(queue, callee)
			}
		})
	}

	for fn, root := range rootOf {
		checkFunc(pass, fn, root, budget)
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ssalite.Function, root string, budget map[string]bool) {
	prealloc := preallocatedCells(fn)
	escaping := escapingClosures(fn)
	report := func(pos token.Pos, what string) {
		lintutil.Report(pass, pos,
			"%s in %s (hot path via %s) breaks the per-call allocation budget; preallocate, hoist, or justify with lint:allow",
			what, fn.Name, root)
	}
	fn.Instrs(func(in ssalite.Instruction) {
		switch in := in.(type) {
		case *ssalite.MakeSlice:
			report(in.Pos(), "make of a slice")
		case *ssalite.MakeMap:
			report(in.Pos(), "make of a map")
		case *ssalite.MakeChan:
			report(in.Pos(), "make of a channel")
		case *ssalite.Append:
			if !fromPrealloc(in.Slice, prealloc, 0) {
				report(in.Pos(), "append growth over a non-preallocated slice")
			}
		case *ssalite.MakeClosure:
			if escaping[in] {
				report(in.Pos(), "escaping closure allocation (captured variables move to the heap)")
			}
		case *ssalite.MakeInterface:
			if t := concreteNonPointer(in.X, pass.Pkg); t != "" {
				report(in.Pos(), "interface boxing of "+t)
			}
		case *ssalite.Call:
			// Implicit boxing: a concrete non-pointer argument passed to
			// an interface parameter of a same-package callee. (Calls into
			// other packages — error formatting and the like — are the
			// slow path's business and are not second-guessed here.)
			if in.Callee == nil || in.Callee.Pkg() != pass.Pkg {
				return
			}
			sig, ok := in.Callee.Type().(*types.Signature)
			if !ok {
				return
			}
			params := sig.Params()
			for i, arg := range in.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					if params.Len() > 0 {
						if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
							pt = sl.Elem()
						}
					}
				case i < params.Len():
					pt = params.At(i).Type()
				}
				if pt == nil {
					continue
				}
				if _, isIface := pt.Underlying().(*types.Interface); !isIface {
					continue
				}
				if t := concreteNonPointer(arg, pass.Pkg); t != "" {
					report(arg.Pos(), "interface boxing of "+t)
				}
			}
		case *ssalite.AllocLit:
			if in.Heap {
				if name := typeName(in.Type()); !budget[name] {
					what := "heap allocation"
					if name != "" {
						what += " of " + name
					}
					report(in.Pos(), what)
				}
			}
		}
	})
}

// escapingClosures returns the MakeClosures of fn whose value escapes:
// used as a call argument (defers exempt — open-coded), returned, sent,
// stored into a structure, appended, or boxed. A closure only assigned to
// a local variable and invoked in place does not escape; loads of a cell
// holding a closure escape the stored closures when the load escapes.
func escapingClosures(fn *ssalite.Function) map[*ssalite.MakeClosure]bool {
	byCell := map[*ssalite.Cell][]*ssalite.MakeClosure{}
	fn.Instrs(func(in ssalite.Instruction) {
		if st, ok := in.(*ssalite.Store); ok {
			if c, ok := st.Addr.(*ssalite.Cell); ok {
				if mc, ok := st.Val.(*ssalite.MakeClosure); ok {
					byCell[c] = append(byCell[c], mc)
				}
			}
		}
	})
	out := map[*ssalite.MakeClosure]bool{}
	flag := func(v ssalite.Value) {
		switch v := v.(type) {
		case *ssalite.MakeClosure:
			out[v] = true
		case *ssalite.Load:
			if c, ok := v.Addr.(*ssalite.Cell); ok {
				for _, mc := range byCell[c] {
					out[mc] = true
				}
			}
		}
	}
	fn.Instrs(func(in ssalite.Instruction) {
		switch in := in.(type) {
		case *ssalite.Call:
			if in.IsDefer {
				return
			}
			for _, a := range in.Args {
				flag(a)
			}
		case *ssalite.Return:
			for _, r := range in.Results {
				flag(r)
			}
		case *ssalite.Store:
			if _, toCell := in.Addr.(*ssalite.Cell); !toCell {
				flag(in.Val)
			}
		case *ssalite.Send:
			flag(in.Val)
		case *ssalite.MapUpdate:
			flag(in.Val)
		case *ssalite.Append:
			for _, a := range in.Args {
				flag(a)
			}
		case *ssalite.MakeInterface:
			flag(in.X)
		}
	})
	return out
}

// preallocatedCells returns the cells that only ever hold a
// capacity-preallocated slice: assigned from make(T, n, c) or from an
// append over such a cell. Appends into them cannot grow within the
// budgeted capacity.
func preallocatedCells(fn *ssalite.Function) map[*ssalite.Cell]bool {
	ok := map[*ssalite.Cell]bool{}
	for changed := true; changed; {
		changed = false
		fn.Instrs(func(in ssalite.Instruction) {
			st, isStore := in.(*ssalite.Store)
			if !isStore {
				return
			}
			c, isCell := st.Addr.(*ssalite.Cell)
			if !isCell || ok[c] {
				return
			}
			switch v := st.Val.(type) {
			case *ssalite.MakeSlice:
				if v.Cap != nil {
					ok[c] = true
					changed = true
				}
			case *ssalite.Append:
				if fromPrealloc(v.Slice, ok, 0) {
					ok[c] = true
					changed = true
				}
			}
		})
	}
	return ok
}

func fromPrealloc(v ssalite.Value, prealloc map[*ssalite.Cell]bool, depth int) bool {
	if depth > 8 {
		return false
	}
	switch v := v.(type) {
	case *ssalite.Load:
		if c, ok := v.Addr.(*ssalite.Cell); ok {
			return prealloc[c]
		}
	case *ssalite.MakeSlice:
		return v.Cap != nil
	case *ssalite.Append:
		return fromPrealloc(v.Slice, prealloc, depth+1)
	case *ssalite.Slice:
		return fromPrealloc(v.X, prealloc, depth+1)
	}
	return false
}

// concreteNonPointer returns the display name of v's type when boxing it
// into an interface allocates: a concrete non-pointer type. Pointers,
// interfaces and unknown types return "".
func concreteNonPointer(v ssalite.Value, from *types.Package) string {
	if v == nil {
		return ""
	}
	t := v.Type()
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map, *types.Slice:
		// Pointer-shaped values ride in the interface data word (or are
		// reference types whose header boxing is what the other checks
		// already account for).
		return ""
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return ""
	}
	return types.TypeString(t, types.RelativeTo(from))
}

// typeName returns the bare named-type name of t (through pointers).
func typeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
