// Package rcupublish machine-checks the part of the serving cache's RCU
// discipline (internal/core/domain.go, docs/PERF.md) that neither the types
// nor the tests enforce, on the typed syntax tree. An owner is any type
// with a flushLocked method, the rebuild-and-store of its snapshot, and an
// atomic.Pointer snapshot field; the fields flushLocked reads through its
// receiver are its master state. Found by structure, not by name, owners
// in the fixtures are checked by the same code as the real write domain.
//
//  3. A reader operation loads the snapshot pointer once and passes it
//     down. Two loads in one operation is a TOCTOU: a writer may publish
//     between them. Loads are summed through same-package callees; writer
//     functions (those that call flushLocked) do not count against their
//     callers, and a function literal is an operation of its own.
//  5. Master fields may only be stored through the owning domain's
//     receiver. A store into another domain's master state bypasses that
//     domain's mutex and publication.
//
// Rules 1, 2 and 4 are gone: docs/LINT.md says what catches their bugs.
package rcupublish

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/lint/lintutil"
)

// flushName is the method that rebuilds and stores an owner's snapshot.
const flushName = "flushLocked"

var Analyzer = &analysis.Analyzer{
	Name:     "rcupublish",
	Doc:      "check the RCU discipline: readers load the snapshot once per operation, master state is stored only through its own domain",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// owner is one RCU-published type: its flushLocked method, its master
// fields and its published snapshot types (atomic.Pointer elements).
type owner struct {
	flush  *ast.FuncDecl
	name   string
	master map[*types.Var]bool
	snaps  []types.Type
}

func run(pass *analysis.Pass) (any, error) {
	lintutil.ReportAllowMisuse(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	decls := map[*types.Func]*ast.FuncDecl{}
	var lits []*ast.FuncLit
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		if lintutil.InTestFile(pass, n.Pos()) {
			return
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		} else if fd := n.(*ast.FuncDecl); fd.Body != nil {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	})
	for fn, fd := range decls {
		if o := ownerOf(pass, fn, fd); o != nil {
			o.checkCrossDomain(pass, decls)
			o.checkSingleLoad(pass, decls, lits)
		}
	}
	return nil, nil
}

// ownerOf returns the owner whose flushLocked method fn is, else nil.
// The master fields are the receiver's own non-atomic fields that
// flushLocked reads; atomics (the snapshot pointer, counters) have their
// own publication semantics.
func ownerOf(pass *analysis.Pass, fn *types.Func, fd *ast.FuncDecl) *owner {
	recv := fn.Type().(*types.Signature).Recv()
	if fn.Name() != flushName || recv == nil {
		return nil
	}
	named := namedOf(recv.Type()) // a receiver's type is always named
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	o := &owner{flush: fd, name: named.Obj().Name(), master: map[*types.Var]bool{}}
	for i := 0; i < st.NumFields(); i++ {
		if elem := atomicPointerElem(st.Field(i).Type()); elem != nil {
			o.snaps = append(o.snaps, elem)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if se, ok := n.(*ast.SelectorExpr); ok && isVar(pass, se.X, recv) {
			if f := fieldOf(pass, se); f != nil && !isAtomic(f.Type()) {
				o.master[f] = true
			}
		}
		return true
	})
	return o
}

// checkCrossDomain reports stores into an owner's master state that do
// not go through the enclosing method's own receiver: a method of another
// type (or a plain function) reaching into someDomain.instances bypasses
// the domain mutex and publication even if it holds some other lock.
// Assignments, increments and the delete and clear builtins are stores.
func (o *owner) checkCrossDomain(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl) {
	for fn, fd := range decls {
		if fd == o.flush {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		check := func(e ast.Expr) {
			if f := o.foreignMaster(pass, e, recv); f != nil {
				lintutil.Report(pass, e.Pos(),
					"cross-domain store to %s.%s: master state may only be mutated through its own domain's methods (the store bypasses that domain's mutex and publication)",
					o.name, f.Name())
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						check(lhs)
					}
				}
			case *ast.IncDecStmt:
				check(n.X)
			case *ast.CallExpr:
				if b, ok := typeutil.Callee(pass.TypesInfo, n).(*types.Builtin); ok &&
					(b.Name() == "delete" || b.Name() == "clear") && len(n.Args) > 0 {
					check(n.Args[0])
				}
			}
			return true
		})
	}
}

// foreignMaster walks a stored-to expression down to its root and returns
// the master field it passes through when that field is not selected
// from recv, the receiver of the function holding the store.
func (o *owner) foreignMaster(pass *analysis.Pass, e ast.Expr, recv *types.Var) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if f := fieldOf(pass, x); f != nil && o.master[f] {
				if recv != nil && isVar(pass, x.X, recv) {
					return nil
				}
				return f
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkSingleLoad reports every function declaration or literal whose
// operation loads the snapshot pointer at two or more call sites, counting
// a same-package callee's loads at the call that reaches it.
func (o *owner) checkSingleLoad(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, lits []*ast.FuncLit) {
	type summary struct {
		total int
		sites []token.Pos
	}
	memo := map[*ast.BlockStmt]*summary{}
	var analyze func(body *ast.BlockStmt) *summary
	analyze = func(body *ast.BlockStmt) *summary {
		if s, ok := memo[body]; ok {
			return s // a recursive call sees the partial summary
		}
		s := &summary{}
		memo[body] = s
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if o.isSnapLoad(pass, n) {
					s.total++
					s.sites = append(s.sites, n.Pos())
				} else if fn := typeutil.StaticCallee(pass.TypesInfo, n); fn != nil {
					callee := decls[fn.Origin()]
					if callee == nil || writerSide(callee.Body) {
						return true
					}
					if sub := analyze(callee.Body); sub.total > 0 {
						s.total += sub.total
						s.sites = append(s.sites, n.Pos())
					}
				}
			}
			return true
		})
		return s
	}
	report := func(s *summary) {
		if s.total >= 2 && len(s.sites) >= 2 {
			lintutil.Report(pass, s.sites[1],
				"snapshot pointer loaded %d times in one operation (TOCTOU: a writer may publish between the loads); load it once and pass it down",
				s.total)
		}
	}
	for _, fd := range decls {
		if fd.Name.Name != flushName && !writerSide(fd.Body) {
			report(analyze(fd.Body))
		}
	}
	for _, lit := range lits {
		if !writerSide(lit.Body) {
			report(analyze(lit.Body))
		}
	}
}

// writerSide reports whether body publishes, calling flushLocked. Writer
// functions (unlock, init) load the snapshot for the version bump under
// the mutex, not for a read decision.
func writerSide(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if se, ok := n.(*ast.SelectorExpr); ok && se.Sel.Name == flushName {
			found = true
		}
		return !found
	})
	return found
}

// isSnapLoad reports whether c is a Load on an atomic.Pointer holding one
// of the owner's snapshot types.
func (o *owner) isSnapLoad(pass *analysis.Pass, c *ast.CallExpr) bool {
	se, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
	if !ok || se.Sel.Name != "Load" {
		return false
	}
	elem := atomicPointerElem(pass.TypesInfo.TypeOf(se.X))
	return elem != nil && slices.ContainsFunc(o.snaps, func(s types.Type) bool { return types.Identical(elem, s) })
}

// isVar reports whether e names the variable v.
func isVar(pass *analysis.Pass, e ast.Expr, v *types.Var) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && v != nil && pass.TypesInfo.Uses[id] == v
}

// fieldOf returns the field se selects directly (not through an embedded
// field), else nil.
func fieldOf(pass *analysis.Pass, se *ast.SelectorExpr) *types.Var {
	sel := pass.TypesInfo.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal || len(sel.Index()) != 1 {
		return nil
	}
	f, _ := sel.Obj().(*types.Var)
	return f
}

func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isAtomic(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// atomicPointerElem returns T for sync/atomic.Pointer[T] or a pointer to
// one, else nil.
func atomicPointerElem(t types.Type) types.Type {
	n := namedOf(t)
	if n == nil || !isAtomic(n) || n.Obj().Name() != "Pointer" || n.TypeArgs().Len() != 1 {
		return nil
	}
	return n.TypeArgs().At(0)
}
