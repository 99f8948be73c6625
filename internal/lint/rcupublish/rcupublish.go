// Package rcupublish machine-checks the copy-on-write RCU publication
// discipline of the serving cache (internal/core/domain.go, docs/PERF.md).
// An owner is a type with a flushLocked method — the rebuild-and-store of
// its snapshot — and an atomic.Pointer snapshot field; the fields
// flushLocked reads are its master state. Publication itself needs no
// check: every critical section of an owner ends in unlock, which calls
// flushLocked, so there is no mark a mutation could forget. The analyzer
// checks what the types cannot:
//
//  2. Published snapshots are immutable. No store may go through a value
//     reachable from a published snapshot: a snapshot-pointer load, a
//     parameter of the snapshot type, or the result of a helper that
//     returns published state (e.g. snapshot()). Mutable side channels
//     are fields of sync/atomic types, whose updates are method calls,
//     not stores — those pass.
//  3. A reader operation loads the snapshot pointer exactly once and
//     passes it down. Two loads in one operation is a TOCTOU: a writer
//     may publish between them, and the operation acts on two different
//     cache states. Loads made on behalf of the writer path (functions
//     that call flushLocked) do not count against their callers.
//  5. Per-domain write discipline: master fields may only be stored
//     through the owning domain's receiver. A store that reaches another
//     domain's master state (a "cross-domain store") bypasses that
//     domain's mutex and publication and is reported wherever it appears.
//
// Rules 1 (every mutation is followed by a publication mark) and 4 (unlock
// flushes the marks) were deleted with the marks themselves; the rule
// numbers are kept so docs/LINT.md and older notes stay readable.
//
// The analyzer is structural, not name-bound: any package type with a
// flushLocked method and an atomic.Pointer snapshot field is checked,
// which is what lets the fixture packages model the real write domain.
package rcupublish

import (
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/ssalite"
)

// flushName is the method that rebuilds and stores an owner's snapshot.
const flushName = "flushLocked"

var Analyzer = &analysis.Analyzer{
	Name:     "rcupublish",
	Doc:      "check the RCU publication discipline: published snapshots stay immutable, readers load the snapshot once, master state is stored only through its own domain",
	Requires: []*analysis.Analyzer{ssalite.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (any, error) {
	lintutil.ReportAllowMisuse(pass)
	ssa := pass.ResultOf[ssalite.Analyzer].(*ssalite.SSA)
	for _, o := range findOwners(pass, ssa) {
		o.checkCrossDomain()
		o.checkEscape()
		o.checkSingleLoad()
	}
	return nil, nil
}

// owner is one RCU-published type: it has a flushLocked method, master
// fields that method rebuilds from, and (usually) an atomic.Pointer
// snapshot field.
type owner struct {
	pass   *analysis.Pass
	ssa    *ssalite.SSA
	typ    *types.Named
	flush  *ssalite.Function
	master map[*types.Var]bool
	// snapTypes are the element types of the owner's atomic.Pointer
	// fields: the published snapshot type(s).
	snapTypes []types.Type
}

func findOwners(pass *analysis.Pass, ssa *ssalite.SSA) []*owner {
	var owners []*owner
	for _, fn := range ssa.Funcs {
		if fn.Decl == nil || fn.Name != flushName || fn.Recv == nil || fn.Incomplete {
			continue
		}
		if lintutil.InTestFile(pass, fn.Decl.Pos()) {
			continue
		}
		named := namedOf(fn.Recv.Type())
		if named == nil || structOf(named) == nil {
			continue
		}
		o := &owner{pass: pass, ssa: ssa, typ: named, flush: fn, master: map[*types.Var]bool{}}
		o.findMaster()
		o.findSnapTypes()
		owners = append(owners, o)
	}
	return owners
}

// findMaster collects the owner fields flushLocked reads: those are the
// master state the snapshot is rebuilt from. Fields of sync/atomic types
// are excluded — the snapshot pointer itself, counters — since they have
// their own publication semantics.
func (o *owner) findMaster() {
	st := structOf(o.typ)
	o.flush.Instrs(func(in ssalite.Instruction) {
		fa, ok := in.(*ssalite.FieldAddr)
		if !ok || fa.Field == nil || !derivesFromRecv(fa.X, o.flush) {
			return
		}
		if !isStructField(st, fa.Field) || isAtomicType(fa.Field.Type()) {
			return
		}
		o.master[fa.Field] = true
	})
}

func (o *owner) findSnapTypes() {
	st := structOf(o.typ)
	for i := 0; i < st.NumFields(); i++ {
		if elem := atomicPointerElem(st.Field(i).Type()); elem != nil {
			o.snapTypes = append(o.snapTypes, elem)
		}
	}
}

// ---- check 5: no cross-domain stores ----

// checkCrossDomain reports stores into an owner's master state that do not
// go through that domain's own receiver: a method of another type (or a
// plain function) reaching into someDomain.instances bypasses the domain
// mutex/publication discipline even if the enclosing code holds some other
// lock. Function literals are skipped — they have no receiver, so the
// derivation test cannot distinguish a captured owner receiver from a
// foreign domain.
func (o *owner) checkCrossDomain() {
	for _, fn := range o.ssa.Funcs {
		if fn.Decl == nil || fn.Incomplete || fn == o.flush {
			continue
		}
		if lintutil.InTestFile(o.pass, fn.Decl.Pos()) {
			continue
		}
		fn.Instrs(func(in ssalite.Instruction) {
			var addr ssalite.Value
			switch in := in.(type) {
			case *ssalite.Store:
				addr = in.Addr
			case *ssalite.MapUpdate:
				addr = in.Map
			case *ssalite.MapDelete:
				addr = in.Map
			default:
				return
			}
			if f := o.foreignMasterRoot(addr, fn, 0); f != nil {
				lintutil.Report(o.pass, in.Pos(),
					"cross-domain store to %s.%s: master state may only be mutated through its own domain's methods (the store bypasses that domain's mutex and publication)",
					o.typ.Obj().Name(), f.Name())
			}
		})
	}
}

// foreignMasterRoot walks an address (or map value) back to a master field
// access and returns the field when the access does NOT derive from fn's
// receiver — i.e. it reaches into a foreign domain.
func (o *owner) foreignMasterRoot(v ssalite.Value, fn *ssalite.Function, depth int) *types.Var {
	if depth > 32 {
		return nil
	}
	switch v := v.(type) {
	case *ssalite.FieldAddr:
		if v.Field != nil && o.master[v.Field] {
			if derivesFromRecv(v.X, fn) {
				return nil
			}
			return v.Field
		}
		return o.foreignMasterRoot(v.X, fn, depth+1)
	case *ssalite.IndexAddr:
		return o.foreignMasterRoot(v.X, fn, depth+1)
	case *ssalite.Load:
		return o.foreignMasterRoot(v.Addr, fn, depth+1)
	case *ssalite.Slice:
		return o.foreignMasterRoot(v.X, fn, depth+1)
	case *ssalite.Append:
		return o.foreignMasterRoot(v.Slice, fn, depth+1)
	}
	return nil
}

// ---- check 2: published snapshots are immutable ----

func (o *owner) checkEscape() {
	if len(o.snapTypes) == 0 {
		return
	}

	// Interprocedural summary: which package functions return a value
	// derived from published state (snapshot(), snapshotPlans(), ...)?
	returnsPublished := map[*ssalite.Function]bool{}
	for changed := true; changed; {
		changed = false
		for _, fn := range o.ssa.Funcs {
			if returnsPublished[fn] || fn.Incomplete {
				continue
			}
			tainted := o.taint(fn, returnsPublished, false)
			leak := false
			fn.Instrs(func(in ssalite.Instruction) {
				if r, ok := in.(*ssalite.Return); ok {
					for _, res := range r.Results {
						if tainted[res] {
							leak = true
						}
					}
				}
			})
			if leak {
				returnsPublished[fn] = true
				changed = true
			}
		}
	}

	for _, fn := range o.ssa.Funcs {
		if fn.Incomplete {
			continue
		}
		pos := funcPos(fn)
		if pos.IsValid() && lintutil.InTestFile(o.pass, pos) {
			continue
		}
		tainted := o.taint(fn, returnsPublished, true)
		fn.Instrs(func(in ssalite.Instruction) {
			var addr ssalite.Value
			switch in := in.(type) {
			case *ssalite.Store:
				addr = in.Addr
			case *ssalite.MapUpdate:
				if tainted[in.Map] {
					o.reportEscape(in.Pos())
				}
				return
			case *ssalite.MapDelete:
				if tainted[in.Map] {
					o.reportEscape(in.Pos())
				}
				return
			default:
				return
			}
			switch a := addr.(type) {
			case *ssalite.FieldAddr:
				if tainted[a.X] || tainted[a] {
					o.reportEscape(in.Pos())
				}
			case *ssalite.IndexAddr:
				if tainted[a.X] || tainted[a] {
					o.reportEscape(in.Pos())
				}
			case *ssalite.Load: // *p = v
				if tainted[a] {
					o.reportEscape(in.Pos())
				}
			}
		})
	}
}

func (o *owner) reportEscape(pos token.Pos) {
	lintutil.Report(o.pass, pos,
		"store through a published %s snapshot (published state is immutable: copy into the master state instead and let unlock publish it)",
		o.typ.Obj().Name())
}

// taint runs a flow-insensitive taint pass over fn. Sources: snapshot
// pointer loads, calls to functions known to return published state, and
// (when taintParams is set) parameters of the snapshot type.
func (o *owner) taint(fn *ssalite.Function, returnsPublished map[*ssalite.Function]bool, taintParams bool) map[ssalite.Value]bool {
	vals := map[ssalite.Value]bool{}
	cells := map[*ssalite.Cell]bool{}
	if taintParams {
		for _, c := range fn.Cells() {
			if c.IsParam && o.isSnapType(c.Type()) {
				cells[c] = true
			}
		}
	}
	isSource := func(v ssalite.Value) bool {
		c, ok := v.(*ssalite.Call)
		if !ok {
			return false
		}
		if o.isSnapLoad(c) {
			return true
		}
		if c.Callee != nil {
			if callee, ok := o.ssa.DeclFunc[c.Callee]; ok && returnsPublished[callee] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		mark := func(v ssalite.Value) {
			if v != nil && !vals[v] {
				vals[v] = true
				changed = true
			}
		}
		fn.Instrs(func(in ssalite.Instruction) {
			v, isVal := in.(ssalite.Value)
			if isVal && !vals[v] && isSource(v) {
				mark(v)
			}
			switch in := in.(type) {
			case *ssalite.Load:
				if c, ok := in.Addr.(*ssalite.Cell); ok && cells[c] {
					mark(in)
				} else if vals[in.Addr] {
					mark(in)
				}
			case *ssalite.Store:
				if c, ok := in.Addr.(*ssalite.Cell); ok && vals[in.Val] && !cells[c] {
					cells[c] = true
					changed = true
				}
			case *ssalite.FieldAddr, *ssalite.IndexAddr, *ssalite.Slice,
				*ssalite.Extract, *ssalite.RangeElem, *ssalite.Convert,
				*ssalite.TypeAssert, *ssalite.UnOp, *ssalite.Append:
				for _, op := range in.Operands() {
					if op != nil && vals[op] {
						mark(in.(ssalite.Value))
					}
				}
			}
		})
		// Opaque values are not instructions; they appear only as
		// operands, so propagate through them where referenced.
		fn.Instrs(func(in ssalite.Instruction) {
			for _, op := range in.Operands() {
				if oq, ok := op.(*ssalite.Opaque); ok && !vals[oq] {
					for _, inner := range oq.Ops {
						if inner != nil && vals[inner] {
							mark(oq)
						}
					}
				}
			}
		})
	}
	return vals
}

// isSnapLoad reports whether c is a .Load() on an atomic.Pointer holding
// one of the owner's snapshot types.
func (o *owner) isSnapLoad(c *ssalite.Call) bool {
	if c.Method != "Load" || c.Recv == nil {
		return false
	}
	elem := atomicPointerElem(c.Recv.Type())
	if elem == nil {
		return false
	}
	return o.isSnapType(elem)
}

func (o *owner) isSnapType(t types.Type) bool {
	t = stripRefs(t)
	if t == nil {
		return false
	}
	for _, s := range o.snapTypes {
		if types.Identical(t, s) || types.Identical(types.NewPointer(s), t) {
			return true
		}
	}
	return false
}

// ---- check 3: the snapshot pointer is loaded once per operation ----

func (o *owner) checkSingleLoad() {
	if len(o.snapTypes) == 0 {
		return
	}
	// Writer-side functions publish: flushLocked and its callers (unlock,
	// init). Their snapshot loads serve the version bump, not a read
	// decision, and do not count against callers.
	writerSide := func(fn *ssalite.Function) bool {
		if fn == o.flush {
			return true
		}
		found := false
		fn.Instrs(func(in ssalite.Instruction) {
			if c, ok := in.(*ssalite.Call); ok && c.CalleeName() == flushName {
				found = true
			}
		})
		return found
	}

	type summary struct {
		total int
		sites []ssalite.Instruction
	}
	memo := map[*ssalite.Function]*summary{}
	visiting := map[*ssalite.Function]bool{}
	var analyze func(fn *ssalite.Function) *summary
	analyze = func(fn *ssalite.Function) *summary {
		if s, ok := memo[fn]; ok {
			return s
		}
		if visiting[fn] {
			return &summary{}
		}
		visiting[fn] = true
		defer delete(visiting, fn)
		s := &summary{}
		fn.Instrs(func(in ssalite.Instruction) {
			c, ok := in.(*ssalite.Call)
			if !ok {
				return
			}
			if o.isSnapLoad(c) {
				s.total++
				s.sites = append(s.sites, in)
				return
			}
			// Resolve any same-package declared callee (not just the
			// owner's methods): with per-template domains the read path
			// crosses type boundaries — SCR methods call domain and
			// directory helpers — and a load hidden behind any of them
			// still counts toward the caller's operation.
			var callee *ssalite.Function
			if c.Callee != nil {
				callee = o.ssa.DeclFunc[c.Callee]
			}
			if callee == nil || callee == fn || writerSide(callee) {
				return
			}
			if sub := analyze(callee); sub.total > 0 {
				s.total += sub.total
				s.sites = append(s.sites, in)
			}
		})
		memo[fn] = s
		return s
	}

	for _, fn := range o.ssa.Funcs {
		if fn.Incomplete || writerSide(fn) {
			continue
		}
		pos := funcPos(fn)
		if pos.IsValid() && lintutil.InTestFile(o.pass, pos) {
			continue
		}
		s := analyze(fn)
		if s.total >= 2 && len(s.sites) >= 2 {
			lintutil.Report(o.pass, s.sites[1].Pos(),
				"snapshot pointer loaded %d times in one operation (TOCTOU: a writer may publish between the loads); load it once and pass it down",
				s.total)
		}
	}
}

// ---- shared helpers ----

func funcPos(fn *ssalite.Function) token.Pos {
	switch {
	case fn.Decl != nil:
		return fn.Decl.Pos()
	case fn.Lit != nil:
		return fn.Lit.Pos()
	}
	return token.NoPos
}

func derivesFromRecv(v ssalite.Value, fn *ssalite.Function) bool {
	if fn.Recv == nil {
		return false
	}
	for depth := 0; v != nil && depth < 32; depth++ {
		switch vv := v.(type) {
		case *ssalite.Cell:
			return vv == fn.Recv
		case *ssalite.Load:
			v = vv.Addr
		default:
			return false
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func structOf(n *types.Named) *types.Struct {
	if n == nil {
		return nil
	}
	s, _ := n.Underlying().(*types.Struct)
	return s
}

func isStructField(st *types.Struct, f *types.Var) bool {
	if st == nil {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}

func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// atomicPointerElem returns T for sync/atomic.Pointer[T], else nil.
func atomicPointerElem(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || !isAtomicType(n) || n.Obj().Name() != "Pointer" {
		return nil
	}
	args := n.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	return args.At(0)
}

// stripRefs unwraps pointers, slices and arrays down to the element type.
func stripRefs(t types.Type) types.Type {
	for depth := 0; t != nil && depth < 8; depth++ {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		default:
			return t
		}
	}
	return t
}
