// Package ssalite builds a static-single-assignment-flavoured IR for the
// pqolint analyzers (rcupublish, epochflow, hotalloc) on top of the
// syntactic control-flow graphs produced by the vendored
// golang.org/x/tools/go/cfg package.
//
// Why not golang.org/x/tools/go/ssa + passes/buildssa? Those packages are
// not part of the x/tools subset the Go distribution vendors, and this
// repository builds fully offline (no module cache, no network), so the
// real SSA packages are unobtainable here. Rather than pass off a
// hand-written reimplementation under the x/tools import path, this
// package implements — honestly and minimally — exactly the IR the
// analyzers need:
//
//   - It is in *naive* SSA form: named variables are not renamed into phi
//     webs. Every local variable and parameter is a Cell (the analogue of
//     ssa.Alloc for vars); reads become Load and writes become Store
//     instructions. Flow-insensitive analyses key taint by *Cell, which
//     is exactly as precise as phi-merging for the checks built on top.
//   - Expression translation is memoized per ast.Expr pointer, because
//     cfg lists some expressions (conditions, range operands) as their own
//     block nodes in addition to their enclosing statements; without
//     memoization a call would be counted twice.
//   - Translation never fails: constructs outside the modeled subset
//     become Opaque values that still carry their operands, so taint
//     propagates through them conservatively. A panic while building one
//     function (none is known, but the builder is used on arbitrary
//     packages) marks just that Function Incomplete instead of crashing
//     the analysis.
//
// The entry point is Analyzer, a buildssa-style dependency analyzer whose
// result is *SSA; client analyzers list it in Requires.
package ssalite

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Analyzer builds the ssalite IR for all functions (declarations and
// literals) of a package. It reports nothing; its result, *SSA, is consumed
// by the invariant analyzers through Requires.
var Analyzer = &analysis.Analyzer{
	Name:       "ssalite",
	Doc:        "build the ssalite IR consumed by the rcupublish, epochflow and hotalloc analyzers",
	Requires:   []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	ResultType: reflect.TypeOf((*SSA)(nil)),
	Run:        run,
}

// SSA holds the IR of one package.
type SSA struct {
	Pkg *types.Package
	// Funcs lists every function with a body — declarations and function
	// literals — in source order. Literals follow their enclosing
	// declaration and carry a Parent link.
	Funcs []*Function
	// LitFunc maps a function literal to its Function.
	LitFunc map[*ast.FuncLit]*Function
	// DeclFunc maps a declared function/method object to its Function.
	DeclFunc map[*types.Func]*Function
}

// Function is the IR of one function body.
type Function struct {
	// Name is the declared name, or "outer$litN" for function literals.
	Name   string
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Obj    *types.Func   // nil for literals
	Parent *Function     // enclosing function, for literals
	// Blocks mirrors the cfg blocks; Blocks[0] is the entry. Nil when the
	// function has no body (external decl) or when Incomplete.
	Blocks []*Block
	// Recv is the receiver cell, if any; Params the parameter cells.
	Recv   *Cell
	Params []*Cell
	// Incomplete marks a function whose body could not be translated;
	// analyzers should treat it conservatively (skip, do not trust).
	Incomplete bool

	cells map[types.Object]*Cell
}

// Cells returns the storage cells of the function's named locals,
// parameters and receiver, in no particular order.
func (f *Function) Cells() []*Cell {
	out := make([]*Cell, 0, len(f.cells))
	for _, c := range f.cells {
		out = append(out, c)
	}
	return out
}

// Cell returns the cell for obj, searching enclosing functions for
// variables captured by a literal. It returns nil if obj has no cell.
func (f *Function) Cell(obj types.Object) *Cell {
	for fn := f; fn != nil; fn = fn.Parent {
		if c, ok := fn.cells[obj]; ok {
			return c
		}
	}
	return nil
}

// Instrs calls visit for every instruction of the function, in block order.
func (f *Function) Instrs(visit func(Instruction)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			visit(in)
		}
	}
}

func (f *Function) String() string { return f.Name }

// Block is a basic block.
type Block struct {
	Index  int
	Instrs []Instruction
	Succs  []*Block
	// Live is false for blocks unreachable from the entry.
	Live bool
}

// Value is an abstract operand: a constant, a storage cell, or the result
// of an instruction. Operands exposes the values it was computed from so
// taint analyses can chase definitions through unmodeled constructs.
type Value interface {
	Pos() token.Pos
	Type() types.Type // may be nil when unknown
	Operands() []Value
	String() string
}

// Instruction is one step of a block. Instructions that produce a result
// also implement Value.
type Instruction interface {
	Pos() token.Pos
	Block() *Block
	// index returns the instruction's position within its block.
	index() int
	Operands() []Value
	String() string
}

// register is the common core of instructions; embedding it makes a type
// an Instruction (and, with Type, a Value).
type register struct {
	pos token.Pos
	typ types.Type
	blk *Block
	idx int
}

func (r *register) Pos() token.Pos   { return r.pos }
func (r *register) Type() types.Type { return r.typ }
func (r *register) Block() *Block    { return r.blk }
func (r *register) index() int       { return r.idx }

// Cell is the storage of one named variable (local, parameter or receiver).
// It is an address: reads appear as Load{Addr: cell} and writes as
// Store{Addr: cell}. Type is the variable's type (not a pointer to it).
type Cell struct {
	Obj     types.Object
	IsParam bool // parameter or receiver
	pos     token.Pos
	typ     types.Type
}

func (c *Cell) Pos() token.Pos    { return c.pos }
func (c *Cell) Type() types.Type  { return c.typ }
func (c *Cell) Operands() []Value { return nil }
func (c *Cell) String() string {
	if c.Obj != nil {
		return "cell:" + c.Obj.Name()
	}
	return "cell:?"
}

// Const is a constant expression (including nil and untyped constants).
type Const struct {
	pos token.Pos
	typ types.Type
}

func (c *Const) Pos() token.Pos    { return c.pos }
func (c *Const) Type() types.Type  { return c.typ }
func (c *Const) Operands() []Value { return nil }
func (c *Const) String() string    { return "const" }

// Global is a reference to a package-level object (variable, function,
// imported name). Like Cell it is an address when the object is a
// variable: reads go through Load.
type Global struct {
	Obj types.Object
	pos token.Pos
}

func (g *Global) Pos() token.Pos { return g.pos }
func (g *Global) Type() types.Type {
	if g.Obj != nil {
		return g.Obj.Type()
	}
	return nil
}
func (g *Global) Operands() []Value { return nil }
func (g *Global) String() string {
	if g.Obj != nil {
		return "global:" + g.Obj.Name()
	}
	return "global:?"
}

// Opaque stands for any value outside the modeled subset. It keeps the
// values it was derived from, so taint flows through it.
type Opaque struct {
	Ops []Value
	pos token.Pos
	typ types.Type
}

func (o *Opaque) Pos() token.Pos    { return o.pos }
func (o *Opaque) Type() types.Type  { return o.typ }
func (o *Opaque) Operands() []Value { return o.Ops }
func (o *Opaque) String() string    { return "opaque" }

// Load reads through an address (Cell, Global, FieldAddr, IndexAddr, or a
// pointer-valued expression for explicit dereferences).
type Load struct {
	register
	Addr Value
}

func (l *Load) Operands() []Value { return []Value{l.Addr} }
func (l *Load) String() string    { return "load " + l.Addr.String() }

// Store writes Val through Addr.
type Store struct {
	register
	Addr Value
	Val  Value
}

func (s *Store) Operands() []Value { return []Value{s.Addr, s.Val} }
func (s *Store) String() string    { return "store " + s.Addr.String() }

// FieldAddr is the address of a struct field: X.Field. X is the struct
// value or a pointer to it (implicit dereference, as in go/ssa).
type FieldAddr struct {
	register
	X     Value
	Field *types.Var
	Sel   *ast.SelectorExpr
}

func (f *FieldAddr) Operands() []Value { return []Value{f.X} }
func (f *FieldAddr) String() string {
	name := "?"
	if f.Field != nil {
		name = f.Field.Name()
	}
	return "fieldaddr ." + name
}

// IndexAddr is the address of a slice/array element, or of a map element
// when used as a load source.
type IndexAddr struct {
	register
	X     Value
	Index Value
}

func (i *IndexAddr) Operands() []Value { return []Value{i.X, i.Index} }
func (i *IndexAddr) String() string    { return "indexaddr" }

// Call is a function, method, builtin, deferred or go call.
type Call struct {
	register
	Expr *ast.CallExpr
	// Fun is the called value for dynamic calls (closures, func fields);
	// nil when the callee is statically resolved or a builtin.
	Fun Value
	// Callee is the statically resolved callee, when known.
	Callee *types.Func
	// Method is the bare selector/identifier name of the callee, e.g.
	// "flushLocked" for s.flushLocked(). Empty for dynamic calls
	// through non-selector expressions.
	Method string
	// Recv is the receiver value for method calls (the translated sel.X).
	Recv Value
	// Builtin names a builtin callee (len, cap, copy, panic, ...) that was
	// not given a dedicated instruction.
	Builtin string
	Args    []Value
	IsDefer bool
	IsGo    bool
}

func (c *Call) Operands() []Value {
	ops := make([]Value, 0, len(c.Args)+2)
	if c.Fun != nil {
		ops = append(ops, c.Fun)
	}
	if c.Recv != nil {
		ops = append(ops, c.Recv)
	}
	return append(ops, c.Args...)
}

// StaticCallee returns the statically resolved callee, or nil.
func (c *Call) StaticCallee() *types.Func { return c.Callee }

// CalleeName returns the bare name of the callee: the method/function
// name for resolved or selector calls, the builtin name for builtins, and
// "" for fully dynamic calls.
func (c *Call) CalleeName() string {
	if c.Method != "" {
		return c.Method
	}
	if c.Callee != nil {
		return c.Callee.Name()
	}
	return c.Builtin
}

func (c *Call) String() string { return "call " + c.CalleeName() }

// BinOp is a binary expression.
type BinOp struct {
	register
	Op   token.Token
	X, Y Value
}

func (b *BinOp) Operands() []Value { return []Value{b.X, b.Y} }
func (b *BinOp) String() string    { return "binop " + b.Op.String() }

// UnOp is a unary expression (including channel receive, token.ARROW).
type UnOp struct {
	register
	Op token.Token
	X  Value
}

func (u *UnOp) Operands() []Value { return []Value{u.X} }
func (u *UnOp) String() string    { return "unop " + u.Op.String() }

// MakeSlice is make([]T, len[, cap]).
type MakeSlice struct {
	register
	Len, Cap Value // Cap nil when absent
}

func (m *MakeSlice) Operands() []Value {
	if m.Cap != nil {
		return []Value{m.Len, m.Cap}
	}
	return []Value{m.Len}
}
func (m *MakeSlice) String() string { return "makeslice" }

// MakeMap is make(map[K]V[, size]).
type MakeMap struct {
	register
	Size Value // nil when absent
}

func (m *MakeMap) Operands() []Value {
	if m.Size != nil {
		return []Value{m.Size}
	}
	return nil
}
func (m *MakeMap) String() string { return "makemap" }

// MakeChan is make(chan T[, size]).
type MakeChan struct {
	register
	Size Value // nil when absent
}

func (m *MakeChan) Operands() []Value {
	if m.Size != nil {
		return []Value{m.Size}
	}
	return nil
}
func (m *MakeChan) String() string { return "makechan" }

// Append is append(slice, args...).
type Append struct {
	register
	Slice    Value
	Args     []Value
	Ellipsis bool
}

func (a *Append) Operands() []Value { return append([]Value{a.Slice}, a.Args...) }
func (a *Append) String() string    { return "append" }

// AllocLit is a composite literal (T{...} or &T{...}) or new(T). Heap
// distinguishes the address-taken forms (&T{...}, new) from plain value
// literals.
type AllocLit struct {
	register
	Comp *ast.CompositeLit // nil for new(T)
	Heap bool
	Elts []Value
}

func (a *AllocLit) Operands() []Value { return a.Elts }
func (a *AllocLit) String() string {
	if a.Heap {
		return "alloc (heap)"
	}
	return "alloc"
}

// MakeClosure is a function literal value.
type MakeClosure struct {
	register
	Lit *ast.FuncLit
	Fn  *Function
}

func (m *MakeClosure) Operands() []Value { return nil }
func (m *MakeClosure) String() string    { return "makeclosure " + m.Fn.Name }

// MakeInterface is a conversion of a concrete value to an interface type.
type MakeInterface struct {
	register
	X Value
}

func (m *MakeInterface) Operands() []Value { return []Value{m.X} }
func (m *MakeInterface) String() string    { return "makeinterface" }

// Convert is a (non-interface) type conversion.
type Convert struct {
	register
	X Value
}

func (c *Convert) Operands() []Value { return []Value{c.X} }
func (c *Convert) String() string    { return "convert" }

// TypeAssert is x.(T). Asserted is nil inside a type switch (x.(type)).
type TypeAssert struct {
	register
	X        Value
	Asserted types.Type
}

func (t *TypeAssert) Operands() []Value { return []Value{t.X} }
func (t *TypeAssert) String() string    { return "typeassert" }

// Extract selects result Index of a multi-valued operation.
type Extract struct {
	register
	Tuple Value
	Index int
}

func (e *Extract) Operands() []Value { return []Value{e.Tuple} }
func (e *Extract) String() string    { return fmt.Sprintf("extract #%d", e.Index) }

// Slice is x[lo:hi:max].
type Slice struct {
	register
	X              Value
	Low, High, Max Value // any may be nil
}

func (s *Slice) Operands() []Value {
	ops := []Value{s.X}
	for _, v := range []Value{s.Low, s.High, s.Max} {
		if v != nil {
			ops = append(ops, v)
		}
	}
	return ops
}
func (s *Slice) String() string { return "slice" }

// RangeElem is the per-iteration key or value produced by ranging over X.
type RangeElem struct {
	register
	X     Value
	IsKey bool
}

func (r *RangeElem) Operands() []Value { return []Value{r.X} }
func (r *RangeElem) String() string {
	if r.IsKey {
		return "range.key"
	}
	return "range.value"
}

// MapUpdate is m[k] = v.
type MapUpdate struct {
	register
	Map, Key, Val Value
}

func (m *MapUpdate) Operands() []Value { return []Value{m.Map, m.Key, m.Val} }
func (m *MapUpdate) String() string    { return "mapupdate" }

// MapDelete is delete(m, k).
type MapDelete struct {
	register
	Map, Key Value
}

func (m *MapDelete) Operands() []Value { return []Value{m.Map, m.Key} }
func (m *MapDelete) String() string    { return "mapdelete" }

// Send is ch <- v.
type Send struct {
	register
	Chan, Val Value
}

func (s *Send) Operands() []Value { return []Value{s.Chan, s.Val} }
func (s *Send) String() string    { return "send" }

// Return exits the function.
type Return struct {
	register
	Results []Value
}

func (r *Return) Operands() []Value { return r.Results }
func (r *Return) String() string    { return "return" }

func run(pass *analysis.Pass) (any, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ssa := &SSA{
		Pkg:      pass.Pkg,
		LitFunc:  map[*ast.FuncLit]*Function{},
		DeclFunc: map[*types.Func]*Function{},
	}

	// Pass 1: create Function shells so MakeClosure can reference literal
	// functions before their bodies are built, and record parent links.
	type workItem struct {
		fn  *Function
		cfg func() any // deferred: ctrlflow lookups can panic on broken input
	}
	litCount := map[*Function]int{}
	var stack []*Function
	ins.Nodes([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node, push bool) bool {
		if !push {
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			return true
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn := &Function{Name: n.Name.Name, Decl: n, cells: map[types.Object]*Cell{}}
			if obj, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
				fn.Obj = obj
				ssa.DeclFunc[obj] = fn
			}
			ssa.Funcs = append(ssa.Funcs, fn)
			stack = append(stack, fn)
		case *ast.FuncLit:
			var parent *Function
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			name := "lit"
			if parent != nil {
				litCount[parent]++
				name = fmt.Sprintf("%s$lit%d", parent.Name, litCount[parent])
			}
			fn := &Function{Name: name, Lit: n, Parent: parent, cells: map[types.Object]*Cell{}}
			ssa.LitFunc[n] = fn
			ssa.Funcs = append(ssa.Funcs, fn)
			stack = append(stack, fn)
		}
		return true
	})

	// Pass 2: build bodies in Funcs order (parents precede their literals,
	// so captured variables resolve to already-created parent cells).
	b := &builder{pass: pass, ssa: ssa}
	for _, fn := range ssa.Funcs {
		b.buildFunc(fn, cfgs)
	}
	return ssa, nil
}
