package ssalite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"repro/internal/lint/ssalite"
)

// build typechecks src (which must not import anything) and runs the
// inspect → ctrlflow → ssalite analyzer chain over it.
func build(t *testing.T, src string) *ssalite.SSA {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	results := map[*analysis.Analyzer]any{}
	for _, a := range []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ssalite.Analyzer} {
		resultOf := map[*analysis.Analyzer]any{}
		for _, req := range a.Requires {
			resultOf[req] = results[req]
		}
		pass := &analysis.Pass{
			Analyzer:          a,
			Fset:              fset,
			Files:             []*ast.File{f},
			Pkg:               pkg,
			TypesInfo:         info,
			TypesSizes:        types.SizesFor("gc", "amd64"),
			ResultOf:          resultOf,
			Report:            func(analysis.Diagnostic) {},
			ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportObjectFact:  func(types.Object, analysis.Fact) {},
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := a.Run(pass)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		results[a] = res
	}
	return results[ssalite.Analyzer].(*ssalite.SSA)
}

func fn(t *testing.T, s *ssalite.SSA, name string) *ssalite.Function {
	t.Helper()
	for _, f := range s.Funcs {
		if f.Name == name {
			if f.Incomplete {
				t.Fatalf("function %s marked Incomplete", name)
			}
			return f
		}
	}
	t.Fatalf("function %s not found; have %v", name, s.Funcs)
	return nil
}

func countInstrs(f *ssalite.Function, match func(ssalite.Instruction) bool) int {
	n := 0
	f.Instrs(func(in ssalite.Instruction) {
		if match(in) {
			n++
		}
	})
	return n
}

func callsTo(f *ssalite.Function, name string) int {
	return countInstrs(f, func(in ssalite.Instruction) bool {
		c, ok := in.(*ssalite.Call)
		return ok && c.CalleeName() == name
	})
}

const srcBasic = `package p

type S struct {
	x    int
	m    map[string]int
	list []int
}

func (s *S) publish() {}

func use(int) {}

func (s *S) Mutate(v int) {
	s.x = v
	s.m["k"] = v
	s.list = append(s.list, v)
	s.publish()
}
`

func TestBasicInstructions(t *testing.T) {
	ssa := build(t, srcBasic)
	f := fn(t, ssa, "Mutate")

	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		st, ok := in.(*ssalite.Store)
		if !ok {
			return false
		}
		fa, ok := st.Addr.(*ssalite.FieldAddr)
		return ok && fa.Field != nil && fa.Field.Name() == "x"
	}); got != 1 {
		t.Errorf("stores to .x = %d, want 1", got)
	}
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.MapUpdate)
		return ok
	}); got != 1 {
		t.Errorf("map updates = %d, want 1", got)
	}
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.Append)
		return ok
	}); got != 1 {
		t.Errorf("appends = %d, want 1", got)
	}
	if got := callsTo(f, "publish"); got != 1 {
		t.Errorf("calls to publish = %d, want 1", got)
	}
}

const srcMemo = `package p

func producer() []int { return nil }
func use(int)         {}

func Consume() {
	for _, v := range producer() {
		use(v)
	}
}
`

// cfg lists the range operand both as a standalone node and inside the
// statement; without per-expression memoization producer() would appear
// as two Call instructions and site-counting analyzers would overcount.
func TestRangeOperandTranslatedOnce(t *testing.T) {
	ssa := build(t, srcMemo)
	f := fn(t, ssa, "Consume")
	if got := callsTo(f, "producer"); got != 1 {
		t.Fatalf("calls to producer = %d, want 1 (memoization broken)", got)
	}
	// The range value must flow from the ranged operand.
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.RangeElem)
		return ok
	}); got != 1 {
		t.Fatalf("range elems = %d, want 1", got)
	}
}

const srcClosure = `package p

func sink(func()) {}

func Outer() {
	captured := 0
	lit := func() {
		captured = 1
	}
	lit()
	sink(func() { captured = 2 })
	_ = captured
}
`

func TestClosureCellsShared(t *testing.T) {
	ssa := build(t, srcClosure)
	outer := fn(t, ssa, "Outer")
	lit1 := fn(t, ssa, "Outer$lit1")
	lit2 := fn(t, ssa, "Outer$lit2")

	var outerCell *ssalite.Cell
	for _, c := range outer.Cells() {
		if c.Obj != nil && c.Obj.Name() == "captured" {
			outerCell = c
		}
	}
	if outerCell == nil {
		t.Fatal("no cell for captured in Outer")
	}
	for _, lit := range []*ssalite.Function{lit1, lit2} {
		n := countInstrs(lit, func(in ssalite.Instruction) bool {
			st, ok := in.(*ssalite.Store)
			return ok && st.Addr == ssalite.Value(outerCell)
		})
		if n != 1 {
			t.Errorf("%s: stores through Outer's captured cell = %d, want 1", lit.Name, n)
		}
	}
}

const srcDefensive = `package p

type I interface{ M() int }

type T struct{ v int }

func (t T) M() int { return t.v }

func Weird(i I, ch chan int, arr [4]int) (out int) {
	defer func() { out++ }()
	select {
	case v := <-ch:
		out += v
	case ch <- 1:
	default:
	}
	switch x := i.(type) {
	case T:
		out += x.M()
	default:
	}
	m := map[[2]int]*T{}
	m[[2]int{1, 2}] = &T{v: arr[out%4]}
	for k, v := range m {
		_ = k
		out += v.v
	}
	goto done
done:
	return out
}
`

// The builder must translate arbitrary Go without panicking and without
// marking functions Incomplete; unmodeled constructs degrade to Opaque.
func TestDefensiveTranslation(t *testing.T) {
	ssa := build(t, srcDefensive)
	f := fn(t, ssa, "Weird")
	if len(f.Blocks) == 0 {
		t.Fatal("Weird has no blocks")
	}
}

const srcTuple = `package p

func two() (int, string) { return 0, "" }

func Use() (int, string) {
	a, b := two()
	return a, b
}
`

func TestTupleExtract(t *testing.T) {
	ssa := build(t, srcTuple)
	f := fn(t, ssa, "Use")
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.Extract)
		return ok
	}); got != 2 {
		t.Errorf("extracts = %d, want 2", got)
	}
	if got := callsTo(f, "two"); got != 1 {
		t.Errorf("calls to two = %d, want 1", got)
	}
}
