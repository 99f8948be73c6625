// Package epochflow machine-checks the statistics-epoch discipline
// introduced with online revalidation (docs/EPOCHS.md): every cached
// artifact carries the epoch of the statistics it was computed under, and
// a re-cost from one generation is never compared against anchor costs
// from another.
//
// Two checks:
//
//  1. Epoch plumbing. A composite literal of an epoch-bearing struct
//     (anchor, recostKey, Decision, cacheSnapshot, ...) that sets other
//     fields but omits the epoch field silently pins the zero epoch to
//     the artifact — it would never match the current generation, or
//     worse, match epoch 0 forever. Positional literals necessarily set
//     every field and pass; empty literals are zero-value scaffolding and
//     pass too.
//
//  2. Cross-generation cost comparisons. Using the ssalite IR, values are
//     tainted three ways: RECOST (results of the re-costing entry
//     points), ANCHOR (loads of the c/s statistics of an epoch-bearing
//     anchor struct), and EPOCH (epoch ids themselves). A comparison or
//     ratio mixing a RECOST value with an ANCHOR value — the R = Recost/C
//     family — inside a function that never performs an epoch guard (an
//     ==/!= on an EPOCH-tainted value) is reported: without the guard the
//     recost may be from a newer statistics generation than the anchor.
//
// The check is scoped to the cost-bearing packages (core, engine) and
// their fixtures.
package epochflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/ssalite"
)

var Analyzer = &analysis.Analyzer{
	Name:     "epochflow",
	Doc:      "check that statistics epochs propagate into cached artifacts and guard every recost-vs-anchor cost comparison",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ssalite.Analyzer},
	Run:      run,
}

// scope lists the package path segments the check applies to.
var scope = []string{"core", "engine"}

// recostFuncs are the re-costing entry points whose results are RECOST
// tainted. recostEpochFuncs additionally return the epoch the recost was
// computed under as their second result.
var (
	recostFuncs = map[string]bool{
		"Recost": true, "RecostWith": true, "RecostPlanWith": true,
		"recostWith": true, "recostWithEpoch": true, "safeRecost": true,
	}
	recostEpochFuncs = map[string]bool{"recostWithEpoch": true}
	// epochFuncs return the current statistics or cost epoch.
	epochFuncs = map[string]bool{
		"EpochID": true, "StatsEpoch": true, "RecostEpoch": true,
		"statsEpoch": true, "prepareEpoch": true,
		"CostEpoch": true, "costEpoch": true,
	}
)

func run(pass *analysis.Pass) (any, error) {
	if !lintutil.PkgInScope(pass.Pkg.Path(), scope) {
		return nil, nil
	}
	lintutil.ReportAllowMisuse(pass)
	checkLiterals(pass)
	checkComparisons(pass)
	return nil, nil
}

// ---- check 1: epoch-bearing literals set their epoch field ----

func checkLiterals(pass *analysis.Pass) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CompositeLit)(nil)}, func(n ast.Node) {
		lit := n.(*ast.CompositeLit)
		if len(lit.Elts) == 0 || lintutil.InTestFile(pass, lit.Pos()) {
			return
		}
		tv, ok := pass.TypesInfo.Types[lit]
		if !ok {
			return
		}
		st, name := epochStruct(tv.Type)
		if st == nil {
			return
		}
		epochField := ""
		for i := 0; i < st.NumFields(); i++ {
			if isEpochName(st.Field(i).Name()) {
				epochField = st.Field(i).Name()
			}
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				// Positional literal: every field, epoch included, is set.
				return
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == epochField {
				return
			}
		}
		lintutil.Report(pass, lit.Pos(),
			"composite literal of %s omits its %s field: cached artifacts must carry the statistics epoch they were computed under",
			name, epochField)
	})
}

// epochStruct returns the struct type and display name if t (possibly a
// pointer) is a named struct with an epoch field.
func epochStruct(t types.Type) (*types.Struct, string) {
	if t == nil {
		return nil, ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, ""
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isEpochName(st.Field(i).Name()) {
			return st, n.Obj().Name()
		}
	}
	return nil, ""
}

func isEpochName(name string) bool { return name == "epoch" || name == "Epoch" }

// ---- check 2: recost-vs-anchor comparisons carry an epoch guard ----

// taintKind is a bitset of the three taint families.
type taintKind uint8

const (
	tRecost taintKind = 1 << iota
	tAnchor
	tEpoch
)

var comparisonOps = map[token.Token]bool{
	token.QUO: true, token.LSS: true, token.GTR: true,
	token.LEQ: true, token.GEQ: true, token.EQL: true, token.NEQ: true,
}

func checkComparisons(pass *analysis.Pass) {
	ssa := pass.ResultOf[ssalite.Analyzer].(*ssalite.SSA)
	for _, fn := range ssa.Funcs {
		if fn.Incomplete || len(fn.Blocks) == 0 {
			continue
		}
		if pos := funcPos(fn); pos.IsValid() && lintutil.InTestFile(pass, pos) {
			continue
		}
		taint := taintFunction(fn)

		// An epoch guard anywhere in the function (or, for a literal, its
		// enclosing function chain) covers its comparisons: the code is
		// epoch-aware and the exact branch structure is its business.
		guarded := false
		for f := fn; f != nil && !guarded; f = f.Parent {
			g := taint
			if f != fn {
				g = taintFunction(f)
			}
			f.Instrs(func(in ssalite.Instruction) {
				b, ok := in.(*ssalite.BinOp)
				if ok && (b.Op == token.EQL || b.Op == token.NEQ) &&
					(g[b.X]&tEpoch != 0 || g[b.Y]&tEpoch != 0) {
					guarded = true
				}
			})
		}
		if guarded {
			continue
		}
		fn.Instrs(func(in ssalite.Instruction) {
			b, ok := in.(*ssalite.BinOp)
			if !ok || !comparisonOps[b.Op] {
				return
			}
			x, y := taint[b.X], taint[b.Y]
			if (x&tRecost != 0 && y&tAnchor != 0) || (x&tAnchor != 0 && y&tRecost != 0) {
				lintutil.Report(pass, in.Pos(),
					"re-cost result compared against anchor statistics without an epoch guard: a recost from one statistics generation must not meet costs from another")
			}
		})
	}
}

// taintFunction computes the flow-insensitive taint of every value in fn.
func taintFunction(fn *ssalite.Function) map[ssalite.Value]taintKind {
	vals := map[ssalite.Value]taintKind{}
	cells := map[*ssalite.Cell]taintKind{}
	for _, c := range fn.Cells() {
		if c.IsParam && c.Obj != nil && isEpochParam(c.Obj.Name()) {
			cells[c] |= tEpoch
		}
	}
	for changed := true; changed; {
		changed = false
		mark := func(v ssalite.Value, k taintKind) {
			if v == nil || k == 0 {
				return
			}
			if vals[v]&k != k {
				vals[v] |= k
				changed = true
			}
		}
		fn.Instrs(func(in ssalite.Instruction) {
			switch in := in.(type) {
			case *ssalite.Call:
				name := in.CalleeName()
				if recostFuncs[name] {
					mark(in, tRecost)
				}
				if epochFuncs[name] {
					mark(in, tEpoch)
				}
			case *ssalite.Extract:
				if c, ok := in.Tuple.(*ssalite.Call); ok {
					name := c.CalleeName()
					if recostFuncs[name] && in.Index == 0 {
						mark(in, tRecost)
					}
					if recostEpochFuncs[name] && in.Index == 1 {
						mark(in, tEpoch)
					}
				}
				mark(in, vals[in.Tuple])
			case *ssalite.FieldAddr:
				if in.Field != nil {
					if isEpochName(in.Field.Name()) {
						mark(in, tEpoch)
					}
					if isAnchorStat(in) {
						mark(in, tAnchor)
					}
				}
			case *ssalite.Load:
				if c, ok := in.Addr.(*ssalite.Cell); ok {
					mark(in, cells[c])
				} else {
					mark(in, vals[in.Addr])
				}
			case *ssalite.Store:
				if c, ok := in.Addr.(*ssalite.Cell); ok {
					if k := vals[in.Val]; cells[c]&k != k {
						cells[c] |= k
						changed = true
					}
				}
			case *ssalite.BinOp:
				if in.Op != token.EQL && in.Op != token.NEQ {
					mark(in, vals[in.X]|vals[in.Y])
				}
			case *ssalite.UnOp:
				mark(in, vals[in.X])
			case *ssalite.Convert:
				mark(in, vals[in.X])
			case *ssalite.RangeElem:
				mark(in, vals[in.X])
			case *ssalite.Return:
				// no propagation
			default:
				// Conservatively merge operand taint into any other
				// value-producing instruction (IndexAddr, Slice, Opaque
				// operands, ...), except calls: a call launders taint
				// unless it is a known source.
				if v, ok := in.(ssalite.Value); ok {
					var k taintKind
					for _, op := range in.Operands() {
						k |= vals[op]
					}
					mark(v, k)
				}
			}
			// Opaque values appear only as operands; flow taint through.
			for _, op := range in.Operands() {
				if oq, ok := op.(*ssalite.Opaque); ok {
					var k taintKind
					for _, inner := range oq.Ops {
						k |= vals[inner]
					}
					mark(oq, k)
				}
			}
		})
	}
	return vals
}

// isAnchorStat reports whether fa loads a cost/selectivity statistic
// (c or s, either case) from an epoch-bearing struct: the anchor shape.
func isAnchorStat(fa *ssalite.FieldAddr) bool {
	switch strings.ToLower(fa.Field.Name()) {
	case "c", "s":
	default:
		return false
	}
	var base types.Type
	if fa.X != nil {
		base = fa.X.Type()
	}
	st, _ := epochStruct(base)
	return st != nil
}

func isEpochParam(name string) bool {
	l := strings.ToLower(name)
	return l == "epoch" || strings.HasSuffix(l, "epoch")
}

func funcPos(fn *ssalite.Function) token.Pos {
	switch {
	case fn.Decl != nil:
		return fn.Decl.Pos()
	case fn.Lit != nil:
		return fn.Lit.Pos()
	}
	return token.NoPos
}
