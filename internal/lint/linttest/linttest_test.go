package linttest_test

import (
	"go/token"
	"go/types"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/linttest"
)

// tagFact marks an exported function; countFact counts the tags. Both
// carry exported fields so they survive the gob round trip the harness
// imposes on every export.
type tagFact struct{ Label string }

func (*tagFact) AFact() {}

type countFact struct{ N int }

func (*countFact) AFact() {}

// tagger exports a tagFact per exported package-scope function plus one
// countFact on the package.
var tagger = &analysis.Analyzer{
	Name:      "metatagger",
	Doc:       "export facts for the linttest plumbing meta-test",
	FactTypes: []analysis.Fact{(*tagFact)(nil), (*countFact)(nil)},
	Run: func(pass *analysis.Pass) (any, error) {
		n := 0
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			if fn, ok := scope.Lookup(name).(*types.Func); ok && fn.Exported() {
				pass.ExportObjectFact(fn, &tagFact{Label: fn.Name()})
				n++
			}
		}
		pass.ExportPackageFact(&countFact{N: n})
		return nil, nil
	},
}

// consumer requires tagger and reports every fact it can import back, so
// the fixture's want comments fail unless facts flow across the chain.
var consumer = &analysis.Analyzer{
	Name:     "metaconsumer",
	Doc:      "import facts exported by metatagger and report them",
	Requires: []*analysis.Analyzer{tagger},
	Run: func(pass *analysis.Pass) (any, error) {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			fn, ok := scope.Lookup(name).(*types.Func)
			if !ok {
				continue
			}
			var f tagFact
			if pass.ImportObjectFact(fn, &f) {
				pass.Reportf(fn.Pos(), "fact tagged on %s", f.Label)
			}
		}
		var c countFact
		if pass.ImportPackageFact(pass.Pkg, &c) {
			if obj := scope.Lookup("Count"); obj != nil {
				pass.Reportf(obj.Pos(), "package fact counts %d tagged funcs", c.N)
			}
		}
		if got := len(pass.AllObjectFacts()); got != c.N {
			pass.Reportf(token.NoPos, "AllObjectFacts returned %d facts, want %d", got, c.N)
		}
		return nil, nil
	},
}

// TestFactPlumbing drives the exporter/consumer pair over the facts
// fixture: its wants only match when object and package facts survive the
// store's gob round trip.
func TestFactPlumbing(t *testing.T) {
	linttest.Run(t, consumer, "facts")
}

// unregistered exports a fact type missing from FactTypes; the harness
// must reject that the same way a real driver does.
var unregistered = &analysis.Analyzer{
	Name: "metaunregistered",
	Doc:  "export a fact without registering its type",
	Run: func(pass *analysis.Pass) (any, error) {
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			if fn, ok := scope.Lookup(name).(*types.Func); ok {
				pass.ExportObjectFact(fn, &tagFact{Label: name})
				break
			}
		}
		return nil, nil
	},
}

func TestUnregisteredFactPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("exporting an unregistered fact type did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "not registered in FactTypes") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	linttest.Run(t, unregistered, "facts")
}
