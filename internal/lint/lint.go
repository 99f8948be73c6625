// Package lint assembles the pqolint analyzer suite: the project-specific
// go/analysis analyzers that machine-check the invariants the serving hot
// path depends on (docs/LINT.md). cmd/pqolint runs them via go vet
// -vettool; internal/lint/linttest runs them over fixtures.
package lint

import (
	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/cacheinvalidation"
	"repro/internal/lint/costdeterminism"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/envpool"
	"repro/internal/lint/lockdiscipline"
	"repro/internal/lint/rcupublish"
)

// Analyzers returns the full pqolint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		envpool.Analyzer,
		lockdiscipline.Analyzer,
		costdeterminism.Analyzer,
		cacheinvalidation.Analyzer,
		ctxflow.Analyzer,
		rcupublish.Analyzer,
	}
}
