package linttest

import (
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

type tagFact struct{}

func (*tagFact) AFact() {}

// TestFactTypesRejected checks that an analyzer declaring FactTypes,
// directly or through its Requires closure, fails with an error naming
// it instead of running with no fact store behind its Pass.
func TestFactTypesRejected(t *testing.T) {
	facts := &analysis.Analyzer{
		Name:      "metafacts",
		Doc:       "declares a fact type",
		FactTypes: []analysis.Fact{(*tagFact)(nil)},
		Run:       func(*analysis.Pass) (any, error) { return nil, nil },
	}
	consumer := &analysis.Analyzer{
		Name:     "metaconsumer",
		Doc:      "requires an analyzer with facts",
		Requires: []*analysis.Analyzer{facts},
		Run:      func(*analysis.Pass) (any, error) { return nil, nil },
	}
	for _, a := range []*analysis.Analyzer{facts, consumer} {
		err := runAnalyzer(a, nil, nil, map[*analysis.Analyzer]any{}, nil)
		if err == nil || !strings.Contains(err.Error(), "analyzer metafacts declares FactTypes") {
			t.Errorf("running %s: got error %v, want one naming metafacts", a.Name, err)
		}
	}
}
