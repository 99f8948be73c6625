package rcupublish_test

import (
	"testing"

	"repro/internal/lint/linttest"
	"repro/internal/lint/rcupublish"
)

func TestRCUPublish(t *testing.T) {
	linttest.Run(t, rcupublish.Analyzer, "rcu")
}

// TestSeededShardedRegression proves the per-domain check catches its
// defect class: a cross-domain store that bypasses another domain's mutex
// and publication.
func TestSeededShardedRegression(t *testing.T) {
	linttest.Run(t, rcupublish.Analyzer, "rcusharded")
}
