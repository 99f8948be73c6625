package cacheinvalidation_test

import (
	"testing"

	"repro/internal/lint/cacheinvalidation"
	"repro/internal/lint/linttest"
)

func TestCacheInvalidation(t *testing.T) {
	linttest.Run(t, cacheinvalidation.Analyzer, "a")
}
