package suite

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

func buildSuite(t *testing.T) ([]Entry, *Systems) {
	t.Helper()
	sys, err := NewSystems(42)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return entries, sys
}

func TestSuiteSize(t *testing.T) {
	entries, _ := buildSuite(t)
	if len(entries) < 45 {
		t.Fatalf("suite has %d templates, want a substantial benchmark set", len(entries))
	}
	t.Logf("suite: %d templates", len(entries))
}

func TestSuiteTemplatesValidate(t *testing.T) {
	entries, _ := buildSuite(t)
	names := map[string]bool{}
	for _, e := range entries {
		if err := e.Tpl.Validate(); err != nil {
			t.Errorf("template %s invalid: %v", e.Tpl.Name, err)
		}
		if names[e.Tpl.Name] {
			t.Errorf("duplicate template name %s", e.Tpl.Name)
		}
		names[e.Tpl.Name] = true
		if e.Sys == nil || e.Sys.Cat != e.Tpl.Catalog {
			t.Errorf("template %s not paired with its catalog's system", e.Tpl.Name)
		}
	}
}

func TestSuiteDimensionDistribution(t *testing.T) {
	// §7.1: templates go up to 10 parameters and roughly a third have
	// d >= 4.
	entries, _ := buildSuite(t)
	highD, maxD := 0, 0
	for _, e := range entries {
		d := e.Tpl.Dimensions()
		if d < 2 {
			t.Errorf("template %s has d=%d, want >= 2", e.Tpl.Name, d)
		}
		if d >= 4 {
			highD++
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 10 {
		t.Errorf("max dimensions = %d, want 10", maxD)
	}
	frac := float64(highD) / float64(len(entries))
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("d>=4 fraction = %.2f, want roughly a third", frac)
	}
}

func TestSuiteTemplatesOptimizeAndShowPlanDiversity(t *testing.T) {
	// Every template must optimize successfully, and the bucketized
	// workload must exercise more than one optimal plan for most
	// templates — the precondition for PQO to be interesting.
	if testing.Short() {
		t.Skip("optimizes every suite template")
	}
	entries, _ := buildSuite(t)
	diverse := 0
	for _, e := range entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			t.Fatalf("%s: %v", e.Tpl.Name, err)
		}
		insts, err := workload.GenerateSet(e.Tpl.Dimensions(), 24, 7)
		if err != nil {
			t.Fatal(err)
		}
		insts, err = workload.Prepare(eng, insts)
		if err != nil {
			t.Fatalf("%s: %v", e.Tpl.Name, err)
		}
		if n := workload.DistinctOptimalPlans(insts); n >= 2 {
			diverse++
		}
	}
	frac := float64(diverse) / float64(len(entries))
	if frac < 0.6 {
		t.Errorf("only %.0f%% of templates show plan diversity; PQO evaluation needs more", frac*100)
	}
	t.Logf("plan diversity: %d/%d templates with >= 2 optimal plans", diverse, len(entries))
}

// TestSuiteDoc checks docs/SUITE.md's template table against the suite:
// one row per template, in Build's order, giving its name, d, catalog and
// SQL.
func TestSuiteDoc(t *testing.T) {
	entries, _ := buildSuite(t)
	data, err := os.ReadFile("../../docs/SUITE.md")
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, " d=") && strings.Contains(line, " catalog=") {
			rows = append(rows, line)
		}
	}
	if len(rows) != len(entries) {
		t.Errorf("docs/SUITE.md has %d template rows, the suite %d templates", len(rows), len(entries))
	}
	for i := 0; i < min(len(rows), len(entries)); i++ {
		e := entries[i]
		want := fmt.Sprintf("%-24s d=%-2d catalog=%-12s %s",
			e.Tpl.Name, e.Tpl.Dimensions(), e.Tpl.Catalog.Name, e.Tpl.SQL())
		if rows[i] != want {
			t.Errorf("docs/SUITE.md row %d:\n got  %s\n want %s", i+1, rows[i], want)
		}
	}
}

// BenchmarkNewSystems measures set-up: the four evaluation systems plus
// the 90-template suite over them. Statistics are built on first read, so
// this is catalog, optimizer and template construction.
func BenchmarkNewSystems(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystems(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Build(sys); err != nil {
			b.Fatal(err)
		}
	}
}
