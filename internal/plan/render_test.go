package plan_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/suite"
)

// TestStringRendersOnce pins the lazy plan text: the optimizer and
// Recost never render a plan, the first String call renders it, and
// later calls return the stored text without allocating.
func TestStringRendersOnce(t *testing.T) {
	systems, err := suite.NewSystems(1)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	var eng *engine.TemplateEngine
	for _, e := range entries {
		if e.Tpl.Name == "tpch_3way_00" {
			if eng, err = e.Sys.EngineFor(e.Tpl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if eng == nil {
		t.Fatal("no tpch_3way_00 in the suite")
	}
	rng := rand.New(rand.NewSource(1))
	sv := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	cp, _, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recost(cp, sv); err != nil {
		t.Fatal(err)
	}
	if plan.Rendered(cp.Plan) {
		t.Fatal("the optimizer path rendered the plan text")
	}
	text := cp.Plan.String()
	if text == "" || !plan.Rendered(cp.Plan) {
		t.Fatalf("String() = %q, rendered = %v", text, plan.Rendered(cp.Plan))
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if cp.Plan.String() != text {
			t.Fatal("String() changed between calls")
		}
	}); allocs != 0 {
		t.Errorf("a rendered plan's String() allocates %.1f times", allocs)
	}
}
