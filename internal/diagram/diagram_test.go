package diagram

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/query"
)

func testEngine(t testing.TB) *engine.TemplateEngine {
	t.Helper()
	sys := engine.NewSystem(catalog.NewTPCH(0.1), 42)
	tpl := &query.Template{
		Name:    "diag2d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 150_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestBuildValidation(t *testing.T) {
	eng := testEngine(t)
	if _, err := Build(eng, 1, 1e-4, 0.9); err == nil {
		t.Error("grid=1 should fail")
	}
	if _, err := Build(eng, 8, 0, 0.9); err == nil {
		t.Error("lo=0 should fail")
	}
	if _, err := Build(eng, 8, 0.5, 0.1); err == nil {
		t.Error("hi<lo should fail")
	}
	if _, err := Build(eng, 8, 0.1, 2); err == nil {
		t.Error("hi>1 should fail")
	}
}

func TestBuildProducesMultiPlanDiagram(t *testing.T) {
	eng := testEngine(t)
	d, err := Build(eng, 12, 1e-4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPlans() < 3 {
		t.Errorf("diagram has %d plans, expected a rich 2-d diagram", d.NumPlans())
	}
	counts := d.CellCounts()
	total := 0
	for _, c := range counts {
		if c == 0 {
			t.Error("a plan with zero cells should not be in the diagram")
		}
		total += c
	}
	if total != 12*12 {
		t.Errorf("cell counts sum %d, want %d", total, 144)
	}
	// Winner costs positive, and the base diagram's assignment is optimal.
	so, err := d.MaxSubOptimality()
	if err != nil {
		t.Fatal(err)
	}
	if so > 1+1e-9 {
		t.Errorf("base diagram max sub-optimality %v, want 1", so)
	}
	// Rendering is grid-shaped.
	lines := strings.Split(strings.TrimRight(d.Render(), "\n"), "\n")
	if len(lines) != 12 || len(lines[0]) != 12 {
		t.Errorf("render shape %dx%d, want 12x12", len(lines), len(lines[0]))
	}
}

func TestAnorexicReduction(t *testing.T) {
	eng := testEngine(t)
	d, err := Build(eng, 12, 1e-4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	base := d.NumPlans()

	prev := base + 1
	for _, lambda := range []float64{1.05, 1.2, 2.0, 10.0} {
		r, err := d.Reduce(lambda)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumPlans() > base {
			t.Errorf("λ=%v: reduction grew the plan set (%d > %d)", lambda, r.NumPlans(), base)
		}
		// Monotone: a looser threshold never needs more plans.
		if r.NumPlans() > prev {
			t.Errorf("λ=%v needs %d plans, tighter threshold needed %d", lambda, r.NumPlans(), prev)
		}
		prev = r.NumPlans()
		// The reduced assignment respects the threshold everywhere.
		so, err := r.MaxSubOptimality()
		if err != nil {
			t.Fatal(err)
		}
		if so > lambda*(1+1e-9) {
			t.Errorf("λ=%v: reduced diagram has sub-optimality %v", lambda, so)
		}
	}
	// The headline: a λ=2 anorexic diagram needs very few plans — the
	// offline analogue of SCR's small plan cache.
	r2, err := d.Reduce(2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumPlans() > (base+1)/2 {
		t.Errorf("λ=2 reduction kept %d of %d plans; expected at least half retired", r2.NumPlans(), base)
	}
	t.Logf("anorexic reduction: %d plans → %d at λ=1.05 → %d at λ=2",
		base, mustPlans(t, d, 1.05), r2.NumPlans())
}

func mustPlans(t *testing.T, d *Diagram, lambda float64) int {
	t.Helper()
	r, err := d.Reduce(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return r.NumPlans()
}

func TestReduceValidation(t *testing.T) {
	eng := testEngine(t)
	d, err := Build(eng, 6, 1e-3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Reduce(0.9); err == nil {
		t.Error("λ<1 should fail")
	}
	// λ=1 is a no-op reduction (only exact-cost swallowing possible).
	r, err := d.Reduce(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPlans() > d.NumPlans() {
		t.Error("λ=1 reduction grew the plan set")
	}
}
