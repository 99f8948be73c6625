package exec

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/query"
)

// TestCostModelCorrelatesWithExecutionTime is the substrate-validation
// test: Table 3 (and the paper's whole premise that optimizer-estimated
// cost is a meaningful proxy) requires estimated plan cost to track actual
// execution time. We sweep selectivities, execute the optimizer's chosen
// plan for each, and require a strong positive correlation.
func TestCostModelCorrelatesWithExecutionTime(t *testing.T) {
	if testing.Short() {
		t.Skip("executes many plans")
	}
	cat := catalog.NewTPCH(0.01)
	sys := engine.NewSystem(cat, 42)
	db, err := Materialize(cat, sys.Gen, 40000)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &query.Template{
		Name:    "calib",
		Catalog: cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 15_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	var costs, secs []float64
	for _, sel := range []float64{0.005, 0.02, 0.08, 0.2, 0.4, 0.7, 0.95} {
		sv := []float64{sel, sel}
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		// Bind parameters matching the selectivities.
		v0, err := sys.Opt.StatsStore().ValueForSelectivityLE("lineitem", "l_shipdate", sel)
		if err != nil {
			t.Fatal(err)
		}
		v1, err := sys.Opt.StatsStore().ValueForSelectivityLE("orders", "o_orderdate", sel)
		if err != nil {
			t.Fatal(err)
		}
		// Median-of-3 timing to damp scheduler noise.
		best := time.Duration(1 << 62)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := db.Execute(cp.Plan, tpl, []float64{v0, v1}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		costs = append(costs, c)
		secs = append(secs, best.Seconds())
	}
	// Rank correlation: costlier plans must run longer. (The linear fit
	// below is informational — the in-memory executor has no I/O, so the
	// absolute relationship is non-linear.)
	rho, err := cost.SpearmanRho(costs, secs)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.8 {
		t.Errorf("cost/time rank correlation rho = %.2f, want >= 0.8\ncosts: %v\nsecs:  %v", rho, costs, secs)
	}
	r, err := cost.PearsonR(costs, secs)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := cost.Fit(costs, secs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("calibration: seconds ≈ %.3g·cost + %.3g (R²=%.2f, r=%.2f, rho=%.2f)",
		cal.Slope, cal.Intercept, cal.R2, r, rho)
}
