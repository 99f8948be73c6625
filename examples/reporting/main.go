// Reporting: a BI-dashboard workload over a TPC-DS-like star schema.
//
// Dashboards issue the same parameterized query with wildly different
// filters — "last week, premium items" vs "all of 2023, everything". This
// example runs 300 such instances through Optimize-Always, Optimize-Once,
// PCM and SCR and compares the paper's three metrics: cost sub-optimality,
// optimizer calls, and plans cached. It shows the Optimize-Once risk (a
// plan tuned for a narrow filter reused for a broad one) and how SCR holds
// sub-optimality under λ while optimizing a small fraction of instances.
//
// Run with: go run ./examples/reporting
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	sys := engine.NewSystem(catalog.NewTPCDS(0.1), 7)
	tpl := &query.Template{
		Name:    "dashboard",
		Catalog: sys.Cat,
		Tables:  []string{"store_sales", "date_dim", "item"},
		Joins: []query.Join{
			{Left: "store_sales", Right: "date_dim",
				LeftCol: "ss_sold_date_sk", RightCol: "d_date_sk", Selectivity: 1.0 / 73049},
			{Left: "store_sales", Right: "item",
				LeftCol: "ss_item_sk", RightCol: "i_item_sk", Selectivity: 1.0 / 1800},
		},
		Preds: []query.Predicate{
			{Table: "date_dim", Column: "d_year", Op: query.LE, Param: 0},
			{Table: "item", Column: "i_current_price", Op: query.GE, Param: 1},
			{Table: "store_sales", Column: "ss_quantity", Op: query.GE, Param: 2},
		},
		Agg:       query.GroupBy,
		GroupCard: 200,
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		log.Fatal(err)
	}

	// The workload: 300 dashboard refreshes. Most are "recent + narrow"
	// (small selectivities), a few are quarterly "everything" reports.
	rng := rand.New(rand.NewSource(42))
	var insts []workload.Instance
	for i := 0; i < 300; i++ {
		var sv []float64
		switch {
		case i%10 == 9: // broad quarterly report
			sv = []float64{0.5 + 0.4*rng.Float64(), 0.3 + 0.4*rng.Float64(), 0.5 + 0.4*rng.Float64()}
		case i%10 >= 7: // mid-size weekly view
			sv = []float64{0.05 + 0.1*rng.Float64(), 0.05 + 0.1*rng.Float64(), 0.1 + 0.1*rng.Float64()}
		default: // narrow daily drill-down
			sv = []float64{0.001 + 0.01*rng.Float64(), 0.002 + 0.02*rng.Float64(), 0.001 + 0.01*rng.Float64()}
		}
		insts = append(insts, workload.Instance{SV: sv})
	}
	insts, err = workload.Prepare(eng, insts)
	if err != nil {
		log.Fatal(err)
	}
	seq := &workload.Sequence{Name: "dashboard", Tpl: tpl, Instances: insts}
	fmt.Printf("dashboard workload: %d instances, %d distinct optimal plans\n\n",
		len(insts), workload.DistinctOptimalPlans(insts))

	techniques := []struct {
		label string
		make  func() (core.Technique, error)
	}{
		{"OptAlways", func() (core.Technique, error) { return baselines.NewOptAlways(eng), nil }},
		{"OptOnce", func() (core.Technique, error) { return baselines.NewOptOnce(eng), nil }},
		{"PCM(2)", func() (core.Technique, error) { return baselines.NewPCM(eng, 2) }},
		{"SCR(2)", func() (core.Technique, error) {
			return core.New(eng, core.WithLambda(2), core.WithViolationDetection(0.01))
		}},
		{"SCR(1.1)", func() (core.Technique, error) {
			return core.New(eng, core.WithLambda(1.1), core.WithViolationDetection(0.01))
		}},
	}
	fmt.Printf("%-10s %8s %8s %8s %10s %8s\n", "technique", "MSO", "TC", "numOpt", "numOpt%", "plans")
	for _, t := range techniques {
		tech, err := t.make()
		if err != nil {
			log.Fatal(err)
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.2f %8.3f %8d %9.1f%% %8d\n",
			t.label, res.MSO, res.TotalCostRatio, res.NumOpt, res.OptFraction*100, res.NumPlans)
	}
	fmt.Println("\nreading the table: OptOnce avoids optimization entirely but its MSO shows the")
	fmt.Println("risk of reusing one plan everywhere; SCR keeps MSO under its λ while calling")
	fmt.Println("the optimizer for only a fraction of instances and caching a handful of plans.")
}
