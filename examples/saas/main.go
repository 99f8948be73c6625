// SaaS: an operational multi-tenant workload with a hard plan-cache budget
// and a dynamic sub-optimality bound.
//
// A SaaS backend runs one hot parameterized query per endpoint, across
// tenants whose data sizes differ by orders of magnitude — so instance
// selectivities differ by orders of magnitude too. Memory for cached plans
// is rationed per query (the paper's plan budget k, §6.3.1), and cheap
// instances can tolerate a looser bound than expensive ones (Appendix D's
// dynamic λ).
//
// Run with: go run ./examples/saas
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	sys := engine.NewSystem(catalog.NewRD1(), 11)
	tpl := &query.Template{
		Name:    "tenant_activity",
		Catalog: sys.Cat,
		Tables:  []string{"events", "sessions", "devices"},
		Joins: []query.Join{
			{Left: "events", Right: "sessions",
				LeftCol: "events_fk", RightCol: "sessions_id", Selectivity: 1.0 / 9_000_000},
			{Left: "sessions", Right: "devices",
				LeftCol: "sessions_fk", RightCol: "devices_id", Selectivity: 1.0 / 1_200_000},
		},
		Preds: []query.Predicate{
			{Table: "events", Column: "events_ts", Op: query.GE, Param: 0},
			{Table: "events", Column: "events_amount", Op: query.GE, Param: 1},
			{Table: "sessions", Column: "sessions_score", Op: query.LE, Param: 2},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		log.Fatal(err)
	}

	// Tenants: small tenants produce tiny selectivities, the whale tenant
	// produces broad ones. 400 requests, tenant chosen by a skewed dice.
	rng := rand.New(rand.NewSource(3))
	tenantScale := []float64{0.0005, 0.002, 0.01, 0.05, 0.4} // tenant size bands
	var insts []workload.Instance
	for i := 0; i < 400; i++ {
		band := tenantScale[rng.Intn(len(tenantScale))]
		sv := []float64{
			clamp(band * (0.5 + rng.Float64())),
			clamp(band * 2 * (0.5 + rng.Float64())),
			clamp(band * 4 * (0.5 + rng.Float64())),
		}
		insts = append(insts, workload.Instance{SV: sv})
	}
	insts, err = workload.Prepare(eng, insts)
	if err != nil {
		log.Fatal(err)
	}
	seq := &workload.Sequence{Name: "saas", Tpl: tpl, Instances: insts}

	// Reference cost for the dynamic λ decay: the median optimal cost.
	costs := make([]float64, len(insts))
	for i, q := range insts {
		costs[i] = q.OptCost
	}
	ref := harness.Percentile(costs, 0.5)

	detect := core.WithViolationDetection(0.01)
	configs := []struct {
		label string
		opts  []core.Option
	}{
		{"SCR λ=1.2, unlimited cache", []core.Option{core.WithLambda(1.2), detect}},
		{"SCR λ=1.2, budget k=5", []core.Option{core.WithLambda(1.2), core.WithPlanBudget(5), detect}},
		{"SCR λ=1.2, budget k=2", []core.Option{core.WithLambda(1.2), core.WithPlanBudget(2), detect}},
		{"SCR dynamic λ∈[1.2,8], k=5", []core.Option{core.WithLambda(1.2), core.WithPlanBudget(5), detect,
			core.WithDynamicLambda(1.2, 8, ref)}},
	}
	fmt.Printf("multi-tenant workload: %d requests, %d distinct optimal plans\n\n",
		len(insts), workload.DistinctOptimalPlans(insts))
	fmt.Printf("%-30s %8s %8s %10s %8s %10s\n",
		"configuration", "MSO", "TC", "numOpt%", "plans", "cache mem")
	for _, c := range configs {
		tech, err := core.New(eng, c.opts...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-30s %8.2f %8.3f %9.1f%% %8d %9dB\n",
			c.label, res.MSO, res.TotalCostRatio, res.OptFraction*100,
			res.NumPlans, res.MemoryBytes)
	}
	fmt.Println("\nreading the table: tightening the plan budget trades optimizer calls for")
	fmt.Println("memory without ever violating the guarantee (evicted plans take their")
	fmt.Println("instance entries with them); dynamic λ relaxes cheap tenants' bound to win")
	fmt.Println("back plan-cache space and optimizer calls.")
}

func clamp(v float64) float64 {
	return math.Max(1e-4, math.Min(v, 0.95))
}
