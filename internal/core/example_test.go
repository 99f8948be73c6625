package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/pqotest"
	"repro/internal/query"
	"repro/internal/workload"
)

// Example demonstrates SCR over a synthetic two-plan engine: the first
// instance optimizes, a near-identical one is served by the selectivity
// check, and a far-away one triggers the optimizer again.
func Example() {
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "indexish", Const: 1, Linear: []float64{5, 200}},
		{Name: "scanish", Const: 40, Linear: []float64{1, 1}},
	})
	if err != nil {
		panic(err)
	}
	scr, err := core.New(eng, core.WithLambda(2))
	if err != nil {
		panic(err)
	}
	for _, sv := range [][]float64{
		{0.01, 0.01},   // first: optimizer
		{0.011, 0.009}, // near the first: selectivity check
		{0.9, 0.9},     // different region: optimizer
	} {
		dec, err := scr.Process(context.Background(), sv)
		if err != nil {
			panic(err)
		}
		fmt.Println(dec.Via)
	}
	st := scr.Stats()
	fmt.Printf("numOpt=%d plans=%d\n", st.OptCalls, st.CurPlans)
	// Output:
	// optimizer
	// selectivity-check
	// optimizer
	// numOpt=2 plans=2
}

// ExampleGLFactors shows the §5.3 selectivity factors: one dimension grows
// 3x (contributing to G), the other shrinks 2x (contributing to L).
func ExampleGLFactors() {
	g, l, err := core.GLFactors([]float64{0.1, 0.4}, []float64{0.3, 0.2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("G=%.0f L=%.0f SubOpt bound=%.0f\n", g, l, g*l)
	// Output:
	// G=3 L=2 SubOpt bound=6
}

// ExampleLambdaAdvisor shows §6.2's λ-choosing procedure: observe the
// optimization-overhead-to-execution-cost ratio of a warm-up phase, then
// take the recommendation.
func ExampleLambdaAdvisor() {
	var adv core.LambdaAdvisor
	// Warm-up observations: optimization costs ~60% of execution.
	for i := 0; i < 5; i++ {
		if err := adv.Observe(300, 500); err != nil {
			panic(err)
		}
	}
	lambda, err := adv.Recommend()
	if err != nil {
		panic(err)
	}
	fmt.Printf("recommended λ = %.2f\n", lambda)
	// Output:
	// recommended λ = 1.79
}

// ExampleSCR_ProbeCheck visualizes SCR's λ-optimal inference regions
// (Figure 4 of the paper) on a 2-d selectivity grid.
//
// After optimizing a handful of anchor instances, every grid cell is
// classified by how SCR would serve it: 'S' — the selectivity check infers
// a cached plan from G·L ≤ λ alone; 'C' — the selectivity check fails but
// the recost-based cost check succeeds (R·L ≤ λ/S); '.' — an optimizer
// call would be needed. The 'S' regions have the line/hyperbola-bounded
// shape derived in §5.3; the 'C' regions extend them wherever actual cost
// growth is slower than the BCG bound.
func ExampleSCR_ProbeCheck() {
	sys := engine.NewSystem(catalog.NewTPCH(0.1), 5)
	tpl := &query.Template{
		Name:    "inference",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{
			Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey",
			Selectivity: 1.0 / 150_000,
		}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		panic(err)
	}

	lambda := 2.0
	scr, err := core.New(eng, core.WithLambda(lambda))
	if err != nil {
		panic(err)
	}
	anchors := [][]float64{
		{0.003, 0.003},
		{0.3, 0.3},
		{0.003, 0.5},
	}
	for _, sv := range anchors {
		if _, err := scr.Process(context.Background(), sv); err != nil {
			panic(err)
		}
	}

	// classify probes the cache without mutating usage counters or
	// triggering optimizer calls.
	classify := func(sx, sy float64) byte {
		for _, a := range anchors {
			if math.Abs(math.Log(a[0]/sx)) < 0.08 && math.Abs(math.Log(a[1]/sy)) < 0.08 {
				return '*'
			}
		}
		switch scr.ProbeCheck([]float64{sx, sy}) {
		case core.ViaSelectivity:
			return 'S'
		case core.ViaCost:
			return 'C'
		default:
			return '.'
		}
	}
	const grid = 40
	lo, hi := 1e-4, 0.95
	logScale := func(t float64) float64 {
		return math.Exp(math.Log(lo) + t*(math.Log(hi)-math.Log(lo)))
	}
	fmt.Printf("SCR inference regions, λ=%g, anchors %v\n", lambda, anchors)
	fmt.Println("S = selectivity check, C = cost check, . = optimizer call, * = anchor")
	fmt.Println()
	for yi := grid - 1; yi >= 0; yi-- {
		fmt.Print("  ")
		for xi := 0; xi < grid; xi++ {
			sx := logScale(float64(xi) / (grid - 1))
			sy := logScale(float64(yi) / (grid - 1))
			fmt.Print(string(classify(sx, sy)))
		}
		fmt.Println()
	}
	fmt.Println("\n(axes are log-scaled selectivities: x = l_shipdate dimension,")
	fmt.Println(" y = o_orderdate dimension; the straight/hyperbolic 'S' boundaries")
	fmt.Println(" around each anchor are the §5.3 geometry)")
	// Output:
	// SCR inference regions, λ=2, anchors [[0.003 0.003] [0.3 0.3] [0.003 0.5]]
	// S = selectivity check, C = cost check, . = optimizer call, * = anchor
	//
	//   .........CCCCCCCCCC.............CCCCCCCC
	//   .........CCCCCSSCCC.............CCCCCCCC
	//   .........CCCCSSSSCC.............CCCCCCCC
	//   ..........CCSSSSSSC.............CCSSCCCC
	//   ...........CCSSSS...............CSSSSCCC
	//   .............CSS................SS*SSCCC
	//   .................................SSSCCCC
	//   ..................................SCCCCC
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ..............CC........................
	//   .............CCCC.......................
	//   ............CCCCC.......................
	//   ...........CCCCCCC......................
	//   ..........CCCCCCCC......................
	//   .........CCCCCSSCC......................
	//   ........CCCCCSSSSC......................
	//   ........CCCCCSSSSC......................
	//   .........CCCCCSSC.......................
	//   ...........CCCCC........................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//   ........................................
	//
	// (axes are log-scaled selectivities: x = l_shipdate dimension,
	//  y = o_orderdate dimension; the straight/hyperbolic 'S' boundaries
	//  around each anchor are the §5.3 geometry)
}

// ExampleWithPlanBudget runs an operational multi-tenant workload with a
// hard plan-cache budget and a dynamic sub-optimality bound.
//
// A SaaS backend runs one hot parameterized query per endpoint, across
// tenants whose data sizes differ by orders of magnitude — so instance
// selectivities differ by orders of magnitude too. Memory for cached plans
// is rationed per query (the paper's plan budget k, §6.3.1), and cheap
// instances can tolerate a looser bound than expensive ones (Appendix D's
// dynamic λ).
func ExampleWithPlanBudget() {
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
		panic(err)
	}

	// Tenants: small tenants produce tiny selectivities, the whale tenant
	// produces broad ones. 400 requests, tenant chosen by a skewed dice.
	rng := rand.New(rand.NewSource(3))
	tenantScale := []float64{0.0005, 0.002, 0.01, 0.05, 0.4} // tenant size bands
	clamp := func(v float64) float64 { return math.Max(1e-4, math.Min(v, 0.95)) }
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
		panic(err)
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
			panic(err)
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-30s %8.2f %8.3f %9.1f%% %8d %9dB\n",
			c.label, res.MSO, res.TotalCostRatio, res.OptFraction*100,
			res.NumPlans, res.MemoryBytes)
	}
	fmt.Println("\nreading the table: tightening the plan budget trades optimizer calls for")
	fmt.Println("memory without ever violating the guarantee (evicted plans take their")
	fmt.Println("instance entries with them); dynamic λ relaxes cheap tenants' bound to win")
	fmt.Println("back plan-cache space and optimizer calls.")
	// Output:
	// multi-tenant workload: 400 requests, 8 distinct optimal plans
	//
	// configuration                       MSO       TC    numOpt%    plans  cache mem
	// SCR λ=1.2, unlimited cache         1.09    1.006      12.2%        4      8563B
	// SCR λ=1.2, budget k=5              1.09    1.006      12.2%        4      8563B
	// SCR λ=1.2, budget k=2              1.09    1.002      56.8%        2      2663B
	// SCR dynamic λ∈[1.2,8], k=5         1.96    1.113       1.5%        3      3363B
	//
	// reading the table: tightening the plan budget trades optimizer calls for
	// memory without ever violating the guarantee (evicted plans take their
	// instance entries with them); dynamic λ relaxes cheap tenants' bound to win
	// back plan-cache space and optimizer calls.
}
