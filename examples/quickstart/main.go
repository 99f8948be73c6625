// Quickstart: the smallest end-to-end use of the library, written against
// the public pqo facade (the single import external consumers use).
//
// It builds a database system (catalog + statistics + optimizer), declares
// a parameterized query template from SQL, wraps it in an engine, and
// processes a stream of query instances through SCR with a λ=2
// sub-optimality guarantee — printing, for each instance, whether the plan
// came from the cache (selectivity or cost check) or from a fresh
// optimizer call.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/pqo"
)

func main() {
	// 1. A database: TPC-H-shaped catalog at scale factor 0.1, with
	//    histograms built from deterministic synthetic data.
	sys := pqo.NewSystem(pqo.TPCH(0.1), 1)

	// 2. A parameterized query: lineitem ⋈ orders with two parameterized
	//    range predicates (the paper's "dimensions", placeholders ?0, ?1).
	tpl, err := pqo.ParseTemplate("quickstart", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		log.Fatal(err)
	}

	// 3. SCR with a guaranteed cost sub-optimality bound of 2.
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		log.Fatal(err)
	}

	// 4. A stream of query instances. In an application these arrive as
	//    parameter values; here we specify predicate selectivities
	//    directly and also show the parameter-value path via stats.
	fmt.Println("query:", tpl.SQL())
	fmt.Println()
	instances := [][]float64{
		{0.02, 0.10}, // ships recently, big orders
		{0.021, 0.11},
		{0.018, 0.09},
		{0.60, 0.50}, // a reporting-style broad instance
		{0.58, 0.52},
		{0.02, 0.80},
		{0.019, 0.78},
		{0.0005, 0.001}, // a needle lookup
	}
	ctx := context.Background()
	for i, sv := range instances {
		dec, err := scr.Process(ctx, sv)
		if err != nil {
			log.Fatal(err)
		}
		cost, err := eng.Recost(dec.Plan, sv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("instance %d  sv=%-14v  via=%-18s  est.cost=%.1f\n",
			i+1, sv, dec.Via, cost)
	}

	st := scr.Stats()
	fmt.Printf("\noptimizer calls: %d of %d instances; plans cached: %d (memory ~%d bytes)\n",
		st.OptCalls, st.Instances, st.CurPlans, st.MemoryBytes)

	// Bonus: binding real parameter values instead of selectivities.
	v, err := sys.Opt.StatsStore().ValueForSelectivityLE("lineitem", "l_shipdate", 0.02)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfor reference: selectivity 0.02 on l_shipdate corresponds to l_shipdate <= %.0f\n", v)
}
