package pqo_test

import (
	"context"
	"fmt"

	"repro/pqo"
)

// Example is the smallest end-to-end use of the library: it builds a
// database system (catalog + statistics + optimizer), declares a
// parameterized query template from SQL, wraps it in an engine, and
// processes a stream of query instances through SCR with a λ=2
// sub-optimality guarantee — printing, for each instance, whether the plan
// came from the cache (selectivity or cost check) or from a fresh
// optimizer call.
func Example() {
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
		panic(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		panic(err)
	}

	// 3. SCR with a guaranteed cost sub-optimality bound of 2.
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		panic(err)
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
			panic(err)
		}
		cost, err := eng.Recost(dec.Plan, sv)
		if err != nil {
			panic(err)
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
		panic(err)
	}
	fmt.Printf("\nfor reference: selectivity 0.02 on l_shipdate corresponds to l_shipdate <= %.0f\n", v)
	// Output:
	// query: SELECT * FROM lineitem, orders WHERE lineitem.l_orderkey = orders.o_orderkey AND lineitem.l_shipdate <= ?0 AND orders.o_totalprice >= ?1
	//
	// instance 1  sv=[0.02           0.1           ]  via=optimizer           est.cost=19680.1
	// instance 2  sv=[0.021          0.11          ]  via=selectivity-check   est.cost=19684.3
	// instance 3  sv=[0.018          0.09          ]  via=selectivity-check   est.cost=19674.7
	// instance 4  sv=[0.6            0.5           ]  via=cost-check          est.cost=20496.1
	// instance 5  sv=[0.58           0.52          ]  via=cost-check          est.cost=20478.1
	// instance 6  sv=[0.02           0.8           ]  via=cost-check          est.cost=19890.1
	// instance 7  sv=[0.019          0.78          ]  via=cost-check          est.cost=19882.9
	// instance 8  sv=[0.0005         0.001         ]  via=optimizer           est.cost=4842.3
	//
	// optimizer calls: 2 of 8 instances; plans cached: 2 (memory ~1353 bytes)
	//
	// for reference: selectivity 0.02 on l_shipdate corresponds to l_shipdate <= 53
}

// ExampleInspectSnapshot exports an SCR's plan cache and summarizes it
// without an engine: which plans are cached, how many optimized instances
// anchor each plan's inference region, their usage counts and cost ranges.
// A file the server's /v1/snapshot wrote is read back with
// ReadSnapshotFile first.
func ExampleInspectSnapshot() {
	sys := pqo.NewSystem(pqo.TPCH(0.1), 1)
	tpl, err := pqo.ParseTemplate("snapshot", `
		SELECT * FROM lineitem, orders
		WHERE lineitem.l_orderkey = orders.o_orderkey
		  AND lineitem.l_shipdate <= ?0
		  AND orders.o_totalprice >= ?1`, sys.Cat)
	if err != nil {
		panic(err)
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		panic(err)
	}
	scr, err := pqo.New(eng, pqo.WithLambda(2))
	if err != nil {
		panic(err)
	}
	for _, sv := range [][]float64{{0.02, 0.10}, {0.021, 0.11}, {0.0005, 0.001}, {0.9, 0.001}} {
		if _, err := scr.Process(context.Background(), sv); err != nil {
			panic(err)
		}
	}
	data, err := scr.Export()
	if err != nil {
		panic(err)
	}

	sum, err := pqo.InspectSnapshot(data)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d plans, %d optimized instances, d=%d\n", len(sum.Plans), sum.Instances, sum.Dimensions)
	for i, p := range sum.Plans {
		fmt.Printf("plan %d: instances=%d usage=%d cost %.0f-%.0f quarantined=%d\n",
			i+1, p.Instances, p.Usage, p.MinCost, p.MaxCost, p.Quarantined)
	}
	// Output:
	// 2 plans, 3 optimized instances, d=2
	// plan 1: instances=1 usage=1 cost 4842-4842 quarantined=0
	// plan 2: instances=2 usage=3 cost 19680-20706 quarantined=0
}
