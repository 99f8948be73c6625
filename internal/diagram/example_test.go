package diagram_test

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/diagram"
	"repro/internal/engine"
	"repro/internal/query"
)

// ExampleDiagram_Reduce renders the plan diagram of the suite's
// tpch_li_ord_00 template (lineitem ⋈ orders, parameterized on l_shipdate
// and o_orderdate) on a 20×20 log-scaled grid, each letter one plan's
// optimality region, then the anorexic reduction at λ=2: the fewest plans
// that cover every cell within cost factor λ of its optimal plan.
func ExampleDiagram_Reduce() {
	sys := engine.NewSystem(catalog.NewTPCH(0.1), 20170514)
	tpl := &query.Template{
		Name:    "tpch_li_ord_00",
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
		panic(err)
	}
	d, err := diagram.Build(eng, 20, 1e-4, 0.95)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plan diagram: %d distinct plans\n%s", d.NumPlans(), d.Render())
	r, err := d.Reduce(2)
	if err != nil {
		panic(err)
	}
	so, err := r.MaxSubOptimality()
	if err != nil {
		panic(err)
	}
	fmt.Printf("anorexic reduction at λ=2: %d → %d plans (max sub-optimality %.3f)\n%s",
		d.NumPlans(), r.NumPlans(), so, r.Render())
	// Output:
	// plan diagram: 7 distinct plans
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDDGGGGGGGGGGG
	// DDDDDDDDEGGGGGGGGGGG
	// DDDDDDDEEGGGGGGGGGGG
	// DDDDDDEEEGGGGGGGGGGG
	// DDDDDEEEFGGGGGGGGGGG
	// DDDDEEEFFGGGGGGGGGGG
	// CCCCCCAAABBBBBBBBBBB
	// CCCCCAAAABBBBBBBBBBB
	// CCCCAAAAABBBBBBBBBBB
	// CCCAAAAAABBBBBBBBBBB
	// CCAAAAAAABBBBBBBBBBB
	// CAAAAAAAABBBBBBBBBBB
	// AAAAAAAAABBBBBBBBBBB
	// AAAAAAAAABBBBBBBBBBB
	// AAAAAAAAABBBBBBBBBBB
	// anorexic reduction at λ=2: 7 → 3 plans (max sub-optimality 1.866)
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBBBCCCCCCCCCCC
	// BBBBBBBAACCCCCCCCCCC
	// BBBBBAAAACCCCCCCCCCC
	// BBBBAAAAACCCCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
	// AAAAAAAAAAACCCCCCCCC
}
