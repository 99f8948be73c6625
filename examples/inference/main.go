// Inference: visualizes SCR's λ-optimal inference regions (Figure 4 of the
// paper) on a 2-d selectivity grid.
//
// After optimizing a handful of anchor instances, every grid cell is
// classified by how SCR would serve it: 'S' — the selectivity check infers
// a cached plan from G·L ≤ λ alone; 'C' — the selectivity check fails but
// the recost-based cost check succeeds (R·L ≤ λ/S); '.' — an optimizer
// call would be needed. The 'S' regions have the line/hyperbola-bounded
// shape derived in §5.3; the 'C' regions extend them wherever actual cost
// growth is slower than the BCG bound.
//
// Run with: go run ./examples/inference
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

func main() {
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
		log.Fatal(err)
	}

	lambda := 2.0
	scr, err := core.New(eng, core.WithLambda(lambda))
	if err != nil {
		log.Fatal(err)
	}
	anchors := [][]float64{
		{0.003, 0.003},
		{0.3, 0.3},
		{0.003, 0.5},
	}
	for _, sv := range anchors {
		if _, err := scr.Process(context.Background(), sv); err != nil {
			log.Fatal(err)
		}
	}

	const grid = 40
	lo, hi := 1e-4, 0.95
	fmt.Printf("SCR inference regions, λ=%g, anchors %v\n", lambda, anchors)
	fmt.Println("S = selectivity check, C = cost check, . = optimizer call, * = anchor")
	fmt.Println()
	for yi := grid - 1; yi >= 0; yi-- {
		fmt.Print("  ")
		for xi := 0; xi < grid; xi++ {
			sx := logScale(lo, hi, float64(xi)/(grid-1))
			sy := logScale(lo, hi, float64(yi)/(grid-1))
			fmt.Print(string(classify(scr, anchors, sx, sy)))
		}
		fmt.Println()
	}
	fmt.Println("\n(axes are log-scaled selectivities: x = l_shipdate dimension,")
	fmt.Println(" y = o_orderdate dimension; the straight/hyperbolic 'S' boundaries")
	fmt.Println(" around each anchor are the §5.3 geometry)")
}

// classify probes the SCR cache via ProbeCheck without mutating usage
// counters or triggering optimizer calls.
func classify(scr *core.SCR, anchors [][]float64, sx, sy float64) byte {
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

func logScale(lo, hi, t float64) float64 {
	return math.Exp(math.Log(lo) + t*(math.Log(hi)-math.Log(lo)))
}
