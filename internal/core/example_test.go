package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/pqotest"
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
