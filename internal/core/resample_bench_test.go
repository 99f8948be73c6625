package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
)

// BenchmarkFirstProcessAfterResample measures the first Process on a
// template with a constant predicate after engine.System.ResampleStats
// installs a store whose histograms are built on first read. Each
// iteration, off the clock, resamples the TPC-H statistics with a new
// seed and advances the epoch; on the clock, one Process of a vector.
//
//   - cold: the SCR is new, so the request reaches the optimizer, which
//     reads the constant predicate's column (orders.o_orderdate) first
//     and builds its histogram on the request path — the stall planbench
//     cannot see.
//   - warm: the SCR holds 16 instances optimized before the resample and
//     the request repeats one of them; their anchors lag the new epoch.
//
// The via-*-pct metrics say how each iteration was served. A report,
// not a gate.
func BenchmarkFirstProcessAfterResample(b *testing.B) {
	sys := engine.NewSystem(catalog.NewTPCH(0.1), 1)
	tpl := &query.Template{
		Name:    "li_ord_const",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 150_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "lineitem", Column: "l_quantity", Op: query.LE, Param: 1},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: -1, Value: 300},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vector := func() []float64 {
		return []float64{0.01 + 0.98*rng.Float64(), 0.01 + 0.98*rng.Float64()}
	}
	ctx := context.Background()
	seed := int64(100)
	for _, warm := range []int{0, 16} {
		name := "cold"
		if warm > 0 {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			vias := map[core.Check]int{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := core.New(eng, core.WithLambda(1.1))
				if err != nil {
					b.Fatal(err)
				}
				sv := vector()
				for k := 0; k < warm; k++ {
					if k > 0 {
						sv = vector()
					}
					if _, err := s.Process(ctx, sv); err != nil {
						b.Fatal(err)
					}
				}
				seed++
				sys.AdvanceEpoch(sys.ResampleStats(seed))
				b.StartTimer()
				dec, err := s.Process(ctx, sv)
				if err != nil {
					b.Fatal(err)
				}
				vias[dec.Via]++
			}
			b.StopTimer()
			for via, n := range vias {
				b.ReportMetric(float64(n)/float64(b.N)*100, "via-"+via.String()+"-pct")
			}
		})
	}
}
