package core_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pqotest"
)

// TestProcessHitPathAllocBudget pins the allocation budget of the serving
// hot path: Process on a warm cache served by the selectivity check. The
// budget covers the Decision value; a selectivity-check hit returns before
// the cost check's candidate list is set up.
func TestProcessHitPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	eng, err := pqotest.RandomEngine(rng, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := core.New(eng, core.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sv := pqotest.RandomSVector(rng, 4)
	if _, err := scr.Process(ctx, sv); err != nil { // cold miss populates the cache
		t.Fatal(err)
	}
	dec, err := scr.Process(ctx, sv)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Via != core.ViaSelectivity {
		t.Fatalf("identical repeat served via %s, want selectivity-check", dec.Via)
	}

	const budget = 2
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := scr.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("Process hit path allocates %.1f per run, budget %d", allocs, budget)
	}
}

// TestProcessCostCheckAllocBudget pins the allocation budget of a
// cost-check hit: Process on an instance that fails the selectivity check
// and is served by recosting a cached plan. The budget covers the Decision
// value; with the default cost-check limit the candidate list lives in
// getPlan's frame. The realEngine case recosts through a TemplateEngine:
// PrepareRecost, the pooled Env and the shrunken memo's RecostWith, the
// path a served cost-check hit takes.
func TestProcessCostCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	synthetic := func(t *testing.T, rng *rand.Rand) core.Engine {
		eng, err := pqotest.RandomEngine(rng, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	real := func(t *testing.T, _ *rand.Rand) core.Engine { return core.RealEngine(t) }
	for _, tc := range []struct {
		name string
		eng  func(*testing.T, *rand.Rand) core.Engine
	}{{"synthetic", synthetic}, {"realEngine", real}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			eng := tc.eng(t, rng)
			scr, err := core.New(eng, core.WithLambda(2))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var sv []float64
			for i := 0; i < 1000 && sv == nil; i++ {
				v := pqotest.RandomSVector(rng, eng.Dimensions())
				switch scr.ProbeCheck(v) {
				case core.ViaCost:
					sv = v
				case core.ViaOptimizer:
					if _, err := scr.Process(ctx, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if sv == nil {
				t.Fatal("no instance served by the cost check in 1000 draws")
			}
			dec, err := scr.Process(ctx, sv)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Via != core.ViaCost {
				t.Fatalf("probed cost-check instance served via %s", dec.Via)
			}

			const budget = 1
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := scr.Process(ctx, sv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("Process cost-check hit allocates %.1f per run, budget %d", allocs, budget)
			}
		})
	}
}
