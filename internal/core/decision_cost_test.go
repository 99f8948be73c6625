package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pqotest"
	"repro/internal/suite"
)

// checkDecisionCosts drives fresh instances, repeats and perturbations
// through s and requires every decision that carries a cost to carry
// exactly eng.Recost(dec.Plan, sv), bit for bit. Statistics never advance
// here, so every cost is priced under the same epoch. It returns how
// many decisions carried a cost, per check.
func checkDecisionCosts(t *testing.T, s *SCR, eng Engine, seed int64) map[Check]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := eng.Dimensions()
	var seen [][]float64
	withCost := map[Check]int{}
	for i := 0; i < 300; i++ {
		var sv []float64
		switch {
		case len(seen) == 0 || i%3 == 0:
			sv = pqotest.RandomSVector(rng, d)
			seen = append(seen, sv)
		case i%3 == 1:
			sv = seen[rng.Intn(len(seen))]
		default:
			base := seen[rng.Intn(len(seen))]
			sv = make([]float64, d)
			for j := range sv {
				sv[j] = math.Min(1, base[j]*(0.5+rng.Float64()))
			}
		}
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		switch dec.Via {
		case ViaCost, ViaOptimizer:
			if !dec.HasCost {
				t.Fatalf("%s decision carries no cost", dec.Via)
			}
		case ViaSelectivity:
			if dec.HasCost {
				t.Fatalf("selectivity-check decision claims a cost it never computed")
			}
		}
		if !dec.HasCost {
			continue
		}
		want, err := eng.Recost(dec.Plan, sv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(dec.Cost) != math.Float64bits(want) {
			t.Fatalf("%s decision at %v: Cost %v, Recost %v", dec.Via, sv, dec.Cost, want)
		}
		withCost[dec.Via]++
	}
	return withCost
}

// TestDecisionCostMatchesRecost pins the cost a decision carries to what
// a separate Recost of the chosen plan returns, so a server can report it
// instead of recosting, on the synthetic engine and on a TPC-H template
// (batched, cached recosts and an epoch-reporting optimizer).
func TestDecisionCostMatchesRecost(t *testing.T) {
	t.Run("pqotest", func(t *testing.T) {
		eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(4)), 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(eng, WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		got := checkDecisionCosts(t, s, eng, 1)
		if got[ViaCost] == 0 || got[ViaOptimizer] == 0 {
			t.Fatalf("costed decisions by check: %v; want cost-check and optimizer ones", got)
		}
	})
	t.Run("tpch", func(t *testing.T) {
		systems, err := suite.NewSystems(3)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := suite.Build(systems)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Tpl.Name != "tpch_3way_00" {
				continue
			}
			eng, err := e.Sys.EngineFor(e.Tpl)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(eng, WithLambda(2))
			if err != nil {
				t.Fatal(err)
			}
			got := checkDecisionCosts(t, s, eng, 2)
			if got[ViaCost] == 0 || got[ViaOptimizer] == 0 {
				t.Fatalf("costed decisions by check: %v; want cost-check and optimizer ones", got)
			}
			return
		}
		t.Fatal("no tpch_3way_00 in the suite")
	})
}

// TestSharedDecisionCarriesOptimizerCost checks that callers who share
// an in-flight optimizer call receive its cost with the plan.
func TestSharedDecisionCarriesOptimizerCost(t *testing.T) {
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(5)), 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gateEngine{Engine: eng, release: make(chan struct{})}
	s, err := New(gated, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.2, 0.3, 0.4}
	const k = 8
	decs := make([]*Decision, k)
	var wg sync.WaitGroup
	for i := range decs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dec, err := s.Process(context.Background(), sv)
			if err != nil {
				t.Error(err)
				return
			}
			decs[i] = dec
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	close(gated.release)
	wg.Wait()
	want := eng.OptimalCost(sv)
	shared := 0
	for _, dec := range decs {
		if dec == nil || !dec.Shared {
			continue
		}
		shared++
		if !dec.HasCost || math.Float64bits(dec.Cost) != math.Float64bits(want) {
			t.Errorf("shared decision: HasCost=%v Cost=%v, want the optimizer's %v", dec.HasCost, dec.Cost, want)
		}
	}
	if shared == 0 {
		t.Skip("no caller joined the gated flight; nothing to check")
	}
}
