package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pqotest"
)

func TestAdvisorObservationValidation(t *testing.T) {
	var a LambdaAdvisor
	for _, bad := range [][2]float64{
		{-1, 1}, {1, 0}, {1, -2}, {math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1},
	} {
		if err := a.Observe(bad[0], bad[1]); err == nil {
			t.Errorf("Observe(%v, %v) should fail", bad[0], bad[1])
		}
	}
	if a.N() != 0 {
		t.Errorf("invalid observations were recorded: N=%d", a.N())
	}
	if _, err := a.Ratio(); err == nil {
		t.Error("Ratio without observations should fail")
	}
	if _, err := a.Recommend(); err == nil {
		t.Error("Recommend without observations should fail")
	}
}

func TestAdvisorRecommendationScales(t *testing.T) {
	// Free optimization → tight bound; optimization-dominated → loose.
	var cheap LambdaAdvisor
	for i := 0; i < 10; i++ {
		if err := cheap.Observe(0.001, 100); err != nil {
			t.Fatal(err)
		}
	}
	lo, err := cheap.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	var expensive LambdaAdvisor
	for i := 0; i < 10; i++ {
		if err := expensive.Observe(150, 100); err != nil {
			t.Fatal(err)
		}
	}
	hi, err := expensive.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if lo >= hi {
		t.Errorf("cheap-optimization λ %v not below expensive-optimization λ %v", lo, hi)
	}
	if lo < 1.05-1e-9 || hi > 2.0+1e-9 {
		t.Errorf("recommendations [%v, %v] outside default bounds [1.05, 2]", lo, hi)
	}
	// Ratio ≥ 1 saturates at MaxLambda.
	if math.Abs(hi-2.0) > 1e-9 {
		t.Errorf("saturated recommendation = %v, want 2.0", hi)
	}
}

func TestAdvisorCustomRange(t *testing.T) {
	a := LambdaAdvisor{MinLambda: 1.2, MaxLambda: 5}
	if err := a.Observe(50, 100); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if got < 1.2 || got > 5 {
		t.Errorf("recommendation %v outside [1.2, 5]", got)
	}
	bad := LambdaAdvisor{MinLambda: 0.5, MaxLambda: 2}
	bad.Observe(1, 1)
	if _, err := bad.Recommend(); err == nil {
		t.Error("MinLambda < 1 should fail")
	}
}

func TestAdvisorDynamicRecommendation(t *testing.T) {
	var a LambdaAdvisor
	for i := 1; i <= 9; i++ {
		if err := a.Observe(40, float64(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := a.RecommendDynamic()
	if err != nil {
		t.Fatal(err)
	}
	if d.Min < 1 || d.Max < d.Min {
		t.Errorf("dynamic range [%v, %v] invalid", d.Min, d.Max)
	}
	if d.Max > 10 {
		t.Errorf("dynamic max %v exceeds the cap", d.Max)
	}
	if d.RefCost != 500 {
		t.Errorf("RefCost = %v, want median 500", d.RefCost)
	}
	// The recommendation must be accepted by New.
	rng := rand.New(rand.NewSource(1))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, WithLambda(d.Min), WithDynamicLambda(d.Min, d.Max, d.RefCost)); err != nil {
		t.Errorf("advisor-recommended config rejected: %v", err)
	}
}
