// Package integration holds slow cross-module audits that exercise the
// whole stack: the 90-template suite, the real optimizer/Recost engine, the
// SCR technique and the harness together.
package integration

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/suite"
	"repro/internal/workload"
)

// TestSuiteWideGuaranteeAudit runs SCR2 over every suite template with the
// real cost model and audits the λ guarantee. Unlike the synthetic-engine
// property tests (which must hold unconditionally), the real cost model has
// a BCG discontinuity (the hash-join spill cliff), so the paper's result is
// the expectation: violations are rare and mild, and TotalCostRatio stays
// far below λ.
func TestSuiteWideGuaranteeAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs SCR over the full 90-template suite")
	}
	systems, err := suite.NewSystems(20170514)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	const (
		m      = 80
		lambda = 2.0
	)
	var (
		totalInstances  int64
		totalViolations int64
		worstMSO        float64 = 1
		tcOver2         int
	)
	for _, e := range entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			t.Fatalf("%s: %v", e.Tpl.Name, err)
		}
		base, err := workload.GenerateSet(e.Tpl.Dimensions(), m, 9)
		if err != nil {
			t.Fatal(err)
		}
		base, err = workload.Prepare(eng, base)
		if err != nil {
			t.Fatalf("%s: %v", e.Tpl.Name, err)
		}
		seq := &workload.Sequence{Name: e.Tpl.Name, Tpl: e.Tpl, Instances: base}
		tech, err := core.New(eng, core.WithLambda(lambda), core.WithViolationDetection(0.01))
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(context.Background(), eng, tech, seq, harness.Options{Lambda: lambda})
		if err != nil {
			t.Fatalf("%s: %v", e.Tpl.Name, err)
		}
		totalInstances += int64(res.M)
		totalViolations += res.BoundViolations
		if res.MSO > worstMSO {
			worstMSO = res.MSO
		}
		if res.TotalCostRatio > lambda {
			tcOver2++
		}
	}
	violationRate := float64(totalViolations) / float64(totalInstances)
	t.Logf("audit: %d instances over %d templates; bound violations %.3f%%; worst MSO %.2f; TC>λ templates: %d",
		totalInstances, len(entries), violationRate*100, worstMSO, tcOver2)
	// The paper's §7.2 finding: violations are rare. Allow up to 1% of
	// instances; TotalCostRatio must stay under λ for every template.
	if violationRate > 0.01 {
		t.Errorf("bound-violation rate %.3f%% exceeds 1%%", violationRate*100)
	}
	if tcOver2 > 0 {
		t.Errorf("%d templates have TotalCostRatio above λ", tcOver2)
	}
	// Even when BCG is violated, the damage should be bounded: SCR's
	// inference regions are local (§7.2's argument). The spill factor 2.5x
	// bounds the plausible overshoot.
	if worstMSO > lambda*2.5 {
		t.Errorf("worst MSO %.2f beyond the spill-explainable bound %.2f", worstMSO, lambda*2.5)
	}
}

// TestSuiteWideRecostConsistency verifies Recost(Optimize(sv)) == optimize
// cost on a sample of instances for every template — the engine-level
// invariant at suite scale.
func TestSuiteWideRecostConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes across the full suite")
	}
	systems, err := suite.NewSystems(20170514)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := workload.GenerateSet(e.Tpl.Dimensions(), 6, 13)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range insts {
			cp, c, err := eng.Optimize(q.SV)
			if err != nil {
				t.Fatalf("%s: optimize: %v", e.Tpl.Name, err)
			}
			rc, err := eng.Recost(cp, q.SV)
			if err != nil {
				t.Fatalf("%s: recost: %v", e.Tpl.Name, err)
			}
			if diff := (rc - c) / c; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s: recost %v != optimize %v at %v", e.Tpl.Name, rc, c, q.SV)
			}
		}
	}
}
