package core

import (
	"context"
	"math/rand"
	"testing"
)

// TestOnePlanCompilesOneMemo optimizes k never-seen instances that all
// return one plan and checks that the plan's shrunken memo is compiled at
// most once: Appendix B charges the compilation per stored plan, and the
// k−1 optimizer results that repeat the stored plan are dropped
// uncompiled.
func TestOnePlanCompilesOneMemo(t *testing.T) {
	eng := realEngine(t)
	rng := rand.New(rand.NewSource(3))
	// k vectors near one point, all optimized to its plan.
	base := []float64{0.02, 0.3}
	cp0, _, err := eng.Optimize(base)
	if err != nil {
		t.Fatal(err)
	}
	var svs [][]float64
	for len(svs) < 32 {
		sv := []float64{base[0] * (0.9 + 0.2*rng.Float64()), base[1] * (0.9 + 0.2*rng.Float64())}
		cp, _, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Fingerprint() == cp0.Fingerprint() {
			svs = append(svs, sv)
		}
	}
	// λ = 1 with no cost check: every distinct vector reaches the
	// optimizer.
	s := mustSCR(t, eng, WithLambda(1), WithoutCostCheck())
	before := eng.MemoCompiles()
	for _, sv := range svs {
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Optimized {
			t.Fatalf("%v served via %s, want the optimizer", sv, dec.Via)
		}
	}
	st := s.Stats() // charges the stored plan's memory, memo included
	if st.CurPlans != 1 || st.OptCalls != int64(len(svs)) {
		t.Fatalf("%d optimizer calls stored %d plans, want %d calls and 1 plan", st.OptCalls, st.CurPlans, len(svs))
	}
	if n := eng.MemoCompiles() - before; n > 1 {
		t.Fatalf("%d optimizer calls returning one plan compiled %d memos, want at most 1", len(svs), n)
	}
}
