package core

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/stats"
)

// TestAdvanceOutsideFootprintKeepsTemplateCurrent is the cost-epoch
// regression: statistics advances that leave a template's footprint alone
// must not make its cache lag. The template (realEngine) has no constant
// predicate; the advances refresh one of its parameterized columns — whose
// selectivity comes from the sVector, not the histogram — and then
// resample everything. Afterwards the node generation has moved, but the
// template reports no lagging instance, has nothing to revalidate, serves
// every cached instance at full guarantee under cost epoch 1, and raises
// no skew flag once the cluster epoch it observes equals its own.
func TestAdvanceOutsideFootprintKeepsTemplateCurrent(t *testing.T) {
	eng := realEngine(t)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vecs := [][]float64{{0.02, 0.1}, {0.6, 0.5}, {0.3, 0.3}, {0.05, 0.02}}
	for _, sv := range vecs {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}

	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i * 7)
	}
	next, err := eng.Opt.StatsStore().Apply([]stats.HistogramDelta{{
		Table: "orders", Column: "o_orderdate", Values: vals,
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng.AdvanceEpoch(next)
	resampled := stats.Build(eng.Opt.Cat, datagen.New(eng.Opt.Cat, 77))
	eng.AdvanceEpoch(resampled)
	s.ObserveClusterEpoch(eng.StatsEpoch())

	if got := s.CurrentStatsEpoch(); got != 3 {
		t.Fatalf("node epoch = %d, want 3", got)
	}
	st := s.Stats()
	if st.StatsEpoch != 3 || st.LaggingInstances != 0 || st.EpochSkew != 0 {
		t.Fatalf("stats after advances: epoch %d lagging %d skew %d, want 3, 0, 0",
			st.StatsEpoch, st.LaggingInstances, st.EpochSkew)
	}
	if s.SkewLagging() {
		t.Fatal("node reports skew lag at the cluster's own epoch")
	}
	run, err := s.Revalidate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-run.Done()
	if p := run.Progress(); p.TargetEpoch != 1 || p.Total != 0 {
		t.Fatalf("revalidation = target %d total %d, want 1, 0", p.TargetEpoch, p.Total)
	}
	optCalls := s.Stats().OptCalls
	for _, sv := range vecs {
		dec, err := s.Process(ctx, sv)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Degraded || dec.Via == ViaOptimizer || dec.Epoch != 1 {
			t.Errorf("cached %v served via %v (degraded %v %q) at epoch %d, want a check hit at epoch 1",
				sv, dec.Via, dec.Degraded, dec.DegradedReason, dec.Epoch)
		}
	}
	if got := s.Stats().OptCalls; got != optCalls {
		t.Errorf("advances outside the footprint cost %d optimizer calls", got-optCalls)
	}
}
