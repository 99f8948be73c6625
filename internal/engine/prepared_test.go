package engine_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/suite"
)

// preparedRig is one suite template's engine, up to 8 distinct plans it
// optimized, and 48 seeded vectors to recost them at: the batch SCR's cost
// check and redundancy sweep run for one instance.
type preparedRig struct {
	eng   *engine.TemplateEngine
	plans []*engine.CachedPlan
	svs   [][]float64
}

func newPreparedRig(tb testing.TB, name string) *preparedRig {
	tb.Helper()
	systems, err := suite.NewSystems(1)
	if err != nil {
		tb.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		tb.Fatal(err)
	}
	var r preparedRig
	for _, e := range entries {
		if e.Tpl.Name == name {
			if r.eng, err = e.Sys.EngineFor(e.Tpl); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if r.eng == nil {
		tb.Fatalf("no suite template %q", name)
	}
	rng := rand.New(rand.NewSource(7))
	vector := func() []float64 {
		sv := make([]float64, r.eng.Dimensions())
		for i := range sv {
			sv[i] = 1e-4 + (1-1e-4)*rng.Float64()*rng.Float64()
		}
		return sv
	}
	seen := make(map[string]bool)
	for tries := 0; tries < 400 && len(r.plans) < 8; tries++ {
		cp, _, err := r.eng.Optimize(vector())
		if err != nil {
			tb.Fatal(err)
		}
		if !seen[cp.Fingerprint()] {
			seen[cp.Fingerprint()] = true
			r.plans = append(r.plans, cp)
		}
	}
	for len(r.svs) < 48 {
		r.svs = append(r.svs, vector())
	}
	return &r
}

// recostAll prepares sv and recosts every plan at it.
func (r *preparedRig) recostAll(tb testing.TB, sv []float64) {
	pi, err := r.eng.PrepareRecost(sv)
	if err != nil {
		tb.Fatal(err)
	}
	for _, cp := range r.plans {
		if _, err := pi.Recost(cp); err != nil {
			tb.Fatal(err)
		}
	}
	pi.Release()
}

// BenchmarkPreparedRecost measures one PrepareRecost plus a Recost of each
// cached plan of tpch_5way_00, cycling 48 vectors so every vector repeats
// (docs/PERF.md "Recost without a result cache").
func BenchmarkPreparedRecost(b *testing.B) {
	r := newPreparedRig(b, "tpch_5way_00")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.recostAll(b, r.svs[i%len(r.svs)])
	}
	b.ReportMetric(float64(len(r.plans)), "plans")
}

// TestPreparedRecostAllocatesNothing pins the prepared recost path at zero
// allocations, for vectors never seen before and for repeated ones alike:
// steady-state cost checks must leave no garbage for the collector.
func TestPreparedRecostAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newPreparedRig(t, "tpch_5way_00")
	if len(r.plans) < 2 {
		t.Fatalf("only %d distinct plans", len(r.plans))
	}
	// Fresh vectors are built before measuring; each run takes the next.
	fresh := make([][]float64, 0, 256)
	for i := 0; i < cap(fresh); i++ {
		sv := append([]float64(nil), r.svs[i%len(r.svs)]...)
		sv[0] *= 1 - float64(i+1)*1e-6
		fresh = append(fresh, sv)
	}
	r.recostAll(t, r.svs[0]) // warm the env pool
	next := 0
	if allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		r.recostAll(t, fresh[next])
		next++
	}); allocs != 0 {
		t.Errorf("prepared recost of never-seen vectors allocates %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		r.recostAll(t, r.svs[next%len(r.svs)])
		next++
	}); allocs != 0 {
		t.Errorf("prepared recost of repeated vectors allocates %.1f per run, want 0", allocs)
	}
}
