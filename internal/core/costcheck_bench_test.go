package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/suite"
)

// seeded is one optimized instance: a vector, its optimal plan and cost.
type seeded struct {
	sv   []float64
	cp   *engine.CachedPlan
	cost float64
}

// costCheckRig is Table 3's template (tpcds_cust_01, d=3) on a real
// engine, with optimized instances to seed caches from and fresh vectors
// to query them with.
type costCheckRig struct {
	eng    *engine.TemplateEngine
	seeds  []seeded
	fresh  [][]float64
	lambda float64
}

func newCostCheckRig(b *testing.B, n int) *costCheckRig {
	b.Helper()
	systems, err := suite.NewSystems(1)
	if err != nil {
		b.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		b.Fatal(err)
	}
	r := &costCheckRig{lambda: 1.1}
	for _, e := range entries {
		if e.Tpl.Name == "tpcds_cust_01" {
			if r.eng, err = e.Sys.EngineFor(e.Tpl); err != nil {
				b.Fatal(err)
			}
		}
	}
	if r.eng == nil {
		b.Fatal("no suite template tpcds_cust_01")
	}
	rng := rand.New(rand.NewSource(int64(n)))
	vector := func() []float64 {
		sv := make([]float64, r.eng.Dimensions())
		for i := range sv {
			sv[i] = 1e-4 + (1-1e-4)*rng.Float64()*rng.Float64()
		}
		return sv
	}
	for len(r.seeds) < n {
		sv := vector()
		cp, c, err := r.eng.Optimize(sv)
		if err != nil {
			b.Fatal(err)
		}
		r.seeds = append(r.seeds, seeded{sv: sv, cp: cp, cost: c})
	}
	for len(r.fresh) < 4096 {
		r.fresh = append(r.fresh, vector())
	}
	return r
}

// scr returns an SCR (λ = 1.1, violation detection on, as in Table 3)
// holding every seeded instance, each bound to its own optimal plan.
// Plans are shared by fingerprint, as the redundancy check would.
func (r *costCheckRig) scr(b *testing.B) *core.SCR {
	b.Helper()
	s, err := core.New(r.eng, core.WithLambda(r.lambda), core.WithViolationDetection(0.01))
	if err != nil {
		b.Fatal(err)
	}
	byFP := map[string]*engine.CachedPlan{}
	for _, sd := range r.seeds {
		cp := byFP[sd.cp.Fingerprint()]
		if cp == nil {
			cp = sd.cp
			byFP[cp.Fingerprint()] = cp
		}
		if err := s.SeedInstance(sd.sv, cp, sd.cost, 1); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkCostCheck measures the read path on never-seen vectors at 64,
// 512 and 4,096 cached instances: the selectivity pass, the cost-check
// candidate scan, and the recosts of up to 8 candidates.
// ProbeCheck runs exactly Process's read path without mutating the cache,
// so every iteration sees the same cache.
func BenchmarkCostCheck(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			r := newCostCheckRig(b, n)
			s := r.scr(b)
			vias := map[core.Check]int{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vias[s.ProbeCheck(r.fresh[i%len(r.fresh)])]++
			}
			b.StopTimer()
			b.ReportMetric(float64(vias[core.ViaCost])/float64(b.N)*100, "cost-hit-pct")
		})
	}
}

// BenchmarkMissPath measures a never-seen instance that reaches the
// optimizer on a cache of 512 instances: the failed read path, Optimize,
// manageCache's redundancy check and the snapshot flush. λ = 1 admits
// only exact repeats, so every fresh vector misses. Each miss stores an
// instance, so the cache is rebuilt, off the clock, every 256 misses.
func BenchmarkMissPath(b *testing.B) {
	r := newCostCheckRig(b, 512)
	r.lambda = 1
	ctx := context.Background()
	var s *core.SCR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			b.StopTimer()
			s = r.scr(b)
			b.StartTimer()
		}
		dec, err := s.Process(ctx, r.fresh[i%len(r.fresh)])
		if err != nil {
			b.Fatal(err)
		}
		if !dec.Optimized {
			b.Fatalf("fresh vector served via %s, want the optimizer", dec.Via)
		}
	}
}
