package core_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// importSCR returns an SCR (λ = 1.1, violation detection on) holding the
// rig's seeded instances, installed by one Import so that a large cache
// costs one snapshot flush instead of one per instance.
func (r *costCheckRig) importSCR(b *testing.B) *core.SCR {
	b.Helper()
	type instance struct {
		V      []float64 `json:"v"`
		PlanFP string    `json:"planFP"`
		C      float64   `json:"c"`
		S      float64   `json:"s"`
	}
	var snap struct {
		Plans     []json.RawMessage `json:"plans"`
		Instances []instance        `json:"instances"`
	}
	seen := map[string]bool{}
	for _, sd := range r.seeds {
		fp := sd.cp.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			raw, err := json.Marshal(sd.cp.Plan)
			if err != nil {
				b.Fatal(err)
			}
			snap.Plans = append(snap.Plans, raw)
		}
		snap.Instances = append(snap.Instances, instance{V: sd.sv, PlanFP: fp, C: sd.cost, S: 1})
	}
	data, err := json.Marshal(snap)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.New(r.eng, core.WithLambda(r.lambda), core.WithViolationDetection(0.01))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Import(data); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSelectivityHit measures a selectivity-check hit at 10, 1k and
// 100k cached instances of Table 3's template: the read path's
// log-distance selectivity pass finding an anchor for a request near a
// cached vector. Each request is a cached vector with every selectivity moved
// by at most 1%, so its own anchor's G·L is at most 1.01³ < λ and the
// selectivity check can serve it; sel-hit-pct reports the share it did
// serve. ProbeCheck runs Process's read path without touching the cache,
// so every iteration sees the same cache.
func BenchmarkSelectivityHit(b *testing.B) {
	for _, n := range []int{10, 1_000, 100_000} {
		r := newCostCheckRig(b, n)
		s := r.importSCR(b)
		rng := rand.New(rand.NewSource(int64(n)))
		near := make([][]float64, 4096)
		for i := range near {
			seed := r.seeds[rng.Intn(n)].sv
			sv := make([]float64, len(seed))
			for d, x := range seed {
				sv[d] = math.Min(x*math.Exp(0.01*(2*rng.Float64()-1)), 1)
			}
			near[i] = sv
		}
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.ProbeCheck(near[i%len(near)]) == core.ViaSelectivity {
					hits++
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(hits)/float64(b.N)*100, "sel-hit-pct")
		})
	}
}
