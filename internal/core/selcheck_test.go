package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestSelectivityCheckMatchesListOrderReference pins getPlan's
// selectivity check to its definition: the first entry in list order
// with g·l ≤ λ(C)/S serves the instance, and when no entry passes, the
// instance is no selectivity hit. Caches hold clusters of entries, so
// several often pass and the nearest is often not the first; some
// anchors lag the engine's epoch, some entries are quarantined, and λ is
// static or dynamic. The widths are 1 and 3, 17 (wider than the
// log-distance pass takes, so the exact scan decides), and 12 with
// selectivities near 1e-30, where ∏ si underflows to 0. Process must
// serve the reference entry, moving its usage count and no other;
// ProbeCheck must classify the instance alike and move none. A hit must
// also evaluate the factors of exactly the entries up to the served one
// within the log-distance bound log(λmax/min(1, min S)), or of all of
// them when the vector is too wide for the pass: a looser bound
// evaluates more, and a tighter one leaves the hit to the scan after it,
// which evaluates more too.
func TestSelectivityCheckMatchesListOrderReference(t *testing.T) {
	for i, tc := range []struct {
		d       int
		scale   float64 // selectivities lie in (scale/256, scale/2]
		dynamic bool
	}{
		{1, 1, false},
		{3, 1, false},
		{3, 1, true},
		{17, 1, false},
		{17, 1, true},
		{12, 1e-30, false},
	} {
		t.Run(fmt.Sprintf("d=%d/scale=%g/dynamic=%v", tc.d, tc.scale, tc.dynamic), func(t *testing.T) {
			checkSelectivityReference(t, rand.New(rand.NewSource(int64(i+1))), tc.d, tc.scale, tc.dynamic)
		})
	}
}

func checkSelectivityReference(t *testing.T, rng *rand.Rand, d int, scale float64, dynamic bool) {
	ctx := context.Background()
	eng := costCheckEngine(t, rng, d)
	opts := []Option{WithLambda(1.5), WithViolationDetection(0.01)}
	if dynamic {
		opts = append(opts, WithDynamicLambda(1.1, 4, 50))
	}
	s := mustSCR(t, eng, opts...)

	vector := func() []float64 {
		sv := make([]float64, d)
		for j := range sv {
			sv[j] = scale * math.Ldexp(1+rng.Float64(), -2-rng.Intn(7))
		}
		return sv
	}
	// near moves every selectivity of v by a random factor, at most r in
	// log distance over the whole vector.
	near := func(v []float64, r float64) []float64 {
		sv := make([]float64, d)
		for j, x := range v {
			sv[j] = min(x*math.Exp(r/float64(d)*(2*rng.Float64()-1)), 1)
		}
		return sv
	}
	var centers [][]float64
	// seedCluster seeds n entries around a fresh center, each anchored at
	// its optimal cost and a sub-optimality of 1 to 1.3.
	seedCluster := func(n int) {
		c := vector()
		centers = append(centers, c)
		for i := 0; i < n; i++ {
			sv := near(c, 0.25)
			cp, cost, err := eng.Optimize(sv)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SeedInstance(sv, cp, cost, []float64{1, 1, 1.1, 1.3}[rng.Intn(4)]); err != nil {
				t.Fatal(err)
			}
		}
	}

	var hits, misses, notNearest, lagHits, quarantinedHits, underflows int
	check := func(n int) {
		for q := 0; q < n; q++ {
			sv := vector()
			if q%3 != 0 {
				sv = near(centers[rng.Intn(len(centers))], 0.15)
			}
			if p := regionProduct(sv); p == 0 {
				underflows++
			}
			// The reference: the first entry in list order that passes,
			// and the factor evaluations a hit by it costs.
			insts := s.snapshot().instances
			minS := 1.0
			for _, e := range insts {
				minS = min(minS, e.anc.Load().s)
			}
			bound := math.Log(s.cfg.lambdaMax()/minS) + logSlop
			want := -1
			bestGL, passes := math.Inf(1), 0
			var evals int64
			for i, e := range insts {
				a := e.anc.Load()
				g, l, err := GLFactors(e.v, sv)
				if err != nil {
					t.Fatal(err)
				}
				dist := 0.0
				for j := range sv {
					dist += math.Abs(math.Log(sv[j]) - math.Log(e.v[j]))
				}
				// getPlan's log-distance pass takes up to 16 selectivities.
				if want < 0 && (d > 16 || dist <= bound) {
					evals++
				}
				if g*l <= s.cfg.lambdaFor(a.c)/a.s {
					passes++
					if want < 0 {
						want = i
					}
					bestGL = min(bestGL, g*l)
				}
			}
			usage := make([]int64, len(insts))
			for i, e := range insts {
				usage[i] = e.u.Load()
			}
			usageMoved := func() []int {
				var moved []int
				for i, e := range insts {
					if e.u.Load() != usage[i] {
						moved = append(moved, i)
					}
				}
				return moved
			}

			if got := s.ProbeCheck(sv); (got == ViaSelectivity) != (want >= 0) {
				t.Fatalf("%v: ProbeCheck = %v, reference entry %d", sv, got, want)
			}
			if moved := usageMoved(); len(moved) > 0 {
				t.Fatalf("%v: ProbeCheck moved the usage counts of entries %v", sv, moved)
			}
			before := s.Stats().SelChecks
			dec, err := s.Process(ctx, sv)
			if err != nil {
				t.Fatal(err)
			}
			if want < 0 {
				if dec.Via == ViaSelectivity {
					t.Fatalf("%v: Process served via %v, but no entry passes", sv, dec.Via)
				}
				misses++
				continue
			}
			e, a := insts[want], insts[want].anc.Load()
			if dec.Via != ViaSelectivity || dec.Plan != e.pp.cp || dec.Epoch != a.epoch {
				t.Fatalf("%v: Process served %s via %v at epoch %d, reference entry %d: %s at epoch %d",
					sv, dec.Plan.Fingerprint(), dec.Via, dec.Epoch, want, e.pp.cp.Fingerprint(), a.epoch)
			}
			if moved := usageMoved(); len(moved) != 1 || moved[0] != want || e.u.Load() != usage[want]+1 {
				t.Fatalf("%v: Process moved the usage counts of entries %v, reference entry %d", sv, moved, want)
			}
			if got := s.Stats().SelChecks - before; got != evals {
				t.Fatalf("%v: Process evaluated the factors of %d entries, reference %d", sv, got, evals)
			}
			hits++
			if g, l, _ := GLFactors(e.v, sv); passes > 1 && g*l > bestGL {
				notNearest++
			}
			if a.epoch != eng.CostEpoch() {
				lagHits++
			}
			if e.quarantined.Load() {
				quarantinedHits++
			}
		}
	}

	// One epoch first, then a second: the first epoch's entries lag it.
	// The cache grows past one 64-entry chunk of the log-distance pass.
	for i := 0; i < 3; i++ {
		seedCluster(15)
	}
	check(100)
	eng.Advance()
	for i := 0; i < 3; i++ {
		seedCluster(15)
	}
	for _, e := range s.snapshot().instances {
		e.quarantined.Store(rng.Intn(4) == 0)
	}
	check(200)

	for name, n := range map[string]int{
		"selectivity hits": hits, "misses": misses, "hits not by the nearest passing entry": notNearest,
		"hits by lagging entries": lagHits, "hits by quarantined entries": quarantinedHits,
	} {
		if n == 0 {
			t.Errorf("no %s (%d hits, %d misses); the test lost coverage", name, hits, misses)
		}
	}
	if scale < 1e-20 && underflows == 0 {
		t.Error("no query's selectivity product underflowed; the test lost coverage")
	}
}

// regionProduct is ∏ si, computed plainly.
func regionProduct(sv []float64) float64 {
	p := 1.0
	for _, x := range sv {
		p *= x
	}
	return p
}
