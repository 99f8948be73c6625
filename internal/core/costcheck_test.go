package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/pqotest"
)

// refDecision is what the reference cost check predicts for one
// instance: the check that serves it, and for a cache hit the plan, its
// epoch and priced cost, plus the recosts the cost check spends.
type refDecision struct {
	via     Check
	plan    *engine.CachedPlan
	epoch   uint64
	cost    float64
	hasCost bool
	recosts int64
	// tied reports that two of the candidates recosted, or the last one
	// and the first left out, share an order key.
	tied bool
}

// referenceGetPlan is getPlan written the obvious way over s's published
// cache: the selectivity check in list order; then every current-epoch,
// non-quarantined entry stable-sorted by its order key (G·L, or L) and
// list position, the first limit of them recosted in that order; then
// the lowest-G·L lagging entry as the flagged fallback. Costs come from
// the engine's ground truth, which charges no recost.
func referenceGetPlan(t *testing.T, s *SCR, eng *pqotest.EpochEngine, sv []float64) refDecision {
	t.Helper()
	type ref struct {
		e    *instanceEntry
		a    *anchor
		key  float64
		g, l float64
	}
	cur := eng.CostEpoch()
	var cands []ref
	var lag *ref
	for _, e := range s.snapshot().instances {
		a := e.anc.Load()
		g, l, err := GLFactors(e.v, sv)
		if err != nil {
			t.Fatal(err)
		}
		if g*l <= s.cfg.lambdaFor(a.c)/a.s {
			return refDecision{via: ViaSelectivity, plan: e.pp.cp, epoch: a.epoch}
		}
		if e.quarantined.Load() {
			continue
		}
		r := ref{e: e, a: a, key: g * l, g: g, l: l}
		if s.cfg.orderByL {
			r.key = l
		}
		if a.epoch != cur {
			if lag == nil || g*l < lag.g*lag.l {
				lag = &r
			}
			continue
		}
		cands = append(cands, r)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].key < cands[j].key })
	limit := s.cfg.costCheckLimit
	if limit < 0 {
		limit = 0
	}
	tied := false
	for i := 1; i < len(cands) && i <= limit; i++ {
		tied = tied || cands[i].key == cands[i-1].key
	}
	if limit < len(cands) {
		cands = cands[:limit]
	}
	var recosts int64
	for _, c := range cands {
		cost, ok := eng.CostAt(c.e.pp.cp.Fingerprint(), sv, cur)
		if !ok {
			t.Fatalf("unknown plan %q", c.e.pp.cp.Fingerprint())
		}
		recosts++
		if s.cfg.detectViolations && ViolatesBCG(cost/(c.a.c*c.a.s), c.g, c.l, s.cfg.violationTol) {
			continue
		}
		if cost/c.a.c*c.l <= s.cfg.lambdaFor(c.a.c)/c.a.s {
			return refDecision{via: ViaCost, plan: c.e.pp.cp, epoch: c.a.epoch,
				cost: cost, hasCost: true, recosts: recosts, tied: tied}
		}
	}
	if lag != nil {
		return refDecision{via: ViaFallback, plan: lag.e.pp.cp, epoch: lag.a.epoch, recosts: recosts, tied: tied}
	}
	return refDecision{via: ViaOptimizer, recosts: recosts, tied: tied}
}

// costCheckEngine is a synthetic epoch engine whose plans include cost
// jumps, so violation detection has BCG violations to quarantine.
func costCheckEngine(t *testing.T, rng *rand.Rand, d int) *pqotest.EpochEngine {
	t.Helper()
	specs := make([]pqotest.PlanSpec, 8)
	for i := range specs {
		lin := make([]float64, d)
		for j := range lin {
			lin[j] = 1 + rng.Float64()*200
		}
		specs[i] = pqotest.PlanSpec{Name: fmt.Sprintf("p%d", i), Const: 1 + rng.Float64()*5, Linear: lin}
		if i%2 == 0 {
			specs[i].JumpDim = rng.Intn(d)
			specs[i].JumpAt = 0.1
			specs[i].JumpAmount = 500
		}
	}
	eng, err := pqotest.NewEngine(d, specs)
	if err != nil {
		t.Fatal(err)
	}
	return pqotest.NewEpochEngine(eng)
}

// gridVector draws a selectivity vector on a power-of-two grid, so G·L
// and L values of different entries tie exactly.
func gridVector(rng *rand.Rand, d int) []float64 {
	sv := make([]float64, d)
	for i := range sv {
		sv[i] = math.Ldexp(1, -rng.Intn(10))
	}
	return sv
}

// TestCostCheckMatchesSortedReference pins getPlan's bounded candidate
// list to referenceGetPlan: over random caches with tied keys, lagging
// and quarantined entries, in both candidate orders, with and without
// violation detection, and at cost-check limits 0, 1, 8 and 32 (and the
// cost check disabled), Process and ProbeCheck serve every instance as
// the reference predicts and spend the same recosts.
func TestCostCheckMatchesSortedReference(t *testing.T) {
	ctx := context.Background()
	const d = 3
	seed := int64(0)
	for _, orderByL := range []bool{false, true} {
		for _, detect := range []bool{false, true} {
			for _, limit := range []int{-1, 0, 1, 8, 32} {
				seed++
				rng := rand.New(rand.NewSource(seed))
				t.Run(fmt.Sprintf("orderByL=%v/detect=%v/limit=%d", orderByL, detect, limit), func(t *testing.T) {
					eng := costCheckEngine(t, rng, d)
					opts := []Option{WithLambda(1.3)}
					if orderByL {
						opts = append(opts, WithCandidateOrderByL())
					}
					if detect {
						opts = append(opts, WithViolationDetection(0.01))
					}
					s := mustSCR(t, eng, opts...)
					s.cfg.costCheckLimit = limit
					process := func(n int) {
						for i := 0; i < n; i++ {
							if _, err := s.Process(ctx, gridVector(rng, d)); err != nil {
								t.Fatal(err)
							}
						}
					}
					quarantine := func(pick func(e *instanceEntry) bool) {
						for _, e := range s.snapshot().instances {
							e.quarantined.Store(pick(e))
						}
					}
					lagging := func(e *instanceEntry) bool { return e.anc.Load().epoch != eng.CostEpoch() }
					// A cache built over two statistics epochs: entries of the
					// first lag the second. The lagging ones sit out in
					// quarantine while the second epoch's misses are optimized
					// (else the flagged fallback would serve them).
					process(40)
					eng.Advance()
					quarantine(lagging)
					process(40)

					seen := map[Check]int{}
					ties := 0
					check := func(n int) {
						for i := 0; i < n; i++ {
							sv := gridVector(rng, d)
							want := referenceGetPlan(t, s, eng, sv)

							before := eng.RecostCalls()
							if got := s.ProbeCheck(sv); got != want.via {
								t.Fatalf("%v: ProbeCheck = %v, reference %v", sv, got, want.via)
							}
							if got := eng.RecostCalls() - before; got != want.recosts {
								t.Fatalf("%v: ProbeCheck recosted %d plans, reference %d", sv, got, want.recosts)
							}

							stBefore := s.Stats().GetPlanRecosts
							dec, err := s.Process(ctx, sv)
							if err != nil {
								t.Fatal(err)
							}
							if got := s.Stats().GetPlanRecosts - stBefore; got != want.recosts {
								t.Fatalf("%v: Process spent %d recosts, reference %d", sv, got, want.recosts)
							}
							if dec.Via != want.via {
								t.Fatalf("%v: Process served via %v, reference %v", sv, dec.Via, want.via)
							}
							if want.via != ViaOptimizer && (dec.Plan != want.plan || dec.Epoch != want.epoch ||
								dec.HasCost != want.hasCost || dec.Cost != want.cost) {
								t.Fatalf("%v: Process served %s at epoch %d cost (%v, %v), reference %s at %d cost (%v, %v)",
									sv, dec.Plan.Fingerprint(), dec.Epoch, dec.Cost, dec.HasCost,
									want.plan.Fingerprint(), want.epoch, want.cost, want.hasCost)
							}
							seen[dec.Via]++
							if want.tied {
								ties++
							}
						}
					}
					// With lagging entries in reach, a miss is the flagged
					// fallback; once they are all quarantined, the optimizer.
					quarantine(func(*instanceEntry) bool { return rng.Intn(8) == 0 })
					check(150)
					quarantine(func(e *instanceEntry) bool { return lagging(e) || rng.Intn(8) == 0 })
					check(150)

					wantVias := []Check{ViaSelectivity, ViaOptimizer, ViaFallback}
					if limit > 0 {
						wantVias = append(wantVias, ViaCost)
					}
					for _, via := range wantVias {
						if seen[via] == 0 {
							t.Errorf("never served via %v (%v); the test lost coverage", via, seen)
						}
					}
					if limit > 1 && ties == 0 {
						t.Error("no tied order keys among recosted candidates; the test lost coverage")
					}
					if detect && limit > 0 && s.Stats().Violations == 0 {
						t.Error("no BCG violation was detected; the test lost coverage")
					}
				})
			}
		}
	}
}
