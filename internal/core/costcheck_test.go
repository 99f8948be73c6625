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
	// skipped is how many entries the scan's prefilter rejects on their
	// distance alone (filterReference); filtered reports that the filter
	// ran at all.
	skipped  int64
	filtered bool
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

// filterReference predicts the cost-check scan's prefilter, derived from
// its definition rather than its code: the filter runs when the keys are
// G·L, the candidate list fits the frame (limit ≤ 8), there are more
// entries than candidates, and no anchor lags; it rejects, in list order
// until a selectivity pass, every entry whose log distance Σ|log qi −
// log ei| exceeds max(k-th smallest distance, log(λmax/min(1, min S)))
// by more than logSlop; and a quarantined entry within logSlop of the
// k-th smallest distance, one that may be among the k nearest, turns it
// off for the whole scan. The prediction only matters when the instance
// reaches the scan, i.e. when it is not a selectivity hit.
func filterReference(s *SCR, eng *pqotest.EpochEngine, sv []float64, want *refDecision) {
	insts := s.snapshot().instances
	keep := max(s.cfg.costCheckLimit, 0)
	cur := eng.CostEpoch()
	minS := 1.0
	for _, e := range insts {
		a := e.anc.Load()
		if a.epoch != cur {
			return
		}
		minS = min(minS, a.s)
	}
	if s.cfg.orderByL || keep > 8 || len(insts) <= keep {
		return
	}
	dists := make([]float64, len(insts))
	for i, e := range insts {
		for j := range sv {
			dists[i] += math.Abs(math.Log(sv[j]) - math.Log(e.v[j]))
		}
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	kth := 0.0
	if keep > 0 {
		kth = sorted[keep-1]
	}
	cut := max(kth, math.Log(s.cfg.lambdaMax()/minS)) + logSlop
	want.filtered = true
	for i, e := range insts {
		if dists[i] > cut {
			want.skipped++
			continue
		}
		if e.quarantined.Load() && dists[i] <= kth+logSlop {
			want.skipped, want.filtered = 0, false
			return
		}
		a := e.anc.Load()
		if g, l, _ := GLFactors(e.v, sv); g*l <= s.cfg.lambdaFor(a.c)/a.s {
			return
		}
	}
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
// list, prefiltered scan included, to referenceGetPlan, the full scan
// written plainly: over random caches with tied keys, lagging and
// quarantined entries, in both candidate orders, with and without
// violation detection, at cost-check limits 0, 1, 8 and 32 (and the cost
// check disabled), and at λ = 2, where grid vectors put entries exactly
// on the selectivity bound, Process and ProbeCheck serve every instance
// as the reference predicts and spend the same recosts. Process's
// prefilter rejects exactly the entries filterReference predicts, so a
// bound moved either way fails: a tighter one changes decisions, a
// looser one the count.
func TestCostCheckMatchesSortedReference(t *testing.T) {
	ctx := context.Background()
	const d = 3
	seed := int64(0)
	for _, lambda := range []float64{1.3, 2} {
		for _, orderByL := range []bool{false, true} {
			for _, detect := range []bool{false, true} {
				for _, limit := range []int{-1, 0, 1, 8, 32} {
					seed++
					name := fmt.Sprintf("orderByL=%v/detect=%v/limit=%d", orderByL, detect, limit)
					if lambda != 1.3 {
						name = fmt.Sprintf("lambda=%g/%s", lambda, name)
					}
					t.Run(name, func(t *testing.T) {
						checkCostCheckReference(t, ctx, rand.New(rand.NewSource(seed)), d, lambda, orderByL, detect, limit)
					})
				}
			}
		}
	}
}

func checkCostCheckReference(t *testing.T, ctx context.Context, rng *rand.Rand, d int, lambda float64, orderByL, detect bool, limit int) {
	eng := costCheckEngine(t, rng, d)
	opts := []Option{WithLambda(lambda)}
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

	seen := map[Check]int{}
	ties, filtered := 0, 0
	var skipped int64
	check := func(n int) {
		for i := 0; i < n; i++ {
			// Grid vectors tie keys and distances exactly; every other
			// query is off the grid, so distances fall just beside the
			// prefilter's bound too.
			sv := gridVector(rng, d)
			if i%2 == 1 {
				for j := range sv {
					sv[j] *= 0.5 + rng.Float64()/2
				}
			}
			want := referenceGetPlan(t, s, eng, sv)
			if want.via != ViaSelectivity {
				filterReference(s, eng, sv, &want)
			}

			before := eng.RecostCalls()
			if got := s.ProbeCheck(sv); got != want.via {
				t.Fatalf("%v: ProbeCheck = %v, reference %v", sv, got, want.via)
			}
			if got := eng.RecostCalls() - before; got != want.recosts {
				t.Fatalf("%v: ProbeCheck recosted %d plans, reference %d", sv, got, want.recosts)
			}

			stBefore := s.Stats()
			dec, err := s.Process(ctx, sv)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if got := st.GetPlanRecosts - stBefore.GetPlanRecosts; got != want.recosts {
				t.Fatalf("%v: Process spent %d recosts, reference %d", sv, got, want.recosts)
			}
			if got := st.ScanSkipped - stBefore.ScanSkipped; got != want.skipped {
				t.Fatalf("%v: the prefilter skipped %d entries, reference %d (filtered %v)",
					sv, got, want.skipped, want.filtered)
			}
			skipped += want.skipped
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
			if want.filtered {
				filtered++
			}
		}
	}
	// One statistics epoch first: nothing lags, so the
	// prefilter runs, with and without quarantined entries.
	process(40)
	check(100)
	quarantine(func(*instanceEntry) bool { return rng.Intn(8) == 0 })
	check(100)
	// Then a cache over two epochs: entries of the first lag
	// the second. The lagging ones sit out in quarantine while
	// the second epoch's misses are optimized (else the
	// flagged fallback would serve them). With lagging entries
	// in reach, a miss is the flagged fallback; once they are
	// all quarantined, the optimizer.
	eng.Advance()
	quarantine(lagging)
	process(40)
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
	// At λ = 2 most instances pass the selectivity check; too few reach
	// the cost check to count on a violation.
	if detect && limit > 0 && lambda < 2 && s.Stats().Violations == 0 {
		t.Error("no BCG violation was detected; the test lost coverage")
	}
	if !orderByL && limit <= 8 && (filtered == 0 || skipped == 0) {
		t.Errorf("the prefilter ran %d times and skipped %d entries; the test lost coverage", filtered, skipped)
	}
}

// TestCostCheckPrefilterBound pins the prefilter's bounds to within
// logSlop of their definitions, from both sides. The query's entries sit
// at log distances just beyond a bound (3e-9, three slops) and far beyond
// it, plus, when the bound is the k-th smallest distance, one entry on
// it. The scan must evaluate exactly the entries on or within the bound:
// a bound looser by 3e-9 evaluates one more, a tighter one rejects the
// entry on it, and the check then reaches the optimizer instead of the
// cost check. With limit 1 the bound is the nearest entry's distance;
// with limit 0 (no candidates) it is log λ, the selectivity check's. The
// last case pins the k-nearest bound of the quarantine rescan: entries
// with S = 1.9 pass no selectivity check, so a quarantined one 3e-9
// beyond the nearest entry is inside the log λ bound yet outside the k
// nearest, and must not turn the filter off.
func TestCostCheckPrefilterBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		// bound is the prefilter's k-th distance at the query; entries
		// sit at bound+extra for each extra, anchored at sub-optimality
		// subOpt, and the one at position quarantine (if any) is
		// quarantined.
		bound      float64
		extras     []float64
		subOpt     float64
		quarantine int
		skipped    int64
		via        Check
	}{
		{"kth", 1, 1, []float64{0, 3e-9, 1}, 1, -1, 2, ViaCost},
		{"selectivity", 0, math.Log(2), []float64{3e-9, 1}, 1, -1, 2, ViaOptimizer},
		{"quarantined beyond the k nearest", 1, 0.2, []float64{0, 3e-9, 1}, 1.9, 1, 1, ViaCost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := pqotest.NewEngine(1, []pqotest.PlanSpec{{Name: "p", Const: 100, Linear: []float64{1}}})
			if err != nil {
				t.Fatal(err)
			}
			s := mustSCR(t, eng, WithLambda(2))
			s.cfg.costCheckLimit = tc.limit
			q := []float64{0.5}
			cp, _, err := eng.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, extra := range tc.extras {
				v := []float64{q[0] * math.Exp(-tc.bound-extra)}
				if err := s.SeedInstance(v, cp, eng.OptimalCost(v), tc.subOpt); err != nil {
					t.Fatal(err)
				}
			}
			if tc.quarantine >= 0 {
				s.snapshot().instances[tc.quarantine].quarantined.Store(true)
			}
			before := s.Stats()
			dec, err := s.Process(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if dec.Via != tc.via {
				t.Fatalf("served via %s, want %s", dec.Via, tc.via)
			}
			if got := st.ScanSkipped - before.ScanSkipped; got != tc.skipped {
				t.Fatalf("the prefilter skipped %d entries, want the %d beyond its bound", got, tc.skipped)
			}
		})
	}
}

// TestProbeCheckRejectsInvalidVectors checks that ProbeCheck validates
// the vector itself, as Process does: the scan's prefilter no longer
// meets an invalid selectivity in GLFactors, so an invalid vector must
// classify as an optimizer call (Process rejects it) rather than reach
// the scan.
func TestProbeCheckRejectsInvalidVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eng := costCheckEngine(t, rng, 3)
	s := mustSCR(t, eng, WithLambda(1.3))
	for i := 0; i < 40; i++ {
		if _, err := s.Process(context.Background(), gridVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sv := range [][]float64{
		{0, 0.5, 0.5}, {-0.1, 0.5, 0.5}, {1.5, 0.5, 0.5}, {math.NaN(), 0.5, 0.5},
		{math.Inf(1), 0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5, 0.5, 0.5},
	} {
		if got := s.ProbeCheck(sv); got != ViaOptimizer {
			t.Errorf("ProbeCheck(%v) = %s, want %s", sv, got, ViaOptimizer)
		}
		if _, err := s.Process(context.Background(), sv); err == nil {
			t.Errorf("Process(%v) accepted an invalid vector", sv)
		}
	}
}

// TestLogDistancesMatchesPlainSum checks logDistances' unrolled widths,
// and the general loop beside them, against the distance summed plainly,
// bit for bit, for widths 1 to 6.
func TestLogDistancesMatchesPlainSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 6; d++ {
		lq := make([]float64, d)
		for j := range lq {
			lq[j] = math.Log(rng.Float64())
		}
		logs := make([]float64, 40*d)
		for i := range logs {
			logs[i] = math.Log(rng.Float64())
		}
		dists := make([]float64, 40)
		logDistances(lq, logs, dists)
		for v, got := range dists {
			want := 0.0
			for j := range lq {
				want += math.Abs(lq[j] - logs[v*d+j])
			}
			if got != want {
				t.Fatalf("d=%d entry %d: distance %v, plain sum %v", d, v, got, want)
			}
		}
	}
}
