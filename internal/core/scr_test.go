package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pqotest"
)

// twoPlaneEngine builds a deterministic 2-d engine with two plans whose
// optimality regions split the space: plan A is cheap in dimension 0, plan
// B cheap in dimension 1.
func twoPlaneEngine(t *testing.T) *pqotest.Engine {
	t.Helper()
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "A", Const: 1, Linear: []float64{2, 100}},
		{Name: "B", Const: 1, Linear: []float64{100, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustSCR(t testing.TB, eng Engine, opts ...Option) *SCR {
	t.Helper()
	s, err := New(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	eng := twoPlaneEngine(t)
	bad := [][]Option{
		{WithLambda(0.5)},
		{WithLambda(2), WithRedundancyThreshold(0.5)},
		{WithLambda(2), WithRedundancyThreshold(3)},
		// λr ≤ λ is checked after every option applied, in any order.
		{WithRedundancyThreshold(1.5), WithLambda(1.2)},
		{WithLambda(2), WithPlanBudget(-1)},
		{WithLambda(2), WithDynamicLambda(0.5, 2, 1)},
		{WithLambda(2), WithDynamicLambda(3, 2, 1)},
		{WithLambda(2), WithDynamicLambda(1, 2, 0)},
	}
	for i, opts := range bad {
		_, err := New(eng, opts...)
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("option set %d: err = %v, want ErrInvalidConfig", i, err)
		}
	}
	if _, err := New(eng, WithRedundancyThreshold(3), WithLambda(4)); err != nil {
		t.Errorf("λr=3 under λ=4 must be accepted: %v", err)
	}
	if _, err := New(eng, WithLambda(1)); err != nil {
		t.Errorf("λ=1 must be accepted: %v", err)
	}
}

func TestFirstInstanceOptimizes(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	dec, err := s.Process(context.Background(), []float64{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Optimized || dec.Via != ViaOptimizer {
		t.Errorf("first instance must optimize, got %+v", dec)
	}
	st := s.Stats()
	if st.OptCalls != 1 || st.Instances != 1 || st.MaxPlans != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSelectivityCheckReuse(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	if _, err := s.Process(context.Background(), []float64{0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	// A nearly identical instance has G·L ≈ 1 ≤ λ: must pass the
	// selectivity check without an optimizer call or a recost.
	dec, err := s.Process(context.Background(), []float64{0.0101, 0.0099})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Optimized || dec.Via != ViaSelectivity {
		t.Errorf("expected selectivity-check reuse, got via=%v optimized=%v", dec.Via, dec.Optimized)
	}
	st := s.Stats()
	if st.OptCalls != 1 {
		t.Errorf("numOpt = %d, want 1", st.OptCalls)
	}
	if st.GetPlanRecosts != 0 {
		t.Errorf("selectivity check must not recost; got %d recosts", st.GetPlanRecosts)
	}
}

func TestCostCheckReuse(t *testing.T) {
	// Plan A's cost is nearly flat in dimension 0 beyond the Const term, so
	// moving far along dimension 1 downwards (L large) fails the
	// selectivity check but the actual recost ratio R stays small.
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "A", Const: 100, Linear: []float64{1, 1}},
		{Name: "B", Const: 5000, Linear: []float64{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(1.5))
	if _, err := s.Process(context.Background(), []float64{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	// qc = (0.9, 0.001): L = 900, G = 1 → G·L = 900 >> λ: selectivity
	// check fails. But R ≈ 100/101 and the optimal cost can't be much
	// below 100 (both plans have Const ≥ 100)... Actually the check is
	// R·L ≤ λ/S which is also huge. The cost check bound uses L on the
	// denominator, so this reuse legitimately fails and SCR must optimize.
	dec, err := s.Process(context.Background(), []float64{0.9, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Optimized {
		t.Fatalf("expected optimizer call (cost check is conservative), got %v", dec.Via)
	}
	// Now move *upwards* in dimension 1 from the first instance: G large,
	// L = 1. Selectivity check: G·L = G may exceed λ, but R = actual
	// growth is tiny because Const dominates → cost check passes.
	s2 := mustSCR(t, eng, WithLambda(1.5))
	if _, err := s2.Process(context.Background(), []float64{0.9, 0.001}); err != nil {
		t.Fatal(err)
	}
	dec2, err := s2.Process(context.Background(), []float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Optimized || dec2.Via != ViaCost {
		t.Errorf("expected cost-check reuse (R small, L=1), got via=%v optimized=%v",
			dec2.Via, dec2.Optimized)
	}
	if st := s2.Stats(); st.GetPlanRecosts == 0 {
		t.Error("cost check must have recosted")
	}
}

// TestGuaranteeProperty is the central invariant: against a BCG-compliant
// engine, every instance SCR processes satisfies SO(q) ≤ λ.
func TestGuaranteeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lambda := range []float64{1.1, 1.5, 2.0} {
		for trial := 0; trial < 5; trial++ {
			d := 2 + rng.Intn(3)
			eng, err := pqotest.RandomEngine(rng, d, 6+rng.Intn(6))
			if err != nil {
				t.Fatal(err)
			}
			s := mustSCR(t, eng, WithLambda(lambda))
			for i := 0; i < 300; i++ {
				sv := pqotest.RandomSVector(rng, d)
				dec, err := s.Process(context.Background(), sv)
				if err != nil {
					t.Fatal(err)
				}
				so := eng.PlanCost(dec.Plan, sv) / eng.OptimalCost(sv)
				if so > lambda*(1+1e-9) {
					t.Fatalf("λ=%v d=%d trial=%d instance=%d: SO=%v exceeds λ (via %v)",
						lambda, d, trial, i, so, dec.Via)
				}
			}
		}
	}
}

func TestGuaranteeHoldsUnderPlanBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	eng, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(2), WithPlanBudget(2))
	for i := 0; i < 400; i++ {
		sv := pqotest.RandomSVector(rng, 3)
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		so := eng.PlanCost(dec.Plan, sv) / eng.OptimalCost(sv)
		if so > 2*(1+1e-9) {
			t.Fatalf("budget k=2 instance %d: SO=%v exceeds λ=2", i, so)
		}
		if st := s.Stats(); st.CurPlans > 2 {
			t.Fatalf("plan budget violated: %d plans cached", st.CurPlans)
		}
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Error("expected at least one eviction with k=2 over 10 plans")
	}
}

func TestRedundancyCheckReducesPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	eng1, err := pqotest.RandomEngine(rng, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Same engine contents for the second run.
	rng2 := rand.New(rand.NewSource(13))
	eng2, err := pqotest.RandomEngine(rng2, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	withRC := mustSCR(t, eng1, WithLambda(2)) // λr = √2
	storeAll := mustSCR(t, eng2, WithLambda(2), WithStoreAlways())
	seqRng := rand.New(rand.NewSource(99))
	svs := make([][]float64, 500)
	for i := range svs {
		svs[i] = pqotest.RandomSVector(seqRng, 3)
	}
	for _, sv := range svs {
		if _, err := withRC.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
		if _, err := storeAll.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
	}
	a, b := withRC.Stats(), storeAll.Stats()
	if a.MaxPlans > b.MaxPlans {
		t.Errorf("redundancy check stored more plans (%d) than store-always (%d)", a.MaxPlans, b.MaxPlans)
	}
	if a.RedundantPlansRejected == 0 {
		t.Error("expected some redundant plans to be rejected")
	}
	if b.RedundantPlansRejected != 0 {
		t.Error("store-always must not reject plans")
	}
}

func TestCostCheckLimitBoundsRecosts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eng, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	limit := 3
	s := mustSCR(t, eng, WithLambda(1.1), WithCostCheckLimit(limit), WithStoreAlways())
	maxPerCall := int64(0)
	var prev int64
	for i := 0; i < 200; i++ {
		sv := pqotest.RandomSVector(rng, 3)
		if _, err := s.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if delta := st.GetPlanRecosts - prev; delta > maxPerCall {
			maxPerCall = delta
		}
		prev = st.GetPlanRecosts
	}
	if maxPerCall > int64(limit) {
		t.Errorf("a getPlan call made %d recosts, limit is %d", maxPerCall, limit)
	}
}

func TestCostCheckDisabled(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2), WithoutCostCheck())
	if _, err := s.Process(context.Background(), []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(context.Background(), []float64{0.001, 0.001}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.GetPlanRecosts != 0 {
		t.Errorf("cost check disabled but %d recosts happened", st.GetPlanRecosts)
	}
}

func TestDynamicLambdaLoosensCheapInstances(t *testing.T) {
	// With dynamic λ, a cheap instance (cost << RefCost) gets λ close to
	// Max; an expensive one (cost >> RefCost) gets λ close to Min.
	cfg := config{lambda: 1.1, dynamic: &DynamicLambda{Min: 1.1, Max: 10, RefCost: 100}}
	if got := cfg.lambdaFor(0.01); math.Abs(got-10) > 0.01 {
		t.Errorf("λ(cheap) = %v, want ~10", got)
	}
	if got := cfg.lambdaFor(100000); math.Abs(got-1.1) > 0.01 {
		t.Errorf("λ(expensive) = %v, want ~1.1", got)
	}
	// End-to-end: dynamic λ must not increase optimizer calls relative to
	// static λmin.
	rng := rand.New(rand.NewSource(23))
	engDyn, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(23))
	engStat, err := pqotest.RandomEngine(rng2, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	dyn := mustSCR(t, engDyn, WithLambda(1.1), WithDynamicLambda(1.1, 10, 50))
	stat := mustSCR(t, engStat, WithLambda(1.1))
	seq := rand.New(rand.NewSource(31))
	for i := 0; i < 400; i++ {
		sv := pqotest.RandomSVector(seq, 3)
		if _, err := dyn.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
		if _, err := stat.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.Stats().OptCalls > stat.Stats().OptCalls {
		t.Errorf("dynamic λ made more optimizer calls (%d) than static λmin (%d)",
			dyn.Stats().OptCalls, stat.Stats().OptCalls)
	}
	if !strings.Contains(dyn.Name(), "dyn") {
		t.Errorf("dynamic SCR name = %q", dyn.Name())
	}
}

func TestViolationDetectionQuarantines(t *testing.T) {
	// Plan A has a cost jump in dimension 0 beyond 0.5 — a BCG violation.
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "jumpy", Const: 10, Linear: []float64{1, 1}, JumpDim: 0, JumpAt: 0.5, JumpAmount: 1e6},
		{Name: "flat", Const: 100000, Linear: []float64{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// λ tight enough that G·L = 1.5 fails the selectivity check and the
	// instance reaches the cost check, where the jump is observable.
	s := mustSCR(t, eng, WithLambda(1.2), WithViolationDetection(0.01))
	if _, err := s.Process(context.Background(), []float64{0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	// Crossing the jump: the recost ratio exceeds G → quarantine.
	if _, err := s.Process(context.Background(), []float64{0.6, 0.4}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Violations == 0 {
		t.Error("expected a BCG violation to be detected")
	}
}

// TestProbeCheckPredictsProcess pins ProbeCheck to Process: for every
// instance of a seeded stream — selectivity hits, cost hits, optimizer
// misses and, after a statistics advance, epoch-lag fallbacks — the probe
// taken just before Process names the check Process then serves through.
func TestProbeCheckPredictsProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, err := pqotest.RandomEngine(rng, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := pqotest.NewEpochEngine(base)
	s := mustSCR(t, eng, WithLambda(2))
	ctx := context.Background()
	seen := map[Check]int{}
	for i := 0; i < 400; i++ {
		if i == 300 {
			eng.Advance()
		}
		sv := pqotest.RandomSVector(rng, 2)
		probe := s.ProbeCheck(sv)
		dec, err := s.Process(ctx, sv)
		if err != nil {
			t.Fatal(err)
		}
		if probe != dec.Via {
			t.Fatalf("instance %d %v: ProbeCheck = %v, Process served via %v (%s)",
				i, sv, probe, dec.Via, dec.DegradedReason)
		}
		seen[dec.Via]++
	}
	for _, via := range []Check{ViaSelectivity, ViaCost, ViaOptimizer, ViaFallback} {
		if seen[via] == 0 {
			t.Errorf("stream never served via %v (%v); the test lost coverage", via, seen)
		}
	}
}

// TestProbeCheckWritesNothing runs ProbeCheck where Process would
// quarantine an instance (Appendix G) and checks that the probe left the
// counters, usage counts and quarantine flags exactly as they were.
func TestProbeCheckWritesNothing(t *testing.T) {
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "jumpy", Const: 10, Linear: []float64{1, 1}, JumpDim: 0, JumpAt: 0.5, JumpAmount: 1e6},
		{Name: "flat", Const: 100000, Linear: []float64{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(1.2), WithViolationDetection(0.01))
	ctx := context.Background()
	if _, err := s.Process(ctx, []float64{0.4, 0.4}); err != nil {
		t.Fatal(err)
	}
	type entryState struct {
		u           int64
		quarantined bool
	}
	state := func() []entryState {
		var out []entryState
		for _, e := range s.snapshot().instances {
			out = append(out, entryState{e.u.Load(), e.quarantined.Load()})
		}
		return out
	}
	for _, sv := range [][]float64{{0.6, 0.4}, {0.41, 0.4}} {
		stBefore, entBefore := s.Stats(), state()
		probe := s.ProbeCheck(sv)
		if st := s.Stats(); !reflect.DeepEqual(st, stBefore) {
			t.Errorf("ProbeCheck(%v) changed Stats:\n before %+v\n after  %+v", sv, stBefore, st)
		}
		if ent := state(); !reflect.DeepEqual(ent, entBefore) {
			t.Errorf("ProbeCheck(%v) changed usage/quarantine: %v -> %v", sv, entBefore, ent)
		}
		dec, err := s.Process(ctx, sv)
		if err != nil {
			t.Fatal(err)
		}
		if probe != dec.Via {
			t.Errorf("ProbeCheck(%v) = %v, Process served via %v", sv, probe, dec.Via)
		}
	}
	if st := s.Stats(); st.Violations == 0 {
		t.Error("Process detected no BCG violation; the probe never faced the quarantine path")
	}
}

func TestSweepRedundantPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	eng, err := pqotest.RandomEngine(rng, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Store-always accumulates redundant plans; the Appendix F sweep should
	// then find some to drop.
	s := mustSCR(t, eng, WithLambda(2), WithStoreAlways())
	for i := 0; i < 300; i++ {
		if _, err := s.Process(context.Background(), pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().CurPlans
	dropped, err := s.SweepRedundantPlans()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats().CurPlans
	if after != before-dropped {
		t.Errorf("plans %d -> %d but dropped=%d", before, after, dropped)
	}
	// The guarantee must survive the sweep.
	for i := 0; i < 200; i++ {
		sv := pqotest.RandomSVector(rng, 3)
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		so := eng.PlanCost(dec.Plan, sv) / eng.OptimalCost(sv)
		if so > 2*(1+1e-9) {
			t.Fatalf("post-sweep SO=%v exceeds λ=2", so)
		}
	}
}

func TestSCRSavesOptimizerCallsOnClusteredWorkload(t *testing.T) {
	// Instances drawn from a few tight clusters: after warm-up, nearly all
	// should be served from the cache.
	rng := rand.New(rand.NewSource(43))
	eng, err := pqotest.RandomEngine(rng, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(2))
	centers := [][]float64{{0.001, 0.002}, {0.3, 0.4}, {0.05, 0.9}}
	n := 300
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		sv := []float64{
			math.Min(1, c[0]*(0.95+0.1*rng.Float64())),
			math.Min(1, c[1]*(0.95+0.1*rng.Float64())),
		}
		if _, err := s.Process(context.Background(), sv); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if frac := float64(st.OptCalls) / float64(n); frac > 0.1 {
		t.Errorf("numOpt fraction = %v, want <= 0.1 on clustered workload", frac)
	}
}

func TestNumInstancesTracksOptimizedOnly(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	if _, err := s.Process(context.Background(), []float64{0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Process(context.Background(), []float64{0.01, 0.01}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumInstances(); got != 1 {
		t.Errorf("NumInstances = %d, want 1 (only optimized instances stored)", got)
	}
}

func TestStatsMemoryAccounting(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(1), WithStoreAlways())
	if _, err := s.Process(context.Background(), []float64{0.001, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(context.Background(), []float64{0.9, 0.001}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MemoryBytes <= 0 {
		t.Error("memory accounting must be positive with cached plans")
	}
	if st.CurPlans != 2 {
		t.Errorf("CurPlans = %d, want 2 (opposite corners need both plans)", st.CurPlans)
	}
}

func TestSeedInstanceValidation(t *testing.T) {
	eng := twoPlaneEngine(t)
	s := mustSCR(t, eng, WithLambda(2))
	cp, c, err := eng.Optimize([]float64{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SeedInstance([]float64{0.01, 0.01}, nil, c, 1); err == nil {
		t.Error("nil plan should fail")
	}
	if err := s.SeedInstance([]float64{0.01}, cp, c, 1); err == nil {
		t.Error("wrong dims should fail")
	}
	if err := s.SeedInstance([]float64{0.01, 0.01}, cp, 0, 1); err == nil {
		t.Error("zero optCost should fail")
	}
	if err := s.SeedInstance([]float64{0.01, 0.01}, cp, c, 0.5); err == nil {
		t.Error("subOpt < 1 should fail")
	}
	if err := s.SeedInstance([]float64{0.01, 0.01}, cp, c, 1); err != nil {
		t.Fatalf("valid seed rejected: %v", err)
	}
	if s.Stats().CurPlans != 1 || s.NumInstances() != 1 {
		t.Errorf("seed not recorded: %+v", s.Stats())
	}
	// Budget enforcement on seeding.
	s2 := mustSCR(t, eng, WithLambda(2), WithPlanBudget(1))
	if err := s2.SeedInstance([]float64{0.01, 0.01}, cp, c, 1); err != nil {
		t.Fatal(err)
	}
	other, c2, err := eng.Optimize([]float64{0.9, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == cp.Fingerprint() {
		t.Skip("engine produced one plan; budget path not exercisable")
	}
	if err := s2.SeedInstance([]float64{0.9, 0.9}, other, c2, 1); err == nil {
		t.Error("over-budget seed should fail")
	}
}

func TestSeededGuaranteeHolds(t *testing.T) {
	// Seeding with true sub-optimality bounds must preserve SO ≤ λ.
	rng := rand.New(rand.NewSource(31))
	eng, err := pqotest.RandomEngine(rng, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(2))
	// Offline phase: probe a grid, seed each point's optimal plan.
	for _, x := range []float64{0.001, 0.01, 0.1, 0.5} {
		for _, y := range []float64{0.001, 0.01, 0.1, 0.5} {
			sv := []float64{x, y}
			cp, c, err := eng.Optimize(sv)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SeedInstance(sv, cp, c, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		sv := pqotest.RandomSVector(rng, 2)
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		so := eng.PlanCost(dec.Plan, sv) / eng.OptimalCost(sv)
		if so > 2*(1+1e-9) {
			t.Fatalf("seeded cache instance %d: SO=%v exceeds λ=2 (via %v)", i, so, dec.Via)
		}
	}
	// Seeding should have saved optimizer calls vs a cold run.
	if frac := float64(s.Stats().OptCalls) / 300; frac > 0.5 {
		t.Errorf("seeded SCR still optimized %.0f%% of instances", frac*100)
	}
}
