package core

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/pqotest"
	"repro/internal/query"
	"repro/internal/stats"
)

// The tests in this file move the cost epoch at the three points where
// the read and miss paths compare a recost with an anchor, and check that
// no decision or anchor mixes two statistics generations (§6.2's R is
// Recost(P, q)/C with C and the recost from one generation).

// advancingEngine is a batching engine whose template reads a constant
// predicate on orders.o_orderdate, so a histogram delta on that column
// moves its cost epoch. Armed, its next PrepareRecost or OptimizeEpoch
// advances the cost epoch first.
type advancingEngine struct {
	*engine.TemplateEngine
	t        testing.TB
	advances int
	prepare  atomic.Bool
	optimize atomic.Bool
}

func newAdvancingEngine(t testing.TB) *advancingEngine {
	t.Helper()
	sys := engine.NewSystem(catalog.NewTPCH(0.05), 9)
	tpl := &query.Template{
		Name:    "li_ord_const",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 75_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_totalprice", Op: query.LE, Param: 1},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: -1, Value: 300},
		},
	}
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return &advancingEngine{TemplateEngine: eng, t: t}
}

// advance installs a new o_orderdate histogram with, alternately, 90% and
// 10% of its values under the constant predicate's bound, so the constant
// selectivity, and with it every plan's cost, swings between advances.
func (e *advancingEngine) advance() {
	h := e.Opt.StatsStore().Histogram("orders", "o_orderdate")
	span, below := h.Max()-h.Min(), 0.9
	if e.advances%2 == 1 {
		below = 0.1
	}
	e.advances++
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = 300 + span*(float64(i)/float64(len(vals)-1)-below)
	}
	next, err := e.Opt.StatsStore().Apply([]stats.HistogramDelta{{Table: "orders", Column: "o_orderdate", Values: vals}})
	if err != nil {
		e.t.Fatal(err)
	}
	before := e.CostEpoch()
	e.AdvanceEpoch(next)
	if e.CostEpoch() == before {
		e.t.Fatal("an o_orderdate delta did not move the template's cost epoch")
	}
}

func (e *advancingEngine) PrepareRecost(sv []float64) (*engine.PreparedInstance, error) {
	if e.prepare.CompareAndSwap(true, false) {
		e.advance()
	}
	return e.TemplateEngine.PrepareRecost(sv)
}

func (e *advancingEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if e.optimize.CompareAndSwap(true, false) {
		e.advance()
	}
	return e.TemplateEngine.OptimizeEpoch(sv)
}

// findVia warms s with the vectors that miss until ProbeCheck says the
// next draw is served via want, and returns that draw.
func findVia(t *testing.T, s *SCR, rng *rand.Rand, want Check) []float64 {
	t.Helper()
	for i := 0; i < 2000; i++ {
		sv := pqotest.RandomSVector(rng, s.eng.Dimensions())
		switch s.ProbeCheck(sv) {
		case want:
			return sv
		case ViaOptimizer:
			if _, err := s.Process(context.Background(), sv); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Fatalf("no instance served via %s in 2000 draws", want)
	return nil
}

// TestPrepareGuardSkipsCostCheckAcrossAdvance advances the cost epoch
// between getPlan's scan, which collects candidates anchored at the old
// epoch, and the prepared instance their recosts run through, which is
// pinned to the new one. The lookup must serve no cost-check hit and
// spend no recost on those candidates: they cannot be compared with a
// recost of another generation.
func TestPrepareGuardSkipsCostCheckAcrossAdvance(t *testing.T) {
	eng := newAdvancingEngine(t)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	sv := findVia(t, s, rand.New(rand.NewSource(5)), ViaCost)
	before, epoch := s.Stats().GetPlanRecosts, eng.CostEpoch()

	eng.prepare.Store(true)
	dec, err := s.Process(context.Background(), sv)
	if err != nil {
		t.Fatal(err)
	}
	if eng.prepare.Load() || eng.CostEpoch() == epoch {
		t.Fatal("the lookup never prepared a recost, so the epoch did not advance")
	}
	if dec.Via == ViaCost {
		t.Errorf("cost-check hit at epoch %d served across the advance to %d", dec.Epoch, eng.CostEpoch())
	}
	if got := s.Stats().GetPlanRecosts - before; got != 0 {
		t.Errorf("%d recosts spent on candidates anchored before the advance", got)
	}
}

// midLoopEngine advances a synthetic epoch engine's generation inside its
// at-th RecostEpoch call after arming: between two candidates' recosts on
// the per-call path, which has no prepared instance to pin the epoch.
type midLoopEngine struct {
	*pqotest.EpochEngine
	at atomic.Int64
}

func (e *midLoopEngine) RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	if e.at.Load() > 0 && e.at.Add(-1) == 0 {
		e.Advance()
	}
	return e.EpochEngine.RecostEpoch(cp, sv)
}

// TestCostCheckSkipsRecostOfAnotherEpoch advances the epoch inside the
// cost check's recost loop. Every cost-check decision must carry the cost
// of its plan at the epoch it states and be within λ of that epoch's
// optimum.
func TestCostCheckSkipsRecostOfAnotherEpoch(t *testing.T) {
	const lambda = 2
	advanced, hits := 0, 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		base, err := pqotest.RandomEngine(rng, 3, 6)
		if err != nil {
			t.Fatal(err)
		}
		eng := &midLoopEngine{EpochEngine: pqotest.NewEpochEngine(base)}
		s, err := New(eng, WithLambda(lambda))
		if err != nil {
			t.Fatal(err)
		}
		sv := findVia(t, s, rng, ViaCost)
		eng.at.Store(int64(1 + trial%2))
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		if eng.StatsEpoch() > 1 {
			advanced++
		}
		if dec.Via != ViaCost {
			continue
		}
		hits++
		want, ok := eng.CostAt(dec.Plan.Fingerprint(), sv, dec.Epoch)
		if !ok || math.Abs(dec.Cost-want) > 1e-9*want {
			t.Errorf("trial %d: cost-check decision states cost %v at epoch %d, the plan costs %v there",
				trial, dec.Cost, dec.Epoch, want)
		}
		if opt := eng.OptimalCostAt(sv, dec.Epoch); want > lambda*opt*(1+1e-9) {
			t.Errorf("trial %d: cost-check decision costs %v at epoch %d, over λ·%v", trial, want, dec.Epoch, opt)
		}
	}
	if advanced < 20 {
		t.Fatalf("the epoch advanced inside the recost loop in %d of 40 trials", advanced)
	}
	t.Logf("epoch advanced mid-loop in %d trials; %d cost-check hits", advanced, hits)
}

// checkAnchors requires every anchor at the engine's current cost epoch
// to satisfy C·S = Cost(PP, V) at that epoch, within rounding.
func checkAnchors(t *testing.T, s *SCR, eng *advancingEngine) int {
	t.Helper()
	n := 0
	for _, e := range s.snapshot().instances {
		a := e.anc.Load()
		if a.epoch != eng.CostEpoch() {
			continue
		}
		c, ep, err := eng.RecostEpoch(e.pp.cp, e.v)
		if err != nil {
			t.Fatal(err)
		}
		if ep != a.epoch || math.Abs(a.c*a.s-c) > 1e-9*c {
			t.Errorf("anchor at %v: C·S = %v at epoch %d, the plan costs %v at epoch %d", e.v, a.c*a.s, a.epoch, c, ep)
		}
		n++
	}
	return n
}

// TestRedundancyCheckPricesAtOptimizerEpoch advances the cost epoch
// between a miss's read path, which prices the cached plans at the old
// epoch, and its optimizer call. The redundancy check in storePlan must
// price the cached plans at the optimizer's epoch, not reuse the read
// path's recosts: an anchor's C·S is its plan's cost at its epoch.
func TestRedundancyCheckPricesAtOptimizerEpoch(t *testing.T) {
	eng := newAdvancingEngine(t)
	rng := rand.New(rand.NewSource(7))
	redundant := 0
	for trial := 0; trial < 30; trial++ {
		s, err := New(eng, WithLambda(2))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Process(context.Background(), pqotest.RandomSVector(rng, 2)); err != nil {
				t.Fatal(err)
			}
		}
		sv := findVia(t, s, rng, ViaOptimizer)
		checkAnchors(t, s, eng)
		rejected := s.Stats().RedundantPlansRejected
		eng.optimize.Store(true)
		dec, err := s.Process(context.Background(), sv)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Via != ViaOptimizer || eng.optimize.Load() {
			t.Fatalf("trial %d: the armed miss was served via %s", trial, dec.Via)
		}
		if checkAnchors(t, s, eng) != 1 {
			t.Fatalf("trial %d: want exactly the stored instance at the new cost epoch", trial)
		}
		if s.Stats().RedundantPlansRejected > rejected {
			redundant++
		}
	}
	if redundant == 0 {
		t.Fatal("no armed miss found its plan redundant, so the check's pricing went untested")
	}
	t.Logf("%d of 30 armed misses found their plan redundant", redundant)
}
