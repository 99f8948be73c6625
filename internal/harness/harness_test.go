package harness

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/pqotest"
	"repro/internal/workload"
)

// fakeSequence builds a prepared sequence against a synthetic engine.
func fakeSequence(t *testing.T, eng *pqotest.Engine, m int, seed int64) *workload.Sequence {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	insts := make([]workload.Instance, m)
	for i := range insts {
		sv := pqotest.RandomSVector(rng, eng.Dimensions())
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = workload.Instance{SV: sv, OptCost: c, OptFP: cp.Fingerprint()}
	}
	return &workload.Sequence{Name: "fake", Instances: insts}
}

func newRandomEngine(t *testing.T, seed int64, d, plans int) *pqotest.Engine {
	t.Helper()
	eng, err := pqotest.RandomEngine(rand.New(rand.NewSource(seed)), d, plans)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestRunOptAlwaysIsOptimal(t *testing.T) {
	eng := newRandomEngine(t, 1, 3, 8)
	seq := fakeSequence(t, eng, 100, 2)
	res, err := Run(context.Background(), eng, baselines.NewOptAlways(eng), seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MSO > 1+1e-9 {
		t.Errorf("OptAlways MSO = %v, want 1", res.MSO)
	}
	if math.Abs(res.TotalCostRatio-1) > 1e-9 {
		t.Errorf("OptAlways TC = %v, want 1", res.TotalCostRatio)
	}
	if res.NumOpt != 100 || res.OptFraction != 1 {
		t.Errorf("OptAlways numOpt = %d (%v)", res.NumOpt, res.OptFraction)
	}
	if res.NumPlans != 0 {
		t.Errorf("OptAlways numPlans = %d, want 0", res.NumPlans)
	}
}

func TestRunSCRRespectsBound(t *testing.T) {
	eng := newRandomEngine(t, 3, 3, 10)
	seq := fakeSequence(t, eng, 300, 4)
	scr, err := core.New(eng, core.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), eng, scr, seq, Options{Lambda: 2, RetainSOs: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundViolations != 0 {
		t.Errorf("SCR violated the bound %d times on a BCG-compliant engine", res.BoundViolations)
	}
	if res.MSO > 2+1e-9 {
		t.Errorf("SCR MSO = %v > λ=2", res.MSO)
	}
	if res.TotalCostRatio < 1 || res.TotalCostRatio > res.MSO+1e-9 {
		t.Errorf("TC = %v outside [1, MSO=%v]", res.TotalCostRatio, res.MSO)
	}
	if len(res.SOs) != 300 {
		t.Errorf("RetainSOs kept %d entries, want 300", len(res.SOs))
	}
	if res.NumOpt >= 300 {
		t.Error("SCR should reuse some plans")
	}
}

func TestRunRequiresGroundTruth(t *testing.T) {
	eng := newRandomEngine(t, 5, 2, 4)
	seq := &workload.Sequence{Name: "raw", Instances: []workload.Instance{{SV: []float64{0.1, 0.1}}}}
	if _, err := Run(context.Background(), eng, baselines.NewOptAlways(eng), seq, Options{}); err == nil {
		t.Error("unprepared sequence should fail")
	}
	empty := &workload.Sequence{Name: "empty"}
	if _, err := Run(context.Background(), eng, baselines.NewOptAlways(eng), empty, Options{}); err == nil {
		t.Error("empty sequence should fail")
	}
}

func TestSummarize(t *testing.T) {
	results := []*Result{
		{MSO: 1, TotalCostRatio: 1.0, OptFraction: 0.1, NumPlans: 2},
		{MSO: 2, TotalCostRatio: 1.2, OptFraction: 0.2, NumPlans: 4},
		{MSO: 3, TotalCostRatio: 1.4, OptFraction: 0.3, NumPlans: 6},
		{MSO: 10, TotalCostRatio: 5.0, OptFraction: 0.4, NumPlans: 100},
	}
	s := Summarize(results, MetricMSO)
	if s.N != 4 || s.Max != 10 || math.Abs(s.Mean-4) > 1e-12 {
		t.Errorf("MSO summary = %+v", s)
	}
	if s.Median != 2.5 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	if s.P95 < 3 || s.P95 > 10 {
		t.Errorf("p95 = %v, want within (3, 10]", s.P95)
	}
	if got := Summarize(nil, MetricMSO); got.N != 0 {
		t.Errorf("empty summary = %+v", got)
	}
	if v := Summarize(results, MetricNumPlans).Max; v != 100 {
		t.Errorf("numPlans max = %v", v)
	}
	if v := Summarize(results, MetricTC).Max; v != 5 {
		t.Errorf("TC max = %v", v)
	}
	if v := Summarize(results, MetricOptFraction).Max; v != 0.4 {
		t.Errorf("optFraction max = %v", v)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(vals, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(vals, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty percentile = %v, want NaN", got)
	}
}

func TestHeuristicsCanExceedBoundWhereSCRDoesNot(t *testing.T) {
	// The paper's §3 point: heuristics risk unbounded sub-optimality. Use a
	// cost structure with a sharp plan crossover and a sequence that walks
	// across it.
	eng, err := pqotest.NewEngine(2, []pqotest.PlanSpec{
		{Name: "A", Const: 1, Linear: []float64{2, 2000}},
		{Name: "B", Const: 2, Linear: []float64{2000, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var insts []workload.Instance
	// March dimension 1 upwards at fixed small dimension 0: optimal plan
	// flips from A to B partway.
	for s := 0.001; s < 1; s *= 1.6 {
		sv := []float64{0.001, s}
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, workload.Instance{SV: sv, OptCost: c, OptFP: cp.Fingerprint()})
	}
	seq := &workload.Sequence{Name: "crossover", Instances: insts}

	ranges, err := baselines.NewRanges(eng, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	resRanges, err := Run(context.Background(), eng, ranges, seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scr, err := core.New(eng, core.WithLambda(1.5))
	if err != nil {
		t.Fatal(err)
	}
	resSCR, err := Run(context.Background(), eng, scr, seq, Options{Lambda: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if resSCR.MSO > 1.5+1e-9 {
		t.Errorf("SCR MSO = %v exceeds λ", resSCR.MSO)
	}
	if resRanges.MSO <= resSCR.MSO {
		t.Logf("note: Ranges MSO %v did not exceed SCR's %v on this walk", resRanges.MSO, resSCR.MSO)
	}
}

func TestViaCounts(t *testing.T) {
	eng := newRandomEngine(t, 21, 2, 6)
	seq := fakeSequence(t, eng, 120, 22)
	scr, err := core.New(eng, core.WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), eng, scr, seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range res.ViaCounts {
		total += n
	}
	if total != int64(res.M) {
		t.Errorf("ViaCounts sum %d != M %d", total, res.M)
	}
	if res.ViaCounts[core.ViaOptimizer] != res.NumOpt {
		t.Errorf("ViaCounts[optimizer] = %d, NumOpt = %d",
			res.ViaCounts[core.ViaOptimizer], res.NumOpt)
	}
	if res.ViaCounts[core.ViaSelectivity]+res.ViaCounts[core.ViaCost] == 0 {
		t.Error("SCR never reused a plan on 120 instances")
	}
}
