package engine

import (
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/query"
)

func testSystem(t testing.TB) (*System, *query.Template) {
	t.Helper()
	sys := NewSystem(catalog.NewTPCH(0.1), 42)
	tpl := &query.Template{
		Name:    "q2d",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{
			Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey",
			Selectivity: 1.0 / 150_000,
		}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	return sys, tpl
}

func TestEngineOptimizeAndRecost(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Dimensions() != 2 {
		t.Fatalf("Dimensions() = %d, want 2", eng.Dimensions())
	}
	sv := []float64{0.05, 0.1}
	cp, c, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Fatalf("optimize cost = %v", c)
	}
	rc, err := eng.Recost(cp, sv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc-c)/c > 1e-9 {
		t.Errorf("Recost at optimized point = %v, want %v", rc, c)
	}
	if cp.Fingerprint() == "" {
		t.Error("empty fingerprint")
	}
	if cp.MemoryBytes() <= 0 {
		t.Error("non-positive plan memory estimate")
	}
}

// TestAdvanceEpochRecostsUnderNewStatistics checks that a statistics swap
// never serves a stale recost: after it, a template whose constant
// predicate reads a replaced histogram recosts exactly as an engine built
// on the new statistics does, and a template with no footprint recosts
// exactly as before the swap.
func TestAdvanceEpochRecostsUnderNewStatistics(t *testing.T) {
	sys, tpl := testSystem(t)
	constTpl := *tpl
	constTpl.Name = "q2d_const"
	constTpl.Preds = append(append([]query.Predicate(nil), tpl.Preds...),
		query.Predicate{Table: "orders", Column: "o_totalprice", Op: query.GE, Param: -1, Value: 1000})
	sv := []float64{0.05, 0.1}
	type warm struct {
		eng    *TemplateEngine
		cp     *CachedPlan
		before float64
	}
	var engs []warm
	for _, tp := range []*query.Template{tpl, &constTpl} {
		eng, err := sys.EngineFor(tp)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		c, err := eng.Recost(cp, sv)
		if err != nil {
			t.Fatal(err)
		}
		engs = append(engs, warm{eng, cp, c})
	}

	// Swap in a statistics store built from different data: every
	// histogram is replaced, so the constant template's cost epoch moves.
	sys2 := NewSystem(catalog.NewTPCH(0.1), 43)
	engs[0].eng.AdvanceEpoch(sys2.Opt.StatsStore())
	after := make([]float64, len(engs))
	for i, w := range engs {
		var err error
		if after[i], err = w.eng.Recost(w.cp, sv); err != nil {
			t.Fatal(err)
		}
	}
	if after[0] != engs[0].before {
		t.Errorf("%s: recost after AdvanceEpoch = %v, want the pre-swap %v; a template with no footprint keeps its costs",
			tpl.Name, after[0], engs[0].before)
	}
	fresh, err := sys2.EngineFor(&constTpl)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Recost(engs[1].cp, sv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after[1]) != math.Float64bits(want) {
		t.Errorf("%s: recost after AdvanceEpoch = %v, fresh engine on the new statistics = %v; stale cost served",
			constTpl.Name, after[1], want)
	}
	if after[1] == engs[1].before {
		t.Errorf("%s: recost unchanged by a swap that replaced its footprint histogram (%v)", constTpl.Name, after[1])
	}
	if got, want := engs[0].eng.CostEpoch(), uint64(1); got != want {
		t.Errorf("footprint-free cost epoch = %d, want %d", got, want)
	}
	if got, want := engs[1].eng.CostEpoch(), engs[1].eng.StatsEpoch(); got != want {
		t.Errorf("constant template cost epoch = %d, want the new epoch %d", got, want)
	}
}

func TestEngineTimingAccounting(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.Optimize([]float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recost(cp, []float64{0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	ot, rt, oc, rc := eng.Timing()
	if oc != 1 || rc != 1 {
		t.Errorf("calls = (%d, %d), want (1, 1)", oc, rc)
	}
	if ot <= 0 || rt <= 0 {
		t.Errorf("times = (%v, %v), want positive", ot, rt)
	}
	eng.ResetTiming()
	ot, rt, oc, rc = eng.Timing()
	if ot != 0 || rt != 0 || oc != 0 || rc != 0 {
		t.Error("ResetTiming did not zero the counters")
	}
}

func TestEngineRecostNil(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recost(nil, []float64{0.1, 0.1}); err == nil {
		t.Error("recost of nil plan should fail")
	}
}

func TestEngineForRejectsInvalidTemplate(t *testing.T) {
	sys, _ := testSystem(t)
	bad := &query.Template{Name: "", Catalog: sys.Cat, Tables: []string{"lineitem"}}
	if _, err := sys.EngineFor(bad); err == nil {
		t.Error("invalid template should be rejected")
	}
}

func TestRecostWallClockCheaperThanOptimize(t *testing.T) {
	// Table 3's enabling fact: Recost is much faster than optimization.
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := eng.Optimize([]float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	for i := 0; i < rounds; i++ {
		sv := []float64{0.01 + 0.04*float64(i)/rounds, 0.05}
		if _, _, err := eng.Optimize(sv); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Recost(cp, sv); err != nil {
			t.Fatal(err)
		}
	}
	ot, rt, oc, rc := eng.Timing()
	avgOpt := ot / time.Duration(oc)
	avgRecost := rt / time.Duration(rc)
	if avgRecost*2 >= avgOpt {
		t.Errorf("avg recost %v not clearly cheaper than avg optimize %v", avgRecost, avgOpt)
	}
}

func TestRehydrateRoundTrip(t *testing.T) {
	sys, tpl := testSystem(t)
	eng, err := sys.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	sv := []float64{0.03, 0.2}
	cp, c, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	re, err := eng.Rehydrate(cp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if re.Fingerprint() != cp.Fingerprint() {
		t.Error("rehydrated plan has a different fingerprint")
	}
	rc, err := eng.Recost(re, sv)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc-c)/c > 1e-9 {
		t.Errorf("rehydrated recost %v != optimize cost %v", rc, c)
	}
	if _, err := eng.Rehydrate(nil); err == nil {
		t.Error("rehydrating nil should fail")
	}
}
