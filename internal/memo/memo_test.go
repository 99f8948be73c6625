package memo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// testRig bundles an optimizer over a small TPC-H catalog plus a 2-d
// template joining lineitem and orders.
type testRig struct {
	cat *catalog.Catalog
	st  *stats.Store
	opt *Optimizer
	tpl *query.Template
}

func newRig(t testing.TB) *testRig {
	t.Helper()
	cat := catalog.NewTPCH(0.1)
	st := stats.Build(cat, datagen.New(cat, 42))
	opt := NewOptimizer(cat, cost.DefaultModel(), st)
	tpl := &query.Template{
		Name:    "q2d",
		Catalog: cat,
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
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return &testRig{cat: cat, st: st, opt: opt, tpl: tpl}
}

func (r *testRig) threeWay(t testing.TB) *query.Template {
	t.Helper()
	tpl := &query.Template{
		Name:    "q3d",
		Catalog: r.cat,
		Tables:  []string{"lineitem", "orders", "customer"},
		Joins: []query.Join{
			{Left: "lineitem", Right: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 150_000},
			{Left: "orders", Right: "customer", LeftCol: "o_custkey", RightCol: "c_custkey", Selectivity: 1.0 / 15_000},
		},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
			{Table: "customer", Column: "c_acctbal", Op: query.GE, Param: 2},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestEnvBasics(t *testing.T) {
	r := newRig(t)
	env, err := NewEnv(r.tpl, []float64{0.25, 0.5}, r.st)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.TableSel("lineitem"); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("TableSel(lineitem) = %v, want 0.25", got)
	}
	if got := env.TableSel("customer"); got != 1 {
		t.Errorf("TableSel(customer) = %v, want 1 (no preds)", got)
	}
	if n := env.NumPredsOn("orders"); n != 1 {
		t.Errorf("NumPredsOn(orders) = %d, want 1", n)
	}
	sel, ok := env.PredSelOn("lineitem", "l_shipdate")
	if !ok || math.Abs(sel-0.25) > 1e-12 {
		t.Errorf("PredSelOn = (%v, %v), want (0.25, true)", sel, ok)
	}
	if _, ok := env.PredSelOn("lineitem", "l_quantity"); ok {
		t.Error("PredSelOn for unfiltered column should be false")
	}
	if _, err := NewEnv(r.tpl, []float64{0.5}, r.st); err == nil {
		t.Error("short sVector should fail")
	}
}

func TestOptimizeReturnsValidPlan(t *testing.T) {
	r := newRig(t)
	p, c, err := r.opt.Optimize(r.tpl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 || math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("cost = %v", c)
	}
	tabs := p.Root.Tables()
	if len(tabs) != 2 {
		t.Fatalf("plan references %v, want both tables", tabs)
	}
}

func TestOptimalPlanVariesWithSelectivity(t *testing.T) {
	// The whole premise of PQO: different regions of the selectivity space
	// have different optimal plans.
	r := newRig(t)
	fps := make(map[string]bool)
	for _, sv := range [][]float64{
		{1e-5, 1e-5}, {1e-5, 0.9}, {0.9, 1e-5}, {0.9, 0.9}, {0.05, 0.5},
	} {
		p, _, err := r.opt.Optimize(r.tpl, sv)
		if err != nil {
			t.Fatal(err)
		}
		fps[p.Fingerprint()] = true
	}
	if len(fps) < 2 {
		t.Errorf("only %d distinct optimal plans across extreme selectivities; need plan diversity", len(fps))
	}
}

func TestWinnerIsMinimalOverSearchSpace(t *testing.T) {
	// Cross-check the DP winner against recosting the winner itself and
	// against the winners found at other selectivity points: for any sv,
	// Cost(winner(sv), sv) <= Cost(winner(sv'), sv) for all sv'.
	r := newRig(t)
	grid := [][]float64{
		{1e-4, 1e-4}, {1e-4, 0.5}, {0.5, 1e-4}, {0.5, 0.5},
		{0.02, 0.2}, {0.9, 0.9}, {1e-4, 0.9}, {0.9, 1e-4},
	}
	plans := make([]*plan.Plan, len(grid))
	for i, sv := range grid {
		p, _, err := r.opt.Optimize(r.tpl, sv)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	for i, sv := range grid {
		_, ownCost, err := r.opt.Optimize(r.tpl, sv)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range plans {
			c, err := r.opt.Recost(p, r.tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			if c < ownCost-1e-9 {
				t.Errorf("winner at %v (cost %v) beaten by plan from %v (cost %v)", sv, ownCost, grid[j], c)
			}
			_ = i
		}
	}
}

func TestRecostEqualsOptimizeCostForWinner(t *testing.T) {
	r := newRig(t)
	tpl3 := r.threeWay(t)
	for _, sv := range [][]float64{{0.001, 0.01, 0.1}, {0.5, 0.5, 0.5}, {1e-5, 0.9, 0.3}} {
		p, c, err := r.opt.Optimize(tpl3, sv)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := r.opt.Recost(p, tpl3, sv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rc-c)/c > 1e-9 {
			t.Errorf("Recost(%v) = %v, Optimize cost = %v; must be identical", sv, rc, c)
		}
	}
}

func TestShrunkenMemoMatchesRecost(t *testing.T) {
	r := newRig(t)
	tpl3 := r.threeWay(t)
	p, c, err := r.opt.Optimize(tpl3, []float64{0.01, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShrunkenMemo(r.opt, p, tpl3)
	if err != nil {
		t.Fatal(err)
	}
	// At the optimized point the shrunken memo reproduces the winning cost.
	got, err := sm.Recost(r.opt, []float64{0.01, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-c)/c > 1e-9 {
		t.Errorf("shrunken recost = %v, optimize cost = %v", got, c)
	}
	// At other points it matches the tree-walking Recost exactly.
	for _, sv := range [][]float64{{0.3, 0.3, 0.3}, {1e-4, 0.9, 0.5}, {0.9, 1e-4, 1e-4}} {
		a, err := sm.Recost(r.opt, sv)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.opt.Recost(p, tpl3, sv)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9*math.Max(a, b) {
			t.Errorf("shrunken vs tree recost at %v: %v vs %v", sv, a, b)
		}
	}
	if sm.NumOps() != p.Root.NumOperators() {
		t.Errorf("shrunken memo has %d ops, plan has %d", sm.NumOps(), p.Root.NumOperators())
	}
	if sm.Size() <= 0 {
		t.Error("Size() must be positive")
	}
}

func TestRecostMuchCheaperThanOptimize(t *testing.T) {
	// The paper's premise for the cost check: Recost is far cheaper than a
	// full optimizer call. Compare expressions costed vs operators visited.
	cat := catalog.NewTPCH(0.1)
	st := stats.Build(cat, datagen.New(cat, 42))
	opt := NewOptimizer(cat, cost.DefaultModel(), st)
	r := &testRig{cat: cat, st: st, opt: opt}
	tpl := r.threeWay(t)
	sv := []float64{0.01, 0.05, 0.2}
	p, _, err := opt.Optimize(tpl, sv)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewShrunkenMemo(opt, p, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Recost(opt, sv); err != nil {
		t.Fatal(err)
	}
	_, exprCosted, _, recostOps := opt.Counters()
	if exprCosted < 5*recostOps {
		t.Errorf("optimize costed %d exprs, recost visited %d ops; expected optimize >> recost",
			exprCosted, recostOps)
	}
}

func TestCountersAdvance(t *testing.T) {
	r := newRig(t)
	o0, e0, r0, ro0 := r.opt.Counters()
	p, _, err := r.opt.Optimize(r.tpl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.opt.Recost(p, r.tpl, []float64{0.2, 0.2}); err != nil {
		t.Fatal(err)
	}
	o1, e1, r1, ro1 := r.opt.Counters()
	if o1 != o0+1 || e1 <= e0 || r1 != r0+1 || ro1 <= ro0 {
		t.Errorf("counters did not advance: (%d,%d,%d,%d) -> (%d,%d,%d,%d)",
			o0, e0, r0, ro0, o1, e1, r1, ro1)
	}
}

func TestOptimizeSingleTable(t *testing.T) {
	r := newRig(t)
	tpl := &query.Template{
		Name:    "q1t",
		Catalog: r.cat,
		Tables:  []string{"lineitem"},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	// Low selectivity: the optimizer must choose the secondary index scan.
	p, _, err := r.opt.Optimize(tpl, []float64{1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.IndexScan || p.Root.Index != "ix_l_shipdate" {
		t.Errorf("at sel 1e-5, got %s, want IndexScan via ix_l_shipdate:\n%s", p.Root.Op, p)
	}
	// High selectivity: full scan (or clustered scan) must win.
	p2, _, err := r.opt.Optimize(tpl, []float64{0.95})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Root.Op == plan.IndexScan && !p2.Root.Clustered {
		t.Errorf("at sel 0.95, secondary index scan should lose:\n%s", p2)
	}
}

func TestOptimizeGroupBy(t *testing.T) {
	r := newRig(t)
	tpl := &query.Template{
		Name:      "qagg",
		Catalog:   r.cat,
		Tables:    []string{"lineitem", "orders"},
		Joins:     r.tpl.Joins,
		Preds:     r.tpl.Preds,
		Agg:       query.GroupBy,
		GroupCard: 100,
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	p, c, err := r.opt.Optimize(tpl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.HashAgg && p.Root.Op != plan.StreamAgg {
		t.Errorf("GroupBy plan root = %s, want an aggregate", p.Root.Op)
	}
	rc, err := r.opt.Recost(p, tpl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rc-c)/c > 1e-9 {
		t.Errorf("agg recost %v != optimize %v", rc, c)
	}
}

func TestRecostErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.opt.Recost(plan.New("q", nil), r.tpl, []float64{0.1, 0.1}); err == nil {
		t.Error("recost of nil plan should fail")
	}
	p, _, err := r.opt.Optimize(r.tpl, []float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.opt.Recost(p, r.tpl, []float64{0.1}); err == nil {
		t.Error("recost with short sVector should fail")
	}
	if _, err := NewShrunkenMemo(r.opt, plan.New("q", nil), r.tpl); err == nil {
		t.Error("shrunken memo of nil plan should fail")
	}
}

// Property: Recost is monotone under the PCM assumption for BCG-compliant
// selectivity scalings — increasing every selectivity never decreases cost.
func TestRecostMonotoneProperty(t *testing.T) {
	r := newRig(t)
	p, _, err := r.opt.Optimize(r.tpl, []float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw, gRaw uint16) bool {
		s1 := float64(aRaw%900+1) / 1000
		s2 := float64(bRaw%900+1) / 1000
		gamma := 1 + float64(gRaw%100)/100 // [1, 2)
		c1, err := r.opt.Recost(p, r.tpl, []float64{s1, s2})
		if err != nil {
			return false
		}
		u1, u2 := math.Min(s1*gamma, 1), math.Min(s2*gamma, 1)
		c2, err := r.opt.Recost(p, r.tpl, []float64{u1, u2})
		if err != nil {
			return false
		}
		return c2+1e-9 >= c1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: BCG with fi(α)=α holds for recosted whole plans in this model
// up to join-count degree: scaling one dimension's selectivity by α scales
// plan cost by at most α per occurrence of that dimension (one table here).
func TestPlanBCGProperty(t *testing.T) {
	r := newRig(t)
	p, _, err := r.opt.Optimize(r.tpl, []float64{0.05, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	f := func(sRaw, aRaw uint16) bool {
		s := float64(sRaw%500+1) / 1000
		alpha := 1 + float64(aRaw%300)/100
		if s*alpha > 1 {
			return true
		}
		c1, err := r.opt.Recost(p, r.tpl, []float64{s, 0.3})
		if err != nil {
			return false
		}
		c2, err := r.opt.Recost(p, r.tpl, []float64{s * alpha, 0.3})
		if err != nil {
			return false
		}
		return c2 <= alpha*c1*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeRejectsHugeJoins(t *testing.T) {
	r := newRig(t)
	tpl := &query.Template{Name: "huge", Catalog: r.cat}
	for i := 0; i < 21; i++ {
		tpl.Tables = append(tpl.Tables, "t")
	}
	if _, _, err := r.opt.Optimize(tpl, nil); err == nil {
		t.Error("21-table join should be rejected")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	// The winner (structure and cost) must be identical across repeated
	// calls and across independently built optimizers: experiments rely on
	// fingerprint equality for plan identity.
	r1 := newRig(t)
	r2 := newRig(t)
	tpl1 := r1.threeWay(t)
	tpl2 := r2.threeWay(t)
	for _, sv := range [][]float64{{0.01, 0.1, 0.5}, {0.5, 0.01, 0.9}, {1e-4, 1e-4, 1e-4}} {
		pa, ca, err := r1.opt.Optimize(tpl1, sv)
		if err != nil {
			t.Fatal(err)
		}
		pb, cb, err := r1.opt.Optimize(tpl1, sv)
		if err != nil {
			t.Fatal(err)
		}
		pc, cc, err := r2.opt.Optimize(tpl2, sv)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Fingerprint() != pb.Fingerprint() || ca != cb {
			t.Errorf("same optimizer, same sv, different result at %v", sv)
		}
		if pa.Fingerprint() != pc.Fingerprint() || math.Abs(ca-cc)/ca > 1e-12 {
			t.Errorf("independent optimizers disagree at %v: %v vs %v", sv, ca, cc)
		}
	}
}
