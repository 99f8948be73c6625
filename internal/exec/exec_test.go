package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// rig bundles a small materialized database with a 2-d join template.
type rig struct {
	db  *DB
	cat *catalog.Catalog
	tpl *query.Template
}

func newRig(t testing.TB) *rig {
	t.Helper()
	cat := catalog.NewTPCH(0.01)
	gen := datagen.New(cat, 42)
	db, err := Materialize(cat, gen, 20000)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &query.Template{
		Name:    "exec2d",
		Catalog: cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 15_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return &rig{db: db, cat: cat, tpl: tpl}
}

func TestMaterializeScalesProportionally(t *testing.T) {
	cat := catalog.NewTPCH(0.1)
	gen := datagen.New(cat, 1)
	db, err := Materialize(cat, gen, 10000)
	if err != nil {
		t.Fatal(err)
	}
	li := db.RowCount("lineitem")
	ord := db.RowCount("orders")
	if li != 10000 {
		t.Errorf("largest table got %d rows, want 10000", li)
	}
	if ord == 0 || ord >= li {
		t.Errorf("orders rows = %d, want positive and below lineitem's %d", ord, li)
	}
	if db.RowCount("nope") != 0 {
		t.Error("unknown table should report 0 rows")
	}
	if _, err := Materialize(cat, gen, 0); err == nil {
		t.Error("maxRows=0 should fail")
	}
}

// buildJoinPlan constructs a specific physical plan by hand.
func buildJoinPlan(op plan.OpType, leftScan, rightScan *plan.Node) *plan.Plan {
	return plan.New("exec2d", &plan.Node{
		Op: op, JoinCol: "lineitem.l_orderkey", RightJoinCol: "orders.o_orderkey",
		JoinSel:  1.0 / 15_000,
		Children: []*plan.Node{leftScan, rightScan},
	})
}

func TestJoinAlgorithmsAgree(t *testing.T) {
	r := newRig(t)
	liScan := &plan.Node{Op: plan.TableScan, Table: "lineitem"}
	ordScan := &plan.Node{Op: plan.TableScan, Table: "orders"}
	params := []float64{1000, 1200} // l_shipdate <= 1000, o_orderdate <= 1200

	var counts []int
	for _, op := range []plan.OpType{plan.HashJoin, plan.NLJoin, plan.MergeJoin} {
		p := buildJoinPlan(op, liScan, ordScan)
		n, err := r.db.Execute(p, r.tpl, params)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		counts = append(counts, n)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("join algorithms disagree: hash=%d nl=%d merge=%d", counts[0], counts[1], counts[2])
	}
	if counts[0] == 0 {
		t.Fatal("join produced no rows; parameters too selective for a meaningful test")
	}
}

func TestIndexScanMatchesTableScan(t *testing.T) {
	r := newRig(t)
	params := []float64{800, 1200}
	full := buildJoinPlan(plan.HashJoin,
		&plan.Node{Op: plan.TableScan, Table: "lineitem"},
		&plan.Node{Op: plan.TableScan, Table: "orders"})
	viaIndex := buildJoinPlan(plan.HashJoin,
		&plan.Node{Op: plan.IndexScan, Table: "lineitem", Index: "ix_l_shipdate", IndexColumn: "l_shipdate"},
		&plan.Node{Op: plan.IndexScan, Table: "orders", Index: "ix_o_orderdate", IndexColumn: "o_orderdate"})
	a, err := r.db.Execute(full, r.tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.db.Execute(viaIndex, r.tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("index scan result %d != table scan result %d", b, a)
	}
}

func TestGEPredicateAndResidualFilters(t *testing.T) {
	r := newRig(t)
	tpl := &query.Template{
		Name:    "exec1t",
		Catalog: r.cat,
		Tables:  []string{"lineitem"},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.GE, Param: 0},
			{Table: "lineitem", Column: "l_quantity", Op: query.LE, Param: 1},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	full := plan.New("exec1t", &plan.Node{Op: plan.TableScan, Table: "lineitem"})
	ix := plan.New("exec1t", &plan.Node{Op: plan.IndexScan, Table: "lineitem",
		Index: "ix_l_shipdate", IndexColumn: "l_shipdate"})
	params := []float64{1500, 25}
	a, err := r.db.Execute(full, tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.db.Execute(ix, tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("GE index scan %d != table scan %d", b, a)
	}
	// Result must shrink as the filter tightens.
	tight, err := r.db.Execute(full, tpl, []float64{2400, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tight >= a {
		t.Errorf("tighter predicate returned %d rows, loose returned %d", tight, a)
	}
}

func TestAggregation(t *testing.T) {
	r := newRig(t)
	tpl := &query.Template{
		Name:    "execagg",
		Catalog: r.cat,
		Tables:  []string{"lineitem"},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
		},
		Agg:       query.GroupBy,
		GroupCard: 100,
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	scan := &plan.Node{Op: plan.TableScan, Table: "lineitem"}
	hash := plan.New("execagg", &plan.Node{Op: plan.HashAgg, Children: []*plan.Node{scan}})
	stream := plan.New("execagg", &plan.Node{Op: plan.StreamAgg, Children: []*plan.Node{scan}})
	params := []float64{1200}
	a, err := r.db.Execute(hash, tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.db.Execute(stream, tpl, params)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("hash agg groups %d != stream agg groups %d", a, b)
	}
	if a == 0 {
		t.Fatal("aggregation produced no groups")
	}
}

func TestExecuteErrors(t *testing.T) {
	r := newRig(t)
	p := plan.New("exec2d", &plan.Node{Op: plan.TableScan, Table: "lineitem"})
	if _, err := r.db.Execute(p, r.tpl, []float64{1}); err == nil {
		t.Error("wrong param arity should fail")
	}
	bad := plan.New("exec2d", &plan.Node{Op: plan.TableScan, Table: "missing"})
	if _, err := r.db.Execute(bad, r.tpl, []float64{1, 1}); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := r.db.Execute(plan.New("x", nil), r.tpl, []float64{1, 1}); err == nil {
		t.Error("nil plan should fail")
	}
}

func TestOptimizerPlansExecuteCorrectly(t *testing.T) {
	// Integration: plans chosen by the real optimizer at different
	// selectivities all produce identical results for the same instance.
	cat := catalog.NewTPCH(0.01)
	sysFull := engine.NewSystem(cat, 42)
	db, err := Materialize(cat, sysFull.Gen, 20000)
	if err != nil {
		t.Fatal(err)
	}
	tpl := &query.Template{
		Name:    "execint",
		Catalog: cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 15_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: 1},
		},
	}
	eng, err := sysFull.EngineFor(tpl)
	if err != nil {
		t.Fatal(err)
	}
	// Optimize at several selectivity points; execute each plan with the
	// same concrete parameter values.
	params := []float64{1200, 1500}
	counts := map[int]bool{}
	fps := map[string]bool{}
	for _, sv := range [][]float64{{1e-4, 1e-4}, {0.5, 0.5}, {1e-4, 0.9}, {0.9, 1e-4}} {
		cp, _, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		fps[cp.Fingerprint()] = true
		n, err := db.Execute(cp.Plan, tpl, params)
		if err != nil {
			t.Fatalf("executing plan for sv=%v: %v", sv, err)
		}
		counts[n] = true
	}
	if len(counts) != 1 {
		t.Fatalf("different plans gave different results: %v", counts)
	}
	if len(fps) < 2 {
		t.Log("note: only one distinct plan across the probe points")
	}
}
