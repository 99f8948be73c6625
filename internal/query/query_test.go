package query

import (
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/stats"
)

func testTemplate(t *testing.T) (*Template, *stats.Store) {
	t.Helper()
	cat := catalog.NewTPCH(0.05)
	st := stats.Build(cat, datagen.New(cat, 5))
	tpl := &Template{
		Name:    "q_test",
		Catalog: cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []Join{
			{Left: "lineitem", Right: "orders", LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 1.5e6 / 0.05},
		},
		Preds: []Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: LE, Param: 0},
			{Table: "orders", Column: "o_totalprice", Op: GE, Param: 1},
			{Table: "orders", Column: "o_shippriority", Op: LE, Param: -1, Value: 2},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tpl, st
}

func TestValidateRejectsBadTemplates(t *testing.T) {
	cat := catalog.NewTPCH(0.05)
	base := func() *Template {
		return &Template{
			Name:    "q",
			Catalog: cat,
			Tables:  []string{"lineitem", "orders"},
			Joins: []Join{{Left: "lineitem", Right: "orders",
				LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 0.001}},
			Preds: []Predicate{{Table: "lineitem", Column: "l_shipdate", Op: LE, Param: 0}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Template)
		want   string
	}{
		{"empty name", func(q *Template) { q.Name = "" }, "empty name"},
		{"nil catalog", func(q *Template) { q.Catalog = nil }, "nil catalog"},
		{"no tables", func(q *Template) { q.Tables = nil }, "no tables"},
		{"unknown table", func(q *Template) { q.Tables = []string{"nope", "orders"} }, "unknown table"},
		{"duplicate table", func(q *Template) { q.Tables = []string{"orders", "orders"} }, "twice"},
		{"join outside FROM", func(q *Template) { q.Joins[0].Left = "part"; q.Tables = []string{"lineitem", "orders"} }, "not in FROM"},
		{"join unknown column", func(q *Template) { q.Joins[0].LeftCol = "zzz" }, "unknown column"},
		{"join bad selectivity", func(q *Template) { q.Joins[0].Selectivity = 0 }, "selectivity"},
		{"disconnected", func(q *Template) { q.Joins = nil }, "not connected"},
		{"pred outside FROM", func(q *Template) { q.Preds[0].Table = "part" }, "not in FROM"},
		{"pred unknown column", func(q *Template) { q.Preds[0].Column = "zzz" }, "unknown column"},
		{"duplicate param", func(q *Template) {
			q.Preds = append(q.Preds, Predicate{Table: "orders", Column: "o_orderdate", Op: LE, Param: 0})
		}, "two predicates"},
		{"sparse params", func(q *Template) { q.Preds[0].Param = 3 }, "not dense"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := base()
			tc.mutate(q)
			err := q.Validate()
			if err == nil {
				t.Fatalf("Validate() succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestDimensionsAndParamPredicates(t *testing.T) {
	tpl, _ := testTemplate(t)
	if d := tpl.Dimensions(); d != 2 {
		t.Fatalf("Dimensions() = %d, want 2", d)
	}
	pp := tpl.ParamPredicates()
	if len(pp) != 2 {
		t.Fatalf("ParamPredicates len = %d, want 2", len(pp))
	}
	if pp[0].Column != "l_shipdate" || pp[1].Column != "o_totalprice" {
		t.Errorf("ParamPredicates order wrong: %+v", pp)
	}
}

func TestNewInstanceArity(t *testing.T) {
	tpl, _ := testTemplate(t)
	if _, err := NewInstance(tpl, []float64{1}); err == nil {
		t.Error("NewInstance with 1 param should fail (needs 2)")
	}
	inst, err := NewInstance(tpl, []float64{100, 5000})
	if err != nil {
		t.Fatal(err)
	}
	// Params must be copied, not aliased.
	src := []float64{1, 2}
	inst2, _ := NewInstance(tpl, src)
	src[0] = 99
	if inst2.Params[0] == 99 {
		t.Error("NewInstance aliased caller slice")
	}
	_ = inst
}

func TestSVector(t *testing.T) {
	tpl, st := testTemplate(t)
	// Pick parameter values targeting known selectivities via inversion.
	v0, err := st.ValueForSelectivityLE("lineitem", "l_shipdate", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := st.ValueForSelectivityGE("orders", "o_totalprice", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(tpl, []float64{v0, v1})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := inst.SVector(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 2 {
		t.Fatalf("sVector len = %d, want 2", len(sv))
	}
	if math.Abs(sv[0]-0.3) > 0.05 {
		t.Errorf("sv[0] = %v, want ~0.3", sv[0])
	}
	if math.Abs(sv[1]-0.2) > 0.05 {
		t.Errorf("sv[1] = %v, want ~0.2", sv[1])
	}
}

func TestTableSelectivityCombinesPreds(t *testing.T) {
	tpl, st := testTemplate(t)
	sv := []float64{0.4, 0.5}
	selLI, err := tpl.TableSelectivity("lineitem", sv, st)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(selLI-0.4) > 1e-9 {
		t.Errorf("lineitem selectivity = %v, want 0.4", selLI)
	}
	selO, err := tpl.TableSelectivity("orders", sv, st)
	if err != nil {
		t.Fatal(err)
	}
	// orders has param 1 (0.5) AND the constant o_shippriority <= 2
	// predicate; combined must be strictly below 0.5.
	if selO >= 0.5 {
		t.Errorf("orders selectivity = %v, want < 0.5 (constant pred must contribute)", selO)
	}
	if selO <= 0 {
		t.Errorf("orders selectivity = %v, want > 0", selO)
	}
	// Table with no predicates: selectivity 1.
	selNone, err := tpl.TableSelectivity("part", sv, st)
	if err != nil {
		t.Fatal(err)
	}
	if selNone != 1 {
		t.Errorf("no-predicate table selectivity = %v, want 1", selNone)
	}
	// Short sVector must error.
	if _, err := tpl.TableSelectivity("orders", []float64{0.4}, st); err == nil {
		t.Error("short sVector should fail")
	}
}

func TestSQLRendering(t *testing.T) {
	tpl, _ := testTemplate(t)
	sql := tpl.SQL()
	for _, want := range []string{
		"FROM lineitem, orders",
		"lineitem.l_orderkey = orders.o_orderkey",
		"lineitem.l_shipdate <= ?0",
		"orders.o_totalprice >= ?1",
		"orders.o_shippriority <= 2",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL() = %q missing %q", sql, want)
		}
	}
	tpl.Agg = GroupBy
	if sql := tpl.SQL(); !strings.Contains(sql, "GROUP BY") {
		t.Errorf("GroupBy SQL missing GROUP BY: %q", sql)
	}
}

func TestCmpOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" {
		t.Errorf("CmpOp strings wrong: %q %q", LE.String(), GE.String())
	}
}

func TestSingleTableTemplate(t *testing.T) {
	cat := catalog.NewTPCH(0.05)
	tpl := &Template{
		Name:    "q_single",
		Catalog: cat,
		Tables:  []string{"lineitem"},
		Preds: []Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: LE, Param: 0},
			{Table: "lineitem", Column: "l_quantity", Op: GE, Param: 1},
		},
	}
	if err := tpl.Validate(); err != nil {
		t.Fatalf("single-table template should validate: %v", err)
	}
	if tpl.Dimensions() != 2 {
		t.Errorf("Dimensions = %d, want 2", tpl.Dimensions())
	}
}
