// Package suite constructs the benchmark query templates the experiments
// run on: 90 parameterized templates across the four databases of the
// paper's evaluation (TPC-H with skew, TPC-DS, RD1, RD2), with the workload
// properties of §7.1 — one-sided range predicates for fine-grained
// selectivity control, up to 10 parameters, and roughly one third of
// templates with d >= 4 (the RD2-like database supplies the d >= 5 ones).
package suite

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/query"
)

// Entry pairs a template with the system (catalog + stats + optimizer) it
// runs against.
type Entry struct {
	Tpl *query.Template
	Sys *engine.System
}

// Systems holds one engine.System per evaluation database.
type Systems struct {
	TPCH, TPCDS, RD1, RD2 *engine.System
}

// NewSystems builds the four systems. Scale factors are modest so that
// statistics construction stays fast; plan-space shape, not absolute size,
// is what the experiments depend on.
func NewSystems(seed int64) (*Systems, error) {
	tpch := engine.NewSystem(catalog.NewTPCH(0.1), seed)
	tpcds := engine.NewSystem(catalog.NewTPCDS(0.1), seed+1)
	rd1 := engine.NewSystem(catalog.NewRD1(), seed+2)
	rd2 := engine.NewSystem(catalog.NewRD2(), seed+3)
	return &Systems{TPCH: tpch, TPCDS: tpcds, RD1: rd1, RD2: rd2}, nil
}

// fk returns an equi-join edge whose selectivity is 1/distinct(key side),
// the standard foreign-key join estimate.
func fk(cat *catalog.Catalog, left, lcol, right, rcol string) query.Join {
	d := int64(1)
	if t := cat.Table(right); t != nil {
		if c := t.Column(rcol); c != nil {
			d = c.Distinct
		}
	}
	if d < 1 {
		d = 1
	}
	return query.Join{Left: left, Right: right, LeftCol: lcol, RightCol: rcol,
		Selectivity: 1.0 / float64(d)}
}

// paramSpec names a column carrying a parameterized one-sided range
// predicate.
type paramSpec struct {
	table, column string
	op            query.CmpOp
}

// build assembles one template. It does not validate it: every template
// reaches the engine through engine.NewTemplateEngine, which does, and
// TestSuiteTemplatesValidate checks the whole suite.
func build(sys *engine.System, name string, tables []string, joins []query.Join,
	params []paramSpec, agg query.Aggregation) Entry {

	tpl := &query.Template{
		Name:    name,
		Catalog: sys.Cat,
		Tables:  tables,
		Joins:   joins,
		Agg:     agg,
	}
	if agg == query.GroupBy {
		tpl.GroupCard = 100
	}
	for i, p := range params {
		tpl.Preds = append(tpl.Preds, query.Predicate{
			Table: p.table, Column: p.column, Op: p.op, Param: i,
		})
	}
	return Entry{Tpl: tpl, Sys: sys}
}

// Build returns the full 90-template suite. Assembling templates cannot
// fail, so the error is always nil; planbench and the experiments check it.
func Build(sys *Systems) ([]Entry, error) {
	var out []Entry
	add := func(e Entry) { out = append(out, e) }
	buildTPCH(sys.TPCH, add)
	buildTPCDS(sys.TPCDS, add)
	buildRD1(sys.RD1, add)
	buildRD2(sys.RD2, add)
	buildExtra(sys, add)
	return out, nil
}

type adder func(Entry)

func buildTPCH(sys *engine.System, add adder) {
	cat := sys.Cat
	liOrders := []string{"lineitem", "orders"}
	liOrdersJoin := []query.Join{fk(cat, "lineitem", "l_orderkey", "orders", "o_orderkey")}
	liOrdersCust := []string{"lineitem", "orders", "customer"}
	liOrdersCustJoin := append(append([]query.Join{}, liOrdersJoin...),
		fk(cat, "orders", "o_custkey", "customer", "c_custkey"))
	partLi := []string{"part", "lineitem"}
	partLiJoin := []query.Join{fk(cat, "lineitem", "l_partkey", "part", "p_partkey")}

	// d=2 family: scan/join crossovers in two dimensions.
	pairs := [][2]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"orders", "o_orderdate", query.LE}},
		{{"lineitem", "l_extendedprice", query.LE}, {"orders", "o_totalprice", query.GE}},
		{{"lineitem", "l_quantity", query.GE}, {"orders", "o_orderdate", query.GE}},
		{{"lineitem", "l_receiptdate", query.LE}, {"orders", "o_totalprice", query.LE}},
		{{"lineitem", "l_discount", query.GE}, {"orders", "o_orderdate", query.LE}},
		{{"lineitem", "l_shipdate", query.GE}, {"orders", "o_totalprice", query.GE}},
	}
	for i, p := range pairs {
		agg := query.NoAgg
		if i%3 == 2 {
			agg = query.GroupBy
		}
		add(build(sys, fmt.Sprintf("tpch_li_ord_%02d", i), liOrders, liOrdersJoin,
			p[:], agg))
	}
	// part–lineitem d=2.
	for i, p := range [][2]paramSpec{
		{{"part", "p_size", query.LE}, {"lineitem", "l_shipdate", query.LE}},
		{{"part", "p_retailprice", query.GE}, {"lineitem", "l_quantity", query.GE}},
		{{"part", "p_size", query.GE}, {"lineitem", "l_extendedprice", query.LE}},
	} {
		add(build(sys, fmt.Sprintf("tpch_part_li_%02d", i), partLi, partLiJoin,
			p[:], query.NoAgg))
	}
	// d=3 over three-way joins.
	triples := [][3]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"orders", "o_orderdate", query.LE}, {"customer", "c_acctbal", query.GE}},
		{{"lineitem", "l_quantity", query.GE}, {"orders", "o_totalprice", query.GE}, {"customer", "c_acctbal", query.LE}},
		{{"lineitem", "l_extendedprice", query.LE}, {"orders", "o_orderdate", query.GE}, {"customer", "c_nationkey", query.LE}},
		{{"lineitem", "l_receiptdate", query.GE}, {"orders", "o_totalprice", query.LE}, {"customer", "c_acctbal", query.GE}},
	}
	for i, p := range triples {
		agg := query.NoAgg
		if i%2 == 1 {
			agg = query.GroupBy
		}
		add(build(sys, fmt.Sprintf("tpch_3way_%02d", i), liOrdersCust, liOrdersCustJoin,
			p[:], agg))
	}
	// d=4: add supplier leg.
	liSupp := []string{"lineitem", "orders", "customer", "supplier"}
	liSuppJoin := append(append([]query.Join{}, liOrdersCustJoin...),
		fk(cat, "lineitem", "l_suppkey", "supplier", "s_suppkey"))
	quads := [][4]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"orders", "o_orderdate", query.LE},
			{"customer", "c_acctbal", query.GE}, {"supplier", "s_acctbal", query.GE}},
		{{"lineitem", "l_quantity", query.GE}, {"orders", "o_totalprice", query.LE},
			{"customer", "c_nationkey", query.LE}, {"supplier", "s_nationkey", query.LE}},
		{{"lineitem", "l_extendedprice", query.LE}, {"orders", "o_orderdate", query.GE},
			{"customer", "c_acctbal", query.LE}, {"supplier", "s_acctbal", query.LE}},
	}
	for i, p := range quads {
		add(build(sys, fmt.Sprintf("tpch_4way_%02d", i), liSupp, liSuppJoin,
			p[:], query.NoAgg))
	}
	// Single-table d=2 (cheap queries whose optimization overhead matters).
	for i, p := range [][2]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"lineitem", "l_quantity", query.GE}},
		{{"lineitem", "l_extendedprice", query.LE}, {"lineitem", "l_discount", query.GE}},
		{{"orders", "o_orderdate", query.LE}, {"orders", "o_totalprice", query.GE}},
		{{"part", "p_size", query.LE}, {"part", "p_retailprice", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpch_1t_%02d", i), []string{p[0].table}, nil,
			p[:], query.NoAgg))
	}
}

func buildTPCDS(sys *engine.System, add adder) {
	cat := sys.Cat
	ssDate := []string{"store_sales", "date_dim"}
	ssDateJoin := []query.Join{fk(cat, "store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk")}
	ssItemDate := []string{"store_sales", "date_dim", "item"}
	ssItemDateJoin := append(append([]query.Join{}, ssDateJoin...),
		fk(cat, "store_sales", "ss_item_sk", "item", "i_item_sk"))
	ssCustAddr := []string{"store_sales", "customer", "customer_address"}
	ssCustAddrJoin := []query.Join{
		fk(cat, "store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
		fk(cat, "customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
	}
	wsDate := []string{"web_sales", "date_dim"}
	wsDateJoin := []query.Join{fk(cat, "web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk")}

	for i, p := range [][2]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"date_dim", "d_year", query.LE}},
		{{"store_sales", "ss_quantity", query.GE}, {"date_dim", "d_year", query.GE}},
		{{"store_sales", "ss_net_profit", query.GE}, {"date_dim", "d_moy", query.LE}},
		{{"web_sales", "ws_sales_price", query.LE}, {"date_dim", "d_year", query.LE}},
		{{"web_sales", "ws_quantity", query.GE}, {"date_dim", "d_moy", query.GE}},
	} {
		tabs, joins := ssDate, ssDateJoin
		if p[0].table == "web_sales" {
			tabs, joins = wsDate, wsDateJoin
		}
		agg := query.NoAgg
		if i%2 == 1 {
			agg = query.GroupBy
		}
		add(build(sys, fmt.Sprintf("tpcds_sales_date_%02d", i), tabs, joins,
			p[:], agg))
	}
	for i, p := range [][3]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"date_dim", "d_year", query.LE}, {"item", "i_current_price", query.LE}},
		{{"store_sales", "ss_quantity", query.GE}, {"date_dim", "d_moy", query.LE}, {"item", "i_manufact_id", query.LE}},
		{{"store_sales", "ss_net_profit", query.GE}, {"date_dim", "d_year", query.GE}, {"item", "i_category_id", query.LE}},
		{{"store_sales", "ss_sales_price", query.GE}, {"date_dim", "d_moy", query.GE}, {"item", "i_current_price", query.GE}},
	} {
		agg := query.NoAgg
		if i%2 == 0 {
			agg = query.GroupBy
		}
		add(build(sys, fmt.Sprintf("tpcds_q18like_%02d", i), ssItemDate, ssItemDateJoin,
			p[:], agg))
	}
	for i, p := range [][3]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"customer", "c_birth_year", query.LE}, {"customer_address", "ca_gmt_offset", query.LE}},
		{{"store_sales", "ss_quantity", query.GE}, {"customer", "c_birth_year", query.GE}, {"customer_address", "ca_gmt_offset", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_cust_%02d", i), ssCustAddr, ssCustAddrJoin,
			p[:], query.NoAgg))
	}
	// d=4: store_sales + date + item + store.
	fourTabs := []string{"store_sales", "date_dim", "item", "store"}
	fourJoin := append(append([]query.Join{}, ssItemDateJoin...),
		fk(cat, "store_sales", "ss_store_sk", "store", "s_store_sk"))
	for i, p := range [][4]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"date_dim", "d_year", query.LE},
			{"item", "i_current_price", query.LE}, {"store", "s_number_employees", query.GE}},
		{{"store_sales", "ss_net_profit", query.GE}, {"date_dim", "d_moy", query.GE},
			{"item", "i_manufact_id", query.LE}, {"store", "s_number_employees", query.LE}},
		{{"store_sales", "ss_quantity", query.GE}, {"date_dim", "d_year", query.GE},
			{"item", "i_category_id", query.GE}, {"store", "s_number_employees", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_4way_%02d", i), fourTabs, fourJoin,
			p[:], query.NoAgg))
	}
	// Single-table d=3 on the wide fact table.
	for i, p := range [][3]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"store_sales", "ss_quantity", query.GE}, {"store_sales", "ss_net_profit", query.GE}},
		{{"web_sales", "ws_sales_price", query.LE}, {"web_sales", "ws_quantity", query.GE}, {"web_sales", "ws_sold_date_sk", query.LE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_1t_%02d", i), []string{p[0].table}, nil,
			p[:], query.NoAgg))
	}
}

func buildRD1(sys *engine.System, add adder) {
	cat := sys.Cat
	// Chained multi-join templates: accounts <- transactions <- merchants,
	// sessions <- events, devices <- sessions, mirroring multi-block
	// real-world statements with large optimization times.
	chains := []struct {
		name   string
		tables []string
		joins  []query.Join
		params []paramSpec
	}{
		{
			name:   "rd1_txn_acct",
			tables: []string{"transactions", "accounts"},
			joins:  []query.Join{fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id")},
			params: []paramSpec{
				{"transactions", "transactions_ts", query.LE},
				{"accounts", "accounts_score", query.GE},
			},
		},
		{
			name:   "rd1_txn_merch",
			tables: []string{"transactions", "merchants"},
			joins:  []query.Join{fk(cat, "transactions", "transactions_fk", "merchants", "merchants_id")},
			params: []paramSpec{
				{"transactions", "transactions_amount", query.LE},
				{"merchants", "merchants_score", query.LE},
			},
		},
		{
			name:   "rd1_evt_sess",
			tables: []string{"events", "sessions"},
			joins:  []query.Join{fk(cat, "events", "events_fk", "sessions", "sessions_id")},
			params: []paramSpec{
				{"events", "events_ts", query.GE},
				{"sessions", "sessions_amount", query.LE},
			},
		},
		{
			name:   "rd1_sess_dev",
			tables: []string{"sessions", "devices"},
			joins:  []query.Join{fk(cat, "sessions", "sessions_fk", "devices", "devices_id")},
			params: []paramSpec{
				{"sessions", "sessions_ts", query.LE},
				{"devices", "devices_score", query.GE},
			},
		},
		{
			name:   "rd1_txn_acct_geo",
			tables: []string{"transactions", "accounts", "geo"},
			joins: []query.Join{
				fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id"),
				fk(cat, "accounts", "accounts_fk", "geo", "geo_id"),
			},
			params: []paramSpec{
				{"transactions", "transactions_ts", query.LE},
				{"accounts", "accounts_amount", query.GE},
				{"geo", "geo_score", query.LE},
			},
		},
		{
			name:   "rd1_evt_sess_dev",
			tables: []string{"events", "sessions", "devices"},
			joins: []query.Join{
				fk(cat, "events", "events_fk", "sessions", "sessions_id"),
				fk(cat, "sessions", "sessions_fk", "devices", "devices_id"),
			},
			params: []paramSpec{
				{"events", "events_amount", query.LE},
				{"sessions", "sessions_score", query.GE},
				{"devices", "devices_ts", query.LE},
			},
		},
		{
			name:   "rd1_txn_acct_plan",
			tables: []string{"transactions", "accounts", "plans"},
			joins: []query.Join{
				fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id"),
				fk(cat, "accounts", "accounts_fk", "plans", "plans_id"),
			},
			params: []paramSpec{
				{"transactions", "transactions_amount", query.GE},
				{"accounts", "accounts_ts", query.LE},
				{"plans", "plans_score", query.GE},
			},
		},
	}
	for _, c := range chains {
		add(build(sys, c.name, c.tables, c.joins, c.params, query.NoAgg))
	}
	// Variants with 4 parameters (extra predicate on the fact side).
	fours := []struct {
		name   string
		tables []string
		joins  []query.Join
		params []paramSpec
	}{
		{
			name:   "rd1_4d_txn",
			tables: []string{"transactions", "accounts", "merchants"},
			joins: []query.Join{
				fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id"),
				fk(cat, "transactions", "transactions_id", "merchants", "merchants_id"),
			},
			params: []paramSpec{
				{"transactions", "transactions_ts", query.LE},
				{"transactions", "transactions_amount", query.GE},
				{"accounts", "accounts_score", query.GE},
				{"merchants", "merchants_amount", query.LE},
			},
		},
		{
			name:   "rd1_4d_evt",
			tables: []string{"events", "sessions", "devices"},
			joins: []query.Join{
				fk(cat, "events", "events_fk", "sessions", "sessions_id"),
				fk(cat, "sessions", "sessions_fk", "devices", "devices_id"),
			},
			params: []paramSpec{
				{"events", "events_ts", query.LE},
				{"events", "events_amount", query.GE},
				{"sessions", "sessions_score", query.LE},
				{"devices", "devices_amount", query.GE},
			},
		},
		{
			name:   "rd1_4d_sess",
			tables: []string{"sessions", "devices", "geo"},
			joins: []query.Join{
				fk(cat, "sessions", "sessions_fk", "devices", "devices_id"),
				fk(cat, "devices", "devices_fk", "geo", "geo_id"),
			},
			params: []paramSpec{
				{"sessions", "sessions_ts", query.LE},
				{"sessions", "sessions_amount", query.LE},
				{"devices", "devices_score", query.GE},
				{"geo", "geo_amount", query.GE},
			},
		},
	}
	for _, c := range fours {
		add(build(sys, c.name, c.tables, c.joins, c.params, query.NoAgg))
	}
	// Single-table templates.
	for i, p := range [][2]paramSpec{
		{{"transactions", "transactions_ts", query.LE}, {"transactions", "transactions_amount", query.GE}},
		{{"events", "events_ts", query.GE}, {"events", "events_amount", query.LE}},
		{{"accounts", "accounts_score", query.GE}, {"accounts", "accounts_amount", query.LE}},
	} {
		add(build(sys, fmt.Sprintf("rd1_1t_%02d", i), []string{p[0].table}, nil,
			p[:], query.NoAgg))
	}
}

func buildRD2(sys *engine.System, add adder) {
	cat := sys.Cat
	// High-dimensional templates: d = 5..10. The paper's RD2 queries are
	// multi-block statements over many relations with up to 10
	// parameterized predicates, so variant 0 joins the fact table with two
	// dimensions (predicates spread across all three relations — total
	// cost then has large selectivity-independent components, the regime
	// where the Recost-based cost check shines); variant 1 is a pure
	// fact-table template (every predicate moves the access-path cost).
	attr := func(i int) string { return fmt.Sprintf("f_attr%02d", i) }
	ops := []query.CmpOp{query.LE, query.GE}
	for d := 5; d <= 10; d++ {
		// Variant 0: facts ⋈ dimA ⋈ dimB with params on all three.
		dimA := fmt.Sprintf("dim%d", d%6)
		dimB := fmt.Sprintf("dim%d", (d+2)%6)
		params := []paramSpec{
			{dimA, dimA + "_attr", query.LE},
			{dimA, dimA + "_grade", query.GE},
			{dimB, dimB + "_grade", query.LE},
		}
		for i := 0; len(params) < d; i++ {
			params = append(params, paramSpec{"facts", attr((d + i*2) % 12), ops[i%2]})
		}
		joins := []query.Join{
			fk(cat, "facts", fmt.Sprintf("f_dim%d_fk", d%6), dimA, dimA+"_id"),
			fk(cat, "facts", fmt.Sprintf("f_dim%d_fk", (d+2)%6), dimB, dimB+"_id"),
		}
		add(build(sys, fmt.Sprintf("rd2_fact_d%d_0", d),
			[]string{"facts", dimA, dimB}, joins, params, query.NoAgg))
		// Variant 1: pure fact-table template.
		pure := make([]paramSpec, d)
		for i := 0; i < d; i++ {
			pure[i] = paramSpec{"facts", attr((i + 3) % 12), ops[(i+1)%2]}
		}
		add(build(sys, fmt.Sprintf("rd2_fact_d%d_1", d),
			[]string{"facts"}, nil, pure, query.NoAgg))
	}
	// Fact + dimension joins with d = 4..6.
	for di := 0; di < 6; di++ {
		dim := fmt.Sprintf("dim%d", di)
		d := 4 + di%3
		params := make([]paramSpec, 0, d)
		params = append(params,
			paramSpec{dim, dim + "_attr", query.LE},
			paramSpec{dim, dim + "_grade", query.GE},
		)
		for i := 0; len(params) < d; i++ {
			params = append(params, paramSpec{"facts", attr((di + i*2) % 12), ops[i%2]})
		}
		joins := []query.Join{fk(cat, "facts", fmt.Sprintf("f_dim%d_fk", di), dim, dim+"_id")}
		add(build(sys, fmt.Sprintf("rd2_join_d%d_%s", d, dim),
			[]string{"facts", dim}, joins, params, query.NoAgg))
	}
}
