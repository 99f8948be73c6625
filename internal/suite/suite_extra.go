package suite

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/query"
)

// buildExtra contributes the remaining template families that bring the
// suite to the paper's 90 templates: deeper joins (5-way TPC-H with d=5),
// additional TPC-DS web_sales shapes, RD1 4-way chains with d=5, and RD2
// two-dimension joins.
func buildExtra(sys *Systems, add adder) {
	buildTPCHExtra(sys.TPCH, add)
	buildTPCDSExtra(sys.TPCDS, add)
	buildRD1Extra(sys.RD1, add)
	buildRD2Extra(sys.RD2, add)
}

func buildTPCHExtra(sys *engine.System, add adder) {
	cat := sys.Cat
	// 5-way join lineitem-orders-customer-supplier-part with d=5.
	tabs := []string{"lineitem", "orders", "customer", "supplier", "part"}
	joins := []query.Join{
		fk(cat, "lineitem", "l_orderkey", "orders", "o_orderkey"),
		fk(cat, "orders", "o_custkey", "customer", "c_custkey"),
		fk(cat, "lineitem", "l_suppkey", "supplier", "s_suppkey"),
		fk(cat, "lineitem", "l_partkey", "part", "p_partkey"),
	}
	fives := [][5]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"orders", "o_orderdate", query.LE},
			{"customer", "c_acctbal", query.GE}, {"supplier", "s_acctbal", query.GE},
			{"part", "p_size", query.LE}},
		{{"lineitem", "l_quantity", query.GE}, {"orders", "o_totalprice", query.LE},
			{"customer", "c_nationkey", query.LE}, {"supplier", "s_nationkey", query.GE},
			{"part", "p_retailprice", query.GE}},
		{{"lineitem", "l_extendedprice", query.LE}, {"orders", "o_orderdate", query.GE},
			{"customer", "c_acctbal", query.LE}, {"supplier", "s_acctbal", query.LE},
			{"part", "p_size", query.GE}},
	}
	for i, p := range fives {
		add(build(sys, fmt.Sprintf("tpch_5way_%02d", i), tabs, joins,
			p[:], query.NoAgg))
	}
	// customer-orders d=2 (smaller join, distinct cost regime).
	coTabs := []string{"customer", "orders"}
	coJoins := []query.Join{fk(cat, "orders", "o_custkey", "customer", "c_custkey")}
	for i, p := range [][2]paramSpec{
		{{"customer", "c_acctbal", query.GE}, {"orders", "o_totalprice", query.LE}},
		{{"customer", "c_nationkey", query.LE}, {"orders", "o_orderdate", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpch_cust_ord_%02d", i), coTabs, coJoins,
			p[:], query.NoAgg))
	}
	// 3-dimension single-table on lineitem.
	for i, p := range [][3]paramSpec{
		{{"lineitem", "l_shipdate", query.LE}, {"lineitem", "l_quantity", query.GE},
			{"lineitem", "l_extendedprice", query.LE}},
		{{"lineitem", "l_receiptdate", query.GE}, {"lineitem", "l_discount", query.GE},
			{"lineitem", "l_extendedprice", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpch_1t3d_%02d", i), []string{"lineitem"}, nil,
			p[:], query.NoAgg))
	}
}

func buildTPCDSExtra(sys *engine.System, add adder) {
	cat := sys.Cat
	// web_sales + item via a cross-catalog join on item keys.
	wsItem := []string{"web_sales", "item"}
	wsItemJoin := []query.Join{fk(cat, "web_sales", "ws_item_sk", "item", "i_item_sk")}
	for i, p := range [][3]paramSpec{
		{{"web_sales", "ws_sales_price", query.LE}, {"web_sales", "ws_quantity", query.GE},
			{"item", "i_current_price", query.LE}},
		{{"web_sales", "ws_sold_date_sk", query.LE}, {"web_sales", "ws_sales_price", query.GE},
			{"item", "i_manufact_id", query.LE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_ws_item_%02d", i), wsItem, wsItemJoin,
			p[:], query.NoAgg))
	}
	// 5-way star: store_sales with four dimensions, d=5.
	starTabs := []string{"store_sales", "date_dim", "item", "store", "customer"}
	starJoins := []query.Join{
		fk(cat, "store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
		fk(cat, "store_sales", "ss_item_sk", "item", "i_item_sk"),
		fk(cat, "store_sales", "ss_store_sk", "store", "s_store_sk"),
		fk(cat, "store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
	}
	for i, p := range [][5]paramSpec{
		{{"store_sales", "ss_sales_price", query.LE}, {"date_dim", "d_year", query.LE},
			{"item", "i_current_price", query.LE}, {"store", "s_number_employees", query.GE},
			{"customer", "c_birth_year", query.LE}},
		{{"store_sales", "ss_net_profit", query.GE}, {"date_dim", "d_moy", query.GE},
			{"item", "i_manufact_id", query.LE}, {"store", "s_number_employees", query.LE},
			{"customer", "c_birth_year", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_star5_%02d", i), starTabs, starJoins,
			p[:], query.NoAgg))
	}
	// GroupBy variants over sales+date.
	ssDate := []string{"store_sales", "date_dim"}
	ssDateJoin := []query.Join{fk(cat, "store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk")}
	for i, p := range [][2]paramSpec{
		{{"store_sales", "ss_net_profit", query.LE}, {"date_dim", "d_year", query.GE}},
		{{"store_sales", "ss_sales_price", query.GE}, {"date_dim", "d_moy", query.LE}},
	} {
		add(build(sys, fmt.Sprintf("tpcds_agg_%02d", i), ssDate, ssDateJoin,
			p[:], query.GroupBy))
	}
}

func buildRD1Extra(sys *engine.System, add adder) {
	cat := sys.Cat
	// 4-way chains with d=5 — the multi-block real-world statements whose
	// optimization time dominates.
	fours := []struct {
		name   string
		tables []string
		joins  []query.Join
		params []paramSpec
	}{
		{
			name:   "rd1_5d_txn_chain",
			tables: []string{"transactions", "accounts", "geo", "plans"},
			joins: []query.Join{
				fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id"),
				fk(cat, "accounts", "accounts_fk", "geo", "geo_id"),
				fk(cat, "geo", "geo_fk", "plans", "plans_id"),
			},
			params: []paramSpec{
				{"transactions", "transactions_ts", query.LE},
				{"transactions", "transactions_amount", query.GE},
				{"accounts", "accounts_score", query.GE},
				{"geo", "geo_amount", query.LE},
				{"plans", "plans_score", query.LE},
			},
		},
		{
			name:   "rd1_5d_evt_chain",
			tables: []string{"events", "sessions", "devices", "geo"},
			joins: []query.Join{
				fk(cat, "events", "events_fk", "sessions", "sessions_id"),
				fk(cat, "sessions", "sessions_fk", "devices", "devices_id"),
				fk(cat, "devices", "devices_fk", "geo", "geo_id"),
			},
			params: []paramSpec{
				{"events", "events_ts", query.GE},
				{"events", "events_amount", query.LE},
				{"sessions", "sessions_score", query.LE},
				{"devices", "devices_amount", query.GE},
				{"geo", "geo_score", query.GE},
			},
		},
	}
	for _, c := range fours {
		add(build(sys, c.name, c.tables, c.joins, c.params, query.NoAgg))
	}
	// 3-dimension single-table on the two largest facts.
	for i, p := range [][3]paramSpec{
		{{"events", "events_ts", query.LE}, {"events", "events_amount", query.GE},
			{"events", "events_score", query.LE}},
		{{"transactions", "transactions_ts", query.GE}, {"transactions", "transactions_amount", query.LE},
			{"transactions", "transactions_score", query.GE}},
	} {
		add(build(sys, fmt.Sprintf("rd1_1t3d_%02d", i), []string{p[0].table}, nil,
			p[:], query.NoAgg))
	}
	// GroupBy variants.
	for i, p := range [][2]paramSpec{
		{{"transactions", "transactions_ts", query.LE}, {"accounts", "accounts_score", query.LE}},
		{{"events", "events_amount", query.GE}, {"sessions", "sessions_ts", query.GE}},
	} {
		tables := []string{p[0].table, p[1].table}
		var joins []query.Join
		if p[0].table == "transactions" {
			joins = []query.Join{fk(cat, "transactions", "transactions_fk", "accounts", "accounts_id")}
		} else {
			joins = []query.Join{fk(cat, "events", "events_fk", "sessions", "sessions_id")}
		}
		add(build(sys, fmt.Sprintf("rd1_agg_%02d", i), tables, joins,
			p[:], query.GroupBy))
	}
}

func buildRD2Extra(sys *engine.System, add adder) {
	cat := sys.Cat
	attr := func(i int) string { return fmt.Sprintf("f_attr%02d", i) }
	// Fact + two dimensions with d = 6..7.
	for v := 0; v < 3; v++ {
		dimA := fmt.Sprintf("dim%d", v)
		dimB := fmt.Sprintf("dim%d", (v+3)%6)
		d := 6 + v%2
		params := []paramSpec{
			{dimA, dimA + "_attr", query.LE},
			{dimA, dimA + "_grade", query.GE},
			{dimB, dimB + "_attr", query.GE},
			{dimB, dimB + "_grade", query.LE},
		}
		ops := []query.CmpOp{query.LE, query.GE}
		for i := 0; len(params) < d; i++ {
			params = append(params, paramSpec{"facts", attr((v*4 + i*3) % 12), ops[i%2]})
		}
		joins := []query.Join{
			fk(cat, "facts", fmt.Sprintf("f_dim%d_fk", v), dimA, dimA+"_id"),
			fk(cat, "facts", fmt.Sprintf("f_dim%d_fk", (v+3)%6), dimB, dimB+"_id"),
		}
		add(build(sys, fmt.Sprintf("rd2_2dim_d%d_%d", d, v),
			[]string{"facts", dimA, dimB}, joins, params, query.NoAgg))
	}
	// Additional pure-fact variant at d=4 (bridging the dimension bands);
	// one variant keeps the suite at exactly the paper's 90 templates.
	ops := []query.CmpOp{query.GE, query.LE}
	for v := 0; v < 1; v++ {
		params := make([]paramSpec, 4)
		for i := range params {
			params[i] = paramSpec{"facts", attr((v*5 + i*2 + 1) % 12), ops[(i+v)%2]}
		}
		add(build(sys, fmt.Sprintf("rd2_fact_d4_%d", v),
			[]string{"facts"}, nil, params, query.NoAgg))
	}
}
