package memo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file is the differential/property suite for the optimizer rewrite:
// the flat-array search must return bit-identical plans and costs to
// oracleOptimize — a frozen copy of the original map-based, BFS-checked
// search — across randomly generated templates (2–7 tables) and fuzzed
// selectivity vectors, and Recost(winner) must reproduce the winning cost.
// Small templates are additionally cross-checked against the exhaustive
// plan enumeration of bruteforce_test.go.

// oracleOptimize is the seed implementation of Optimize, kept verbatim
// (minus the accounting counters) as the reference the rewritten search is
// differenced against. Do not "improve" it: its value is that it computes
// costs with the original map-of-groups + per-mask-BFS structure.
func oracleOptimize(o *Optimizer, tpl *query.Template, sv []float64) (*plan.Plan, float64, error) {
	env, err := NewEnv(tpl, sv, o.StatsStore())
	if err != nil {
		return nil, 0, err
	}
	n := len(tpl.Tables)
	if n > 20 {
		return nil, 0, fmt.Errorf("memo: template %s joins %d tables; limit is 20", tpl.Name, n)
	}
	tableIdx := make(map[string]int, n)
	for i, t := range tpl.Tables {
		tableIdx[t] = i
	}
	adj := make([]uint32, n)
	type edge struct {
		a, b       int
		aCol, bCol string
		sel        float64
	}
	edges := make([]edge, 0, len(tpl.Joins))
	for _, j := range tpl.Joins {
		a, b := tableIdx[j.Left], tableIdx[j.Right]
		adj[a] |= 1 << uint(b)
		adj[b] |= 1 << uint(a)
		edges = append(edges, edge{a: a, b: b, aCol: j.LeftCol, bCol: j.RightCol, sel: j.Selectivity})
	}

	type oCand struct {
		node     *plan.Node
		cst      float64
		card     float64
		rowBytes int
		order    string
	}
	type oGroup struct{ winners []oCand }
	best := func(g *oGroup) *oCand {
		var out *oCand
		for i := range g.winners {
			if out == nil || g.winners[i].cst < out.cst {
				out = &g.winners[i]
			}
		}
		return out
	}
	offer := func(g *oGroup, c oCand) {
		for i := range g.winners {
			if g.winners[i].order == c.order {
				if c.cst < g.winners[i].cst {
					g.winners[i] = c
				}
				return
			}
		}
		g.winners = append(g.winners, c)
	}

	groups := make(map[uint32]*oGroup, 1<<uint(n))
	for i, tname := range tpl.Tables {
		t := o.Cat.Table(tname)
		g := &oGroup{}
		tsel := env.TableSel(tname)
		card := float64(t.Rows) * tsel
		nPreds := env.NumPredsOn(tname)

		scanCost := o.Model.TableScanCost(t) + o.Model.FilterCost(float64(t.Rows), nPreds)
		offer(g, oCand{
			node:     &plan.Node{Op: plan.TableScan, Table: tname, ResidualPreds: nPreds},
			cst:      scanCost,
			card:     card,
			rowBytes: t.RowBytes,
		})

		for _, ix := range t.Indexes {
			ixSel, hasPred := env.PredSelOn(tname, ix.Column)
			if !hasPred {
				if !ix.Clustered {
					continue
				}
				ixSel = 1
			}
			matched := float64(t.Rows) * ixSel
			cst := o.Model.IndexScanCost(t, ix.Clustered, ixSel)
			residual := nPreds
			if hasPred {
				residual--
			}
			cst += o.Model.FilterCost(matched, residual)
			offer(g, oCand{
				node: &plan.Node{
					Op: plan.IndexScan, Table: tname, Index: ix.Name,
					IndexColumn: ix.Column, Clustered: ix.Clustered,
					ResidualPreds: residual,
				},
				cst:      cst,
				card:     card,
				rowBytes: t.RowBytes,
				order:    tname + "." + ix.Column,
			})
		}
		groups[1<<uint(i)] = g
	}

	crossInfo := func(lm, rm uint32) (sel float64, lCol, rCol string, ok bool) {
		sel = 1
		for _, e := range edges {
			la, ra := uint32(1)<<uint(e.a), uint32(1)<<uint(e.b)
			switch {
			case lm&la != 0 && rm&ra != 0:
				sel *= e.sel
				if !ok {
					lCol = tpl.Tables[e.a] + "." + e.aCol
					rCol = tpl.Tables[e.b] + "." + e.bCol
				}
				ok = true
			case lm&ra != 0 && rm&la != 0:
				sel *= e.sel
				if !ok {
					lCol = tpl.Tables[e.b] + "." + e.bCol
					rCol = tpl.Tables[e.a] + "." + e.aCol
				}
				ok = true
			}
		}
		return sel, lCol, rCol, ok
	}

	oraclePopcount := func(x uint32) int {
		count := 0
		for x != 0 {
			x &= x - 1
			count++
		}
		return count
	}
	oracleTZ := func(x uint32) int {
		n := 0
		for x&1 == 0 {
			x >>= 1
			n++
		}
		return n
	}
	connected := func(mask uint32) bool {
		if mask == 0 {
			return false
		}
		start := mask & (^mask + 1)
		seen := start
		frontier := start
		for frontier != 0 {
			next := uint32(0)
			for f := frontier; f != 0; {
				i := oracleTZ(f)
				f &^= 1 << uint(i)
				next |= adj[i] & mask &^ seen
			}
			seen |= next
			frontier = next
		}
		return seen == mask
	}

	full := uint32(1)<<uint(n) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if mask&full != mask || oraclePopcount(mask) < 2 || !connected(mask) {
			continue
		}
		g := &oGroup{}
		for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
			rest := mask ^ sub
			lg, rg := groups[sub], groups[rest]
			if lg == nil || rg == nil {
				continue
			}
			jsel, lCol, rCol, ok := crossInfo(sub, rest)
			if !ok {
				continue
			}
			l, r := best(lg), best(rg)
			if l == nil || r == nil {
				continue
			}
			outCard := l.card * r.card * jsel
			outBytes := l.rowBytes + r.rowBytes

			hjCost := l.cst + r.cst + o.Model.HashJoinCost(l.card, r.card, r.rowBytes)
			offer(g, oCand{
				node: &plan.Node{Op: plan.HashJoin, JoinCol: lCol, RightJoinCol: rCol, JoinSel: jsel,
					Children: []*plan.Node{l.node, r.node}},
				cst: hjCost, card: outCard, rowBytes: outBytes,
			})
			nlCost := l.cst + r.cst + o.Model.NLJoinCost(l.card, r.card)
			offer(g, oCand{
				node: &plan.Node{Op: plan.NLJoin, JoinCol: lCol, RightJoinCol: rCol, JoinSel: jsel,
					Children: []*plan.Node{l.node, r.node}},
				cst: nlCost, card: outCard, rowBytes: outBytes,
			})

			for _, lc := range lg.winners {
				for _, rc := range rg.winners {
					lSorted := lc.order != "" && lc.order == lCol
					rSorted := rc.order != "" && rc.order == rCol
					if (lc.cst > l.cst && !lSorted) || (rc.cst > r.cst && !rSorted) {
						continue
					}
					mjCost := lc.cst + rc.cst + o.Model.MergeJoinCost(lc.card, rc.card, lSorted, rSorted)
					offer(g, oCand{
						node: &plan.Node{Op: plan.MergeJoin, JoinCol: lCol, RightJoinCol: rCol, JoinSel: jsel,
							Children: []*plan.Node{lc.node, rc.node}},
						cst: mjCost, card: outCard, rowBytes: outBytes,
					})
				}
			}
		}
		if len(g.winners) > 0 {
			groups[mask] = g
		}
	}

	top := groups[full]
	if top == nil {
		return nil, 0, fmt.Errorf("memo: no plan found for template %s", tpl.Name)
	}
	bestCand := best(top)
	root := bestCand.node
	total := bestCand.cst

	if tpl.Agg == query.GroupBy {
		inCard := bestCand.card
		hashCost := total + o.Model.HashAggCost(inCard)
		streamCost := total + o.Model.StreamAggCost(inCard)
		if hashCost <= streamCost {
			root = &plan.Node{Op: plan.HashAgg, Children: []*plan.Node{root}}
			total = hashCost
		} else {
			root = &plan.Node{Op: plan.StreamAgg, Children: []*plan.Node{root}}
			total = streamCost
		}
	}
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		return nil, 0, fmt.Errorf("memo: degenerate plan cost %v for template %s", total, tpl.Name)
	}
	return plan.New(tpl.Name, root), total, nil
}

// fuzzSystem is one catalog with its statistics and optimizer, shared by
// every random template generated over it.
type fuzzSystem struct {
	cat *catalog.Catalog
	st  *stats.Store
	opt *Optimizer
}

func newFuzzSystem(t *testing.T, cat *catalog.Catalog) *fuzzSystem {
	t.Helper()
	st := stats.Build(cat, datagen.New(cat, 42))
	return &fuzzSystem{cat: cat, st: st, opt: NewOptimizer(cat, cost.DefaultModel(), st)}
}

// randomTemplate generates a Validate-clean template over n random tables
// of the system's catalog: a random spanning tree of join edges (plus
// occasional extra edges), and 1–2 parameterized predicates per table on
// distinct columns with dense parameter ordinals.
func randomTemplate(t *testing.T, rng *rand.Rand, fs *fuzzSystem, n int, name string) *query.Template {
	t.Helper()
	all := fs.cat.Tables()
	if n > len(all) {
		t.Fatalf("catalog %s has %d tables, need %d", fs.cat.Name, len(all), n)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	picked := all[:n]

	tpl := &query.Template{Name: name, Catalog: fs.cat}
	for _, tab := range picked {
		tpl.Tables = append(tpl.Tables, tab.Name)
	}
	randCol := func(tab *catalog.Table) string {
		return tab.Columns[rng.Intn(len(tab.Columns))].Name
	}
	// Spanning tree: join each table to a random earlier one.
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		tpl.Joins = append(tpl.Joins, query.Join{
			Left: picked[j].Name, LeftCol: randCol(picked[j]),
			Right: picked[i].Name, RightCol: randCol(picked[i]),
			Selectivity: math.Pow(10, -1-5*rng.Float64()),
		})
	}
	// Occasionally densify the join graph beyond a tree.
	for e := rng.Intn(2); e > 0 && n >= 3; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		tpl.Joins = append(tpl.Joins, query.Join{
			Left: picked[a].Name, LeftCol: randCol(picked[a]),
			Right: picked[b].Name, RightCol: randCol(picked[b]),
			Selectivity: math.Pow(10, -1-3*rng.Float64()),
		})
	}
	// Predicates: distinct columns per table, dense parameter ordinals.
	param := 0
	for _, tab := range picked {
		cols := rng.Perm(len(tab.Columns))
		nPreds := 1 + rng.Intn(2)
		if nPreds > len(cols) {
			nPreds = len(cols)
		}
		for k := 0; k < nPreds; k++ {
			op := query.LE
			if rng.Intn(2) == 1 {
				op = query.GE
			}
			tpl.Preds = append(tpl.Preds, query.Predicate{
				Table: tab.Name, Column: tab.Columns[cols[k]].Name, Op: op, Param: param,
			})
			param++
		}
	}
	if err := tpl.Validate(); err != nil {
		t.Fatalf("random template invalid: %v\n%+v", err, tpl)
	}
	return tpl
}

func randomSV(rng *rand.Rand, d int) []float64 {
	sv := make([]float64, d)
	for i := range sv {
		// Mix uniform and log-uniform draws so both extremes and the bulk
		// of the selectivity space are probed.
		if rng.Intn(2) == 0 {
			sv[i] = rng.Float64()
		} else {
			sv[i] = math.Pow(10, -4*rng.Float64())
		}
	}
	return sv
}

// TestDifferentialRandomTemplates is the central property test: for random
// templates of 2–7 tables and random selectivity vectors, the rewritten
// search and the frozen oracle must produce the same plan (by fingerprint)
// with the same float64 cost, and recosting the winner — through the plan
// tree walk and through a fresh shrunken memo — must reproduce it exactly.
func TestDifferentialRandomTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(20240206))
	tpch := newFuzzSystem(t, catalog.NewTPCH(0.05))
	tpcds := newFuzzSystem(t, catalog.NewTPCDS(0.05))

	cases := 0
	for iter := 0; iter < 40; iter++ {
		n := 2 + rng.Intn(6) // 2..7 tables
		fs := tpch
		if n == 7 || rng.Intn(2) == 1 {
			fs = tpcds // TPCH has only 6 tables; TPCDS carries the 7-way joins
		}
		tpl := randomTemplate(t, rng, fs, n, fmt.Sprintf("fuzz-%d", iter))
		if iter%4 == 0 {
			tpl.Agg = query.GroupBy
			tpl.GroupCard = float64(1 + rng.Intn(10_000))
		}
		for probe := 0; probe < 5; probe++ {
			sv := randomSV(rng, tpl.Dimensions())
			newPlan, newCost, err := fs.opt.Optimize(tpl, sv)
			if err != nil {
				t.Fatalf("tpl %s sv %v: %v", tpl.Name, sv, err)
			}
			oraPlan, oraCost, err := oracleOptimize(fs.opt, tpl, sv)
			if err != nil {
				t.Fatalf("oracle tpl %s sv %v: %v", tpl.Name, sv, err)
			}
			if newCost != oraCost {
				t.Fatalf("tpl %s (%d tables) sv %v: cost %v != oracle %v (Δ %g)",
					tpl.Name, n, sv, newCost, oraCost, newCost-oraCost)
			}
			if newPlan.Fingerprint() != oraPlan.Fingerprint() {
				t.Fatalf("tpl %s sv %v: plan %s != oracle %s",
					tpl.Name, sv, newPlan.Fingerprint(), oraPlan.Fingerprint())
			}
			rc, err := fs.opt.Recost(newPlan, tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			if rc != newCost {
				t.Fatalf("tpl %s sv %v: Recost(winner) %v != winner cost %v", tpl.Name, sv, rc, newCost)
			}
			sm, err := NewShrunkenMemo(fs.opt, newPlan, tpl)
			if err != nil {
				t.Fatal(err)
			}
			smc, err := sm.Recost(fs.opt, sv)
			if err != nil {
				t.Fatal(err)
			}
			if smc != newCost {
				t.Fatalf("tpl %s sv %v: ShrunkenMemo recost %v != winner cost %v", tpl.Name, sv, smc, newCost)
			}
			cases++
		}
	}
	t.Logf("differential cases checked: %d", cases)
}

// TestDifferentialBruteForceSmall re-checks small random templates against
// the exhaustive plan enumeration: the DP winner must not be worse than the
// best recost over every physical plan in the space.
func TestDifferentialBruteForceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration is slow")
	}
	rng := rand.New(rand.NewSource(7))
	fs := newFuzzSystem(t, catalog.NewTPCH(0.05))
	for iter := 0; iter < 6; iter++ {
		n := 2 + rng.Intn(3) // 2..4 tables: enumeration stays tractable
		tpl := randomTemplate(t, rng, fs, n, fmt.Sprintf("bf-%d", iter))
		all := enumerateAllPlans(t, tpl, fs.opt)
		for probe := 0; probe < 3; probe++ {
			sv := randomSV(rng, tpl.Dimensions())
			_, winnerCost, err := fs.opt.Optimize(tpl, sv)
			if err != nil {
				t.Fatal(err)
			}
			bestBF := math.Inf(1)
			for _, p := range all {
				c, err := fs.opt.Recost(p, tpl, sv)
				if err != nil {
					t.Fatal(err)
				}
				if c < bestBF {
					bestBF = c
				}
			}
			if winnerCost > bestBF*(1+1e-9) {
				t.Errorf("tpl %s sv %v: DP winner %v worse than brute force %v", tpl.Name, sv, winnerCost, bestBF)
			}
		}
	}
}
