package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/suite"
)

// costRecord is everything a template derives from statistics at a fixed
// set of vectors: the optimal plan and cost per vector, and the recost of
// every plan the first epoch chose at every vector. Costs are kept as raw
// bits so equality is exact.
type costRecord struct {
	opt    []string // "fingerprint cost-bits" per vector
	recost []uint64 // plan-major, vector-minor
}

// record derives tpl's record under the optimizer's current epoch through
// a fresh engine, so nothing the long-lived engine kept across advances
// can stand in for a computed cost. It also checks that the long-lived
// engine returns exactly the freshly computed costs: any per-engine state
// that missed a statistics change would serve the old cost here.
func record(t *testing.T, long *engine.TemplateEngine, svs [][]float64, plans []*engine.CachedPlan) costRecord {
	t.Helper()
	fresh, err := engine.NewTemplateEngine(long.Tpl, long.Opt)
	if err != nil {
		t.Fatal(err)
	}
	var r costRecord
	for _, sv := range svs {
		cp, c, err := fresh.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		r.opt = append(r.opt, fmt.Sprintf("%s %x", cp.Fingerprint(), math.Float64bits(c)))
	}
	for _, cp := range plans {
		for _, sv := range svs {
			c, err := fresh.Recost(cp, sv)
			if err != nil {
				t.Fatal(err)
			}
			got, err := long.Recost(cp, sv)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(c) {
				t.Fatalf("%s: long-lived recost %v, fresh recost %v at cost epoch %d: stale cost served",
					long.Tpl.Name, got, c, long.CostEpoch())
			}
			r.recost = append(r.recost, math.Float64bits(c))
		}
	}
	return r
}

func (r costRecord) equal(o costRecord) bool {
	return slices.Equal(r.opt, o.opt) && slices.Equal(r.recost, o.recost)
}

// randomDelta draws a fresh sample for one column, spread over (and a
// little beyond) the column's current value range.
func randomDelta(rng *rand.Rand, st *stats.Store, key string) stats.HistogramDelta {
	dot := strings.LastIndex(key, ".")
	table, column := key[:dot], key[dot+1:]
	h := st.Histogram(table, column)
	lo, hi := h.Min(), h.Max()
	span := hi - lo
	skew := 0.5 + 2*rng.Float64()
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = lo - 0.1*span + 1.2*span*math.Pow(rng.Float64(), skew)
	}
	return stats.HistogramDelta{Table: table, Column: column, Values: vals}
}

// TestCostEpochSoundness is the differential check behind cost epochs.
// Over the suite's TPC-H templates plus a constant-predicate
// lineitem⋈orders template, it advances the statistics through seeded
// random histogram deltas and one full resample, and after every advance
// verifies:
//
//   - a template whose footprint no advance column touched keeps its cost
//     epoch, and its optimal plans, optimal costs and recosts are
//     bit-identical to the previous epoch's;
//   - a template whose footprint column changed has the new epoch id as
//     its cost epoch;
//   - the resample moves exactly the templates with a footprint;
//   - the long-lived engines never return a recost that a fresh
//     computation under the current statistics disagrees with.
func TestCostEpochSoundness(t *testing.T) {
	systems, err := suite.NewSystems(5)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	sys := systems.TPCH
	var tpls []*query.Template
	for _, e := range entries {
		if e.Sys == sys {
			tpls = append(tpls, e.Tpl)
		}
	}
	constTpl := &query.Template{
		Name:    "li_ord_const",
		Catalog: sys.Cat,
		Tables:  []string{"lineitem", "orders"},
		Joins: []query.Join{{Left: "lineitem", Right: "orders",
			LeftCol: "l_orderkey", RightCol: "o_orderkey", Selectivity: 1.0 / 150_000}},
		Preds: []query.Predicate{
			{Table: "lineitem", Column: "l_shipdate", Op: query.LE, Param: 0},
			{Table: "lineitem", Column: "l_quantity", Op: query.LE, Param: 1},
			{Table: "orders", Column: "o_orderdate", Op: query.LE, Param: -1, Value: 300},
		},
	}
	tpls = append(tpls, constTpl)
	if len(tpls) < 10 {
		t.Fatalf("only %d TPC-H templates", len(tpls))
	}

	rng := rand.New(rand.NewSource(11))
	type tplState struct {
		eng   *engine.TemplateEngine
		svs   [][]float64
		plans []*engine.CachedPlan
		fp    map[string]bool
		rec   costRecord
		ce    uint64
	}
	states := make([]*tplState, len(tpls))
	for i, tpl := range tpls {
		eng, err := sys.EngineFor(tpl)
		if err != nil {
			t.Fatal(err)
		}
		st := &tplState{eng: eng, fp: map[string]bool{}}
		for _, k := range tpl.Footprint() {
			st.fp[k] = true
		}
		seen := map[string]bool{}
		for v := 0; v < 4; v++ {
			sv := make([]float64, eng.Dimensions())
			for d := range sv {
				sv[d] = math.Pow(10, -3*rng.Float64())
			}
			st.svs = append(st.svs, sv)
			cp, _, err := eng.Optimize(sv)
			if err != nil {
				t.Fatal(err)
			}
			if !seen[cp.Fingerprint()] {
				seen[cp.Fingerprint()] = true
				st.plans = append(st.plans, cp)
			}
		}
		st.rec = record(t, eng, st.svs, st.plans)
		st.ce = eng.CostEpoch()
		if st.ce != 1 {
			t.Fatalf("%s: initial cost epoch %d, want 1", tpl.Name, st.ce)
		}
		states[i] = st
	}

	cols := sys.Stats.Columns()
	const steps = 8
	resampleAt := 3 + rng.Intn(steps-4)
	constState := states[len(states)-1]
	var constBumped, constKept int
	for step := 0; step < steps; step++ {
		changed := map[string]bool{}
		var next *stats.Store
		if step == resampleAt {
			next, err = sys.ResampleStats(int64(100 + step))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range cols {
				changed[k] = true
			}
		} else {
			var deltas []stats.HistogramDelta
			for n := 1 + rng.Intn(2); n > 0; n-- {
				k := cols[rng.Intn(len(cols))]
				if rng.Intn(3) == 0 {
					k = "orders.o_orderdate" // the constant template's footprint
				}
				changed[k] = true
				deltas = append(deltas, randomDelta(rng, sys.Stats, k))
			}
			next, err = sys.Stats.Apply(deltas)
			if err != nil {
				t.Fatal(err)
			}
		}
		ep := sys.AdvanceEpoch(next)
		for _, st := range states {
			touched := false
			for k := range st.fp {
				touched = touched || changed[k]
			}
			if step == resampleAt && touched != (len(st.fp) > 0) {
				t.Fatalf("resample: %s touched = %v with footprint %v", st.eng.Tpl.Name, touched, st.fp)
			}
			ce := st.eng.CostEpoch()
			rec := record(t, st.eng, st.svs, st.plans)
			switch {
			case touched && ce != ep.ID:
				t.Errorf("epoch %d changed %v: %s cost epoch = %d, want %d",
					ep.ID, changed, st.eng.Tpl.Name, ce, ep.ID)
			case !touched && ce != st.ce:
				t.Errorf("epoch %d changed %v: %s cost epoch moved %d -> %d without a footprint change",
					ep.ID, changed, st.eng.Tpl.Name, st.ce, ce)
			case !touched && !rec.equal(st.rec):
				t.Errorf("epoch %d: %s kept cost epoch %d but its plans or costs changed",
					ep.ID, st.eng.Tpl.Name, ce)
			}
			if st == constState {
				if touched {
					constBumped++
				} else {
					constKept++
				}
			}
			st.rec, st.ce = rec, ce
		}
	}
	// The run must exercise both outcomes for the constant template.
	if constBumped < 2 || constKept < 1 {
		t.Fatalf("constant template bumped %d and kept %d times; the seed no longer exercises both outcomes",
			constBumped, constKept)
	}
}
