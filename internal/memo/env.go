// Package memo implements a memo-based (Cascades-style) cost-based query
// optimizer over the join-graph query language of package query, together
// with the two engine APIs the paper requires (§4.2): selectivity-vector
// computation (via package stats) and an efficient Recost API backed by a
// ShrunkenMemo — a pruned, cacheable representation of the winning plan that
// supports re-deriving cardinalities and costs bottom-up without plan search.
package memo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/stats"
)

// tplMeta is the immutable per-template structure shared by every Env,
// Optimize and ShrunkenMemo over one template: table indexing, predicate
// placement, join edges as bitmasks, and the catalog-derived leaf data
// (rows, indexes, order keys). Computing it once per template — instead of
// rebuilding maps inside every Env — is what makes pooled environments
// allocation-free to reset. Templates are immutable after Validate, and
// every template names its own catalog, so meta is cached per template
// pointer by the Optimizer that prepares it (Optimizer.metaFor) and lives
// exactly as long as that optimizer: once a system is discarded, its
// templates, catalogs and metadata are garbage.
type tplMeta struct {
	tables   []metaTable
	tableIdx map[string]int
	edges    []metaEdge
	dims     int
	// footprint is the template's statistics footprint (Template.Footprint).
	footprint []string
}

// metaTable is the per-table slice of a template's metadata.
type metaTable struct {
	name string
	// tab is the catalog entry; nil when the template references a table
	// the catalog does not know (surfaced as an error by Optimize).
	tab *catalog.Table
	// preds holds the indices into Tpl.Preds of the predicates on this
	// table, in predicate order.
	preds []int32
	// indexes mirrors tab.Indexes with precomputed order keys and the
	// predicate indices each index column serves.
	indexes []metaIndex
}

// metaIndex precomputes, per catalog index, everything the access-path
// enumeration needs without string building.
type metaIndex struct {
	name      string
	column    string
	clustered bool
	// orderKey is "table.column", the delivered sort order.
	orderKey string
	// preds are the indices of predicates on (table, column).
	preds []int32
}

// metaEdge is a join edge with endpoint bitmasks and prebuilt join keys.
type metaEdge struct {
	aMask, bMask uint32
	sel          float64
	aKey, bKey   string // "table.column" on each side
}

// metaFor returns o's metadata for tpl, building it on first use.
// Concurrent first uses may each build one, but all of them return the
// one that was stored first.
func (o *Optimizer) metaFor(tpl *query.Template) *tplMeta {
	if m, ok := o.meta.Load(tpl); ok {
		return m.(*tplMeta)
	}
	m := buildMeta(tpl)
	actual, _ := o.meta.LoadOrStore(tpl, m)
	return actual.(*tplMeta)
}

// buildMeta derives the per-template metadata.
func buildMeta(tpl *query.Template) *tplMeta {
	n := len(tpl.Tables)
	m := &tplMeta{
		tables:    make([]metaTable, n),
		tableIdx:  make(map[string]int, n),
		dims:      tpl.Dimensions(),
		footprint: tpl.Footprint(),
	}
	for i, name := range tpl.Tables {
		m.tableIdx[name] = i
		mt := &m.tables[i]
		mt.name = name
		if tpl.Catalog != nil {
			mt.tab = tpl.Catalog.Table(name)
		}
		for pi, p := range tpl.Preds {
			if p.Table == name {
				mt.preds = append(mt.preds, int32(pi))
			}
		}
		if mt.tab == nil {
			continue
		}
		for _, ix := range mt.tab.Indexes {
			mi := metaIndex{
				name: ix.Name, column: ix.Column, clustered: ix.Clustered,
				orderKey: name + "." + ix.Column,
			}
			for _, pi := range mt.preds {
				if tpl.Preds[pi].Column == ix.Column {
					mi.preds = append(mi.preds, pi)
				}
			}
			mt.indexes = append(mt.indexes, mi)
		}
	}
	m.edges = make([]metaEdge, 0, len(tpl.Joins))
	for _, j := range tpl.Joins {
		a, b := m.tableIdx[j.Left], m.tableIdx[j.Right]
		m.edges = append(m.edges, metaEdge{
			aMask: 1 << uint(a), bMask: 1 << uint(b),
			sel:  j.Selectivity,
			aKey: j.Left + "." + j.LeftCol,
			bKey: j.Right + "." + j.RightCol,
		})
	}
	return m
}

// Env is the per-instance selectivity environment: the selectivity of every
// predicate of a template under one instance's selectivity vector. All
// cardinality derivation — during optimization and during recost — reads
// from an Env.
//
// Envs are cheap to reset: a pooled Env obtained from Optimizer.PrepareEnv
// reuses its backing slices, so steady-state Recost traffic allocates
// nothing. The zero Env is invalid; build with NewEnv or PrepareEnv.
type Env struct {
	Tpl  *query.Template
	meta *tplMeta
	// epoch is the cost epoch of Tpl at the statistics epoch the
	// environment was prepared under (0 for NewEnv-built environments over
	// a bare store).
	epoch uint64
	// predSel[i] is the selectivity of Tpl.Preds[i].
	predSel []float64
	// tableSel[t] is the combined selectivity of the predicates on the
	// t-th table of Tpl.Tables.
	tableSel []float64
	// recalls and recostOps count the shrunken-memo recosts run against
	// the environment and the operators they visited, until ReleaseEnv
	// adds them to the optimizer's counters.
	recalls, recostOps int64
}

// NewEnv builds a fresh (non-pooled) environment for template tpl under
// selectivity vector sv. Constant predicates are evaluated against the
// statistics store st. With no optimizer to cache it, the template's
// metadata is built afresh for the environment.
func NewEnv(tpl *query.Template, sv []float64, st *stats.Store) (*Env, error) {
	e := &Env{}
	if err := e.reset(nil, tpl, sv, st); err != nil {
		return nil, err
	}
	return e, nil
}

// reset (re)initializes e for (tpl, sv), reusing backing slices. The
// template's metadata comes from o's cache, or is built directly when o is
// nil (NewEnv).
func (e *Env) reset(o *Optimizer, tpl *query.Template, sv []float64, st *stats.Store) error {
	m := e.meta
	if e.Tpl != tpl || m == nil {
		// A pooled environment usually comes back to the template it last
		// served, and then skips the metadata lookup.
		if o != nil {
			m = o.metaFor(tpl)
		} else {
			m = buildMeta(tpl)
		}
	}
	if got, want := len(sv), m.dims; got != want {
		return fmt.Errorf("memo: sVector has %d entries, template %s needs %d", got, tpl.Name, want)
	}
	e.Tpl, e.meta = tpl, m
	e.predSel = grow(e.predSel, len(tpl.Preds))
	for i, p := range tpl.Preds {
		if p.Param >= 0 {
			e.predSel[i] = stats.ClampSelectivity(sv[p.Param])
			continue
		}
		var (
			s   float64
			err error
		)
		if p.Op == query.LE {
			s, err = st.SelectivityLE(p.Table, p.Column, p.Value)
		} else {
			s, err = st.SelectivityGE(p.Table, p.Column, p.Value)
		}
		if err != nil {
			return fmt.Errorf("memo: constant predicate on %s.%s: %w", p.Table, p.Column, err)
		}
		e.predSel[i] = s
	}
	e.tableSel = grow(e.tableSel, len(m.tables))
	for ti := range m.tables {
		sel := 1.0
		for _, pi := range m.tables[ti].preds {
			sel *= e.predSel[pi]
		}
		e.tableSel[ti] = stats.ClampSelectivity(sel)
	}
	return nil
}

// grow returns s resized to n, reusing capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// TableSel returns the combined selectivity of all predicates on table.
// Tables without predicates have selectivity 1.
func (e *Env) TableSel(table string) float64 {
	if ti, ok := e.meta.tableIdx[table]; ok {
		return e.tableSel[ti]
	}
	return 1
}

// NumPredsOn returns the number of predicates on table.
func (e *Env) NumPredsOn(table string) int {
	if ti, ok := e.meta.tableIdx[table]; ok {
		return len(e.meta.tables[ti].preds)
	}
	return 0
}

// PredSelOn returns the selectivity of the predicate on table.column and
// whether such a predicate exists. Templates are constructed with at most
// one predicate per column; if several exist their combined selectivity is
// returned.
func (e *Env) PredSelOn(table, column string) (float64, bool) {
	ti, ok := e.meta.tableIdx[table]
	if !ok {
		return 1, false
	}
	sel := 1.0
	found := false
	for _, pi := range e.meta.tables[ti].preds {
		if e.Tpl.Preds[pi].Column == column {
			sel *= e.predSel[pi]
			found = true
		}
	}
	return sel, found
}

// envPool recycles Envs across PrepareEnv/ReleaseEnv cycles so the recost
// hot path reaches steady-state zero allocations.
var envPool = sync.Pool{New: func() any { return new(Env) }}

// PrepareEnv returns a pooled environment for (tpl, sv): the batched
// recosting entry point. Build the environment once per query instance,
// recost any number of candidate plans against it with
// ShrunkenMemo.RecostWith or Optimizer.RecostPlanWith, then return it with
// ReleaseEnv. The Env must not be used after release.
func (o *Optimizer) PrepareEnv(tpl *query.Template, sv []float64) (*Env, error) {
	e := envPool.Get().(*Env)
	atomic.AddInt64(&o.envGets, 1)
	if e.meta != nil {
		atomic.AddInt64(&o.envReuses, 1)
	}
	// One atomic load pins the (id, store) pair for the whole environment:
	// every selectivity this Env answers comes from the same generation,
	// and so does the cost epoch it is tagged with.
	ep := o.epoch.Load()
	if err := e.reset(o, tpl, sv, ep.Store); err != nil {
		envPool.Put(e)
		return nil, err
	}
	e.epoch = ep.CostEpoch(e.meta.footprint)
	return e, nil
}

// EpochID returns the cost epoch the environment was prepared under: the
// newest statistics epoch that changed a histogram the template's
// constant predicates read (stats.Epoch.CostEpoch). Every cost derived
// through the environment is identical under any epoch sharing this id.
// It is 0 for environments built directly with NewEnv.
func (e *Env) EpochID() uint64 { return e.epoch }

// ReleaseEnv returns a pooled environment to the pool. nil is a no-op.
func (o *Optimizer) ReleaseEnv(e *Env) {
	if e == nil {
		return
	}
	if e.recalls > 0 {
		atomic.AddInt64(&o.recalls, e.recalls)
		atomic.AddInt64(&o.recostOps, e.recostOps)
		e.recalls, e.recostOps = 0, 0
	}
	envPool.Put(e)
}

// EnvPoolCounters reports how many pooled environments were handed out and
// how many of those reused a previously allocated Env (pool hits). The
// reuse ratio approaches 1 in steady state; it is surfaced through the
// serving stack's Stats and /metrics.
func (o *Optimizer) EnvPoolCounters() (gets, reuses int64) {
	return atomic.LoadInt64(&o.envGets), atomic.LoadInt64(&o.envReuses)
}
