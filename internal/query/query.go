// Package query defines parameterized query templates and query instances.
//
// A Template is the paper's "parameterized query Q": a join graph over base
// tables together with predicates, d of which are parameterized one-sided
// range predicates (the paper's "dimensions"). An Instance binds concrete
// parameter values; its compact representation is the selectivity vector
// sVector of the parameterized predicates (§2).
package query

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// CmpOp is the comparison operator of a range predicate. The paper's
// workloads use one-sided range predicates (col <= v or col >= v).
type CmpOp int

const (
	// LE is "column <= value".
	LE CmpOp = iota
	// GE is "column >= value".
	GE
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	if op == GE {
		return ">="
	}
	return "<="
}

// Predicate is a range predicate on a base-table column. If Param >= 0 the
// comparison value is the Param-th query parameter (a "dimension");
// otherwise Value is a template constant.
type Predicate struct {
	Table  string
	Column string
	Op     CmpOp
	Param  int // parameter ordinal, or -1 for a constant predicate
	Value  float64
}

// Join is an equi-join edge between two tables. Selectivity is the join
// selectivity factor applied to the Cartesian product; per the paper's
// standard PQO assumptions (§5.2 footnote), it is fixed across instances.
type Join struct {
	Left, Right       string
	LeftCol, RightCol string
	Selectivity       float64
}

// Aggregation describes an optional final aggregation on the query.
type Aggregation int

const (
	// NoAgg means the query returns join rows directly.
	NoAgg Aggregation = iota
	// GroupBy adds a grouping aggregation over the join result.
	GroupBy
)

// Template is a parameterized query: the unit the PQO techniques operate on.
type Template struct {
	Name    string
	Catalog *catalog.Catalog
	Tables  []string
	Joins   []Join
	Preds   []Predicate
	Agg     Aggregation
	// GroupCard is the estimated number of groups when Agg == GroupBy.
	GroupCard float64
}

// Validate checks the template for internal consistency against its catalog.
func (t *Template) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("query: template with empty name")
	}
	if t.Catalog == nil {
		return fmt.Errorf("query: template %s has nil catalog", t.Name)
	}
	if len(t.Tables) == 0 {
		return fmt.Errorf("query: template %s has no tables", t.Name)
	}
	inQuery := make(map[string]bool, len(t.Tables))
	for _, tab := range t.Tables {
		ct := t.Catalog.Table(tab)
		if ct == nil {
			return fmt.Errorf("query: template %s references unknown table %s", t.Name, tab)
		}
		if inQuery[tab] {
			return fmt.Errorf("query: template %s lists table %s twice", t.Name, tab)
		}
		inQuery[tab] = true
	}
	for _, j := range t.Joins {
		for _, side := range []struct{ tab, col string }{{j.Left, j.LeftCol}, {j.Right, j.RightCol}} {
			if !inQuery[side.tab] {
				return fmt.Errorf("query: template %s join references table %s not in FROM list", t.Name, side.tab)
			}
			if t.Catalog.Table(side.tab).Column(side.col) == nil {
				return fmt.Errorf("query: template %s join references unknown column %s.%s", t.Name, side.tab, side.col)
			}
		}
		if j.Selectivity <= 0 || j.Selectivity > 1 {
			return fmt.Errorf("query: template %s join %s-%s has selectivity %v outside (0,1]",
				t.Name, j.Left, j.Right, j.Selectivity)
		}
	}
	if len(t.Tables) > 1 && !t.connected() {
		return fmt.Errorf("query: template %s join graph is not connected", t.Name)
	}
	seenParam := make(map[int]bool)
	for _, p := range t.Preds {
		if !inQuery[p.Table] {
			return fmt.Errorf("query: template %s predicate references table %s not in FROM list", t.Name, p.Table)
		}
		if t.Catalog.Table(p.Table).Column(p.Column) == nil {
			return fmt.Errorf("query: template %s predicate references unknown column %s.%s", t.Name, p.Table, p.Column)
		}
		if p.Param >= 0 {
			if seenParam[p.Param] {
				return fmt.Errorf("query: template %s has two predicates for parameter %d", t.Name, p.Param)
			}
			seenParam[p.Param] = true
		}
	}
	d := t.Dimensions()
	for i := 0; i < d; i++ {
		if !seenParam[i] {
			return fmt.Errorf("query: template %s parameter ordinals not dense: missing %d", t.Name, i)
		}
	}
	return nil
}

// connected reports whether the join graph spans all tables.
func (t *Template) connected() bool {
	idx := make(map[string]int, len(t.Tables))
	for i, tab := range t.Tables {
		idx[tab] = i
	}
	parent := make([]int, len(t.Tables))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range t.Joins {
		a, aok := idx[j.Left]
		b, bok := idx[j.Right]
		if !aok || !bok {
			return false
		}
		parent[find(a)] = find(b)
	}
	root := find(0)
	for i := range parent {
		if find(i) != root {
			return false
		}
	}
	return true
}

// Dimensions returns d, the number of parameterized predicates.
func (t *Template) Dimensions() int {
	max := -1
	for _, p := range t.Preds {
		if p.Param > max {
			max = p.Param
		}
	}
	return max + 1
}

// ParamPredicates returns the parameterized predicates indexed by parameter
// ordinal: result[i] is the predicate bound to parameter i.
func (t *Template) ParamPredicates() []Predicate {
	out := make([]Predicate, t.Dimensions())
	for _, p := range t.Preds {
		if p.Param >= 0 {
			out[p.Param] = p
		}
	}
	return out
}

// Footprint lists the "table.column" keys of the columns the template's
// constant predicates read, in predicate order. These are the only
// histograms a cost of the template depends on: parameterized predicates
// take their selectivity from the sVector, not from statistics.
func (t *Template) Footprint() []string {
	var out []string
	for _, p := range t.Preds {
		if p.Param < 0 {
			out = append(out, p.Table+"."+p.Column)
		}
	}
	return out
}

// SQL renders the template as SQL text with ? placeholders, for display.
func (t *Template) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if t.Agg == GroupBy {
		b.WriteString("g, COUNT(*) ")
	} else {
		b.WriteString("* ")
	}
	b.WriteString("FROM ")
	b.WriteString(strings.Join(t.Tables, ", "))
	conds := make([]string, 0, len(t.Joins)+len(t.Preds))
	for _, j := range t.Joins {
		conds = append(conds, fmt.Sprintf("%s.%s = %s.%s", j.Left, j.LeftCol, j.Right, j.RightCol))
	}
	for _, p := range t.Preds {
		if p.Param >= 0 {
			conds = append(conds, fmt.Sprintf("%s.%s %s ?%d", p.Table, p.Column, p.Op, p.Param))
		} else {
			conds = append(conds, fmt.Sprintf("%s.%s %s %g", p.Table, p.Column, p.Op, p.Value))
		}
	}
	if len(conds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if t.Agg == GroupBy {
		b.WriteString(" GROUP BY g")
	}
	return b.String()
}

// Instance is one execution of a template with bound parameter values.
type Instance struct {
	Template *Template
	// Params[i] is the value bound to parameter i.
	Params []float64
}

// NewInstance binds parameter values to a template.
func NewInstance(t *Template, params []float64) (*Instance, error) {
	if got, want := len(params), t.Dimensions(); got != want {
		return nil, fmt.Errorf("query: template %s needs %d params, got %d", t.Name, want, got)
	}
	cp := make([]float64, len(params))
	copy(cp, params)
	return &Instance{Template: t, Params: cp}, nil
}

// SVector computes the instance's selectivity vector from the statistics
// store: entry i is the selectivity of the i-th parameterized predicate.
// This is the engine's "compute selectivity vector" API (§4.2): it requires
// only histogram lookups, no plan search.
func (q *Instance) SVector(st *stats.Store) ([]float64, error) {
	preds := q.Template.ParamPredicates()
	sv := make([]float64, len(preds))
	for i, p := range preds {
		var (
			sel float64
			err error
		)
		if p.Op == LE {
			sel, err = st.SelectivityLE(p.Table, p.Column, q.Params[i])
		} else {
			sel, err = st.SelectivityGE(p.Table, p.Column, q.Params[i])
		}
		if err != nil {
			return nil, fmt.Errorf("query: sVector for %s: %w", q.Template.Name, err)
		}
		sv[i] = sel
	}
	return sv, nil
}

// TableSelectivity returns the combined selectivity of all predicates
// (parameterized and constant) on the given table, assuming predicate
// independence (the paper's assumption (c) in §5.2), where sv is the
// instance's selectivity vector.
func (t *Template) TableSelectivity(table string, sv []float64, st *stats.Store) (float64, error) {
	sel := 1.0
	for _, p := range t.Preds {
		if p.Table != table {
			continue
		}
		if p.Param >= 0 {
			if p.Param >= len(sv) {
				return 0, fmt.Errorf("query: sVector too short for template %s (need %d)", t.Name, p.Param+1)
			}
			sel *= sv[p.Param]
			continue
		}
		var (
			s   float64
			err error
		)
		if p.Op == LE {
			s, err = st.SelectivityLE(p.Table, p.Column, p.Value)
		} else {
			s, err = st.SelectivityGE(p.Table, p.Column, p.Value)
		}
		if err != nil {
			return 0, err
		}
		sel *= s
	}
	return stats.ClampSelectivity(sel), nil
}
