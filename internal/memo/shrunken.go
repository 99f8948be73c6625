package memo

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
)

// ShrunkenMemo is the compact, cacheable representation of one winning plan
// described in Appendix B of the paper: the memo pruned of all groups and
// expressions not needed by the final plan, flattened into a post-order
// operator array. Recosting replaces the selectivities in the base entries
// and re-derives cardinality and cost bottom-up with plain arithmetic — no
// pointer-chasing plan walk, no plan search.
//
// The plan cache stores one ShrunkenMemo per cached plan; its Size is the
// dominant per-plan memory overhead the paper discusses in §6.1.
type ShrunkenMemo struct {
	tpl *query.Template
	ops []shrunkenOp
	// root is the index of the final operator (always len(ops)-1).
	root int
}

// shrunkenOp is one operator entry. Child references are indices into the
// ops slice (always smaller than the entry's own index: post-order). All
// catalog and template lookups are resolved at compile time so recosting is
// pure arithmetic over the environment's selectivity arrays.
type shrunkenOp struct {
	op    plan.OpType
	left  int // -1 for leaves
	right int // -1 for leaves and unary ops

	// Leaf data. scanCost is a TableScan's whole cost, which no
	// selectivity moves, so compile prices it once.
	scanCost float64
	table    string
	tab      *catalog.Table
	rows     float64
	rowBytes int
	// tableIdx is the table's position in the template (-1 if the plan
	// references a table the template does not join; such a table carries
	// no predicates).
	tableIdx  int
	nPreds    int
	clustered bool
	// ixPreds are the predicate indices served by the scanned index column.
	ixPreds []int32

	// Join data.
	joinSel                 float64
	leftSorted, rightSorted bool
}

// NewShrunkenMemo compiles a plan into its shrunken-memo form. The
// compilation cost is paid once per stored plan (per Appendix B, it is not
// part of the Recost API's overhead). Costs that no selectivity moves are
// priced here with o's cost model, so the model must not change after.
func NewShrunkenMemo(o *Optimizer, p *plan.Plan, tpl *query.Template) (*ShrunkenMemo, error) {
	sm := &ShrunkenMemo{tpl: tpl}
	idx, err := sm.compile(o, o.metaFor(tpl), p.Root)
	if err != nil {
		return nil, err
	}
	sm.root = idx
	return sm, nil
}

func (sm *ShrunkenMemo) compile(o *Optimizer, m *tplMeta, n *plan.Node) (int, error) {
	if n == nil {
		return -1, fmt.Errorf("memo: shrunken memo of nil node")
	}
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		t := o.Cat.Table(n.Table)
		if t == nil {
			return -1, fmt.Errorf("memo: shrunken memo references unknown table %s", n.Table)
		}
		e := shrunkenOp{
			op: n.Op, left: -1, right: -1,
			table: n.Table, tab: t, rows: float64(t.Rows), rowBytes: t.RowBytes,
			tableIdx: -1, clustered: n.Clustered,
		}
		if ti, ok := m.tableIdx[n.Table]; ok {
			e.tableIdx = ti
			e.nPreds = len(m.tables[ti].preds)
			if n.Op == plan.IndexScan {
				for _, pi := range m.tables[ti].preds {
					if sm.tpl.Preds[pi].Column == n.IndexColumn {
						e.ixPreds = append(e.ixPreds, pi)
					}
				}
			}
		}
		if n.Op == plan.TableScan {
			e.scanCost = o.Model.TableScanCost(t) + o.Model.FilterCost(e.rows, e.nPreds)
		}
		sm.ops = append(sm.ops, e)
		return len(sm.ops) - 1, nil

	case plan.NLJoin, plan.HashJoin, plan.MergeJoin:
		l, err := sm.compile(o, m, n.Children[0])
		if err != nil {
			return -1, err
		}
		r, err := sm.compile(o, m, n.Children[1])
		if err != nil {
			return -1, err
		}
		e := shrunkenOp{
			op: n.Op, left: l, right: r, joinSel: n.JoinSel,
			leftSorted:  deliversOrder(n.Children[0], n.JoinCol),
			rightSorted: deliversOrder(n.Children[1], n.RightJoinCol),
		}
		sm.ops = append(sm.ops, e)
		return len(sm.ops) - 1, nil

	case plan.HashAgg, plan.StreamAgg:
		c, err := sm.compile(o, m, n.Children[0])
		if err != nil {
			return -1, err
		}
		sm.ops = append(sm.ops, shrunkenOp{op: n.Op, left: c, right: -1})
		return len(sm.ops) - 1, nil

	default:
		return -1, fmt.Errorf("memo: shrunken memo of unsupported operator %s", n.Op)
	}
}

// Size returns an estimate of the memory footprint in bytes, used for the
// plan-cache overhead accounting of §6.1.
func (sm *ShrunkenMemo) Size() int {
	const opBytes = 136 // approximate size of one shrunkenOp entry
	return len(sm.ops)*opBytes + 64
}

// NumOps returns the number of operator entries retained after pruning.
func (sm *ShrunkenMemo) NumOps() int { return len(sm.ops) }

// Recost re-derives the plan's cost for selectivity vector sv. It is the
// fast path used by the PQO cost and redundancy checks. The environment is
// pooled; batch callers should prepare one with Optimizer.PrepareEnv and
// call RecostWith directly.
func (sm *ShrunkenMemo) Recost(o *Optimizer, sv []float64) (float64, error) {
	env, err := o.PrepareEnv(sm.tpl, sv)
	if err != nil {
		return 0, err
	}
	c, err := sm.RecostWith(o, env)
	o.ReleaseEnv(env)
	return c, err
}

// smState is the per-operator derived state of one recost pass.
type smState struct {
	cst, card float64
	rowBytes  int
}

// smStackOps is the operator count up to which RecostWith evaluates on a
// stack buffer; larger plans (beyond ~16-way joins with aggregation) fall
// back to one heap allocation.
const smStackOps = 48

// RecostWith re-derives the plan's cost against a previously prepared
// environment: the batched form of Recost. The environment must have been
// prepared for the same template this memo was compiled from.
func (sm *ShrunkenMemo) RecostWith(o *Optimizer, env *Env) (float64, error) {
	if env == nil || env.Tpl != sm.tpl {
		return 0, fmt.Errorf("memo: recost environment does not match shrunken memo template")
	}
	// Counted in the environment; ReleaseEnv adds the counts to the
	// optimizer's, so a batch of recosts shares two atomic adds.
	env.recalls++
	env.recostOps += int64(len(sm.ops))

	var buf [smStackOps]smState
	var states []smState
	if len(sm.ops) <= smStackOps {
		states = buf[:len(sm.ops)]
	} else {
		states = make([]smState, len(sm.ops))
	}
	for i := range sm.ops {
		e := &sm.ops[i]
		switch e.op {
		case plan.TableScan:
			tableSel := 1.0
			if e.tableIdx >= 0 {
				tableSel = env.tableSel[e.tableIdx]
			}
			states[i] = smState{cst: e.scanCost, card: e.rows * tableSel, rowBytes: e.rowBytes}

		case plan.IndexScan:
			ixSel := 1.0
			for _, pi := range e.ixPreds {
				ixSel *= env.predSel[pi]
			}
			matched := e.rows * ixSel
			residual := e.nPreds
			if len(e.ixPreds) > 0 {
				residual--
			}
			tableSel := 1.0
			if e.tableIdx >= 0 {
				tableSel = env.tableSel[e.tableIdx]
			}
			cst := o.Model.IndexScanCost(e.tab, e.clustered, ixSel) +
				o.Model.FilterCost(matched, residual)
			states[i] = smState{cst: cst, card: e.rows * tableSel, rowBytes: e.rowBytes}

		case plan.NLJoin, plan.HashJoin, plan.MergeJoin:
			l, r := states[e.left], states[e.right]
			var opCost float64
			switch e.op {
			case plan.NLJoin:
				opCost = o.Model.NLJoinCost(l.card, r.card)
			case plan.HashJoin:
				opCost = o.Model.HashJoinCost(l.card, r.card, r.rowBytes)
			case plan.MergeJoin:
				opCost = o.Model.MergeJoinCost(l.card, r.card, e.leftSorted, e.rightSorted)
			}
			states[i] = smState{
				cst:      l.cst + r.cst + opCost,
				card:     l.card * r.card * e.joinSel,
				rowBytes: l.rowBytes + r.rowBytes,
			}

		case plan.HashAgg, plan.StreamAgg:
			in := states[e.left]
			var opCost float64
			if e.op == plan.HashAgg {
				opCost = o.Model.HashAggCost(in.card)
			} else {
				opCost = o.Model.StreamAggCost(in.card)
			}
			outCard := in.card
			if sm.tpl.Agg == query.GroupBy && sm.tpl.GroupCard > 0 && sm.tpl.GroupCard < outCard {
				outCard = sm.tpl.GroupCard
			}
			states[i] = smState{cst: in.cst + opCost, card: outCard, rowBytes: in.rowBytes}
		}
	}
	return states[sm.root].cst, nil
}
