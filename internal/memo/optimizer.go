package memo

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// maxJoinTables bounds the DP search; the flat memo array has 2^n groups.
const maxJoinTables = 20

// Optimizer performs cost-based plan search for query templates over one
// catalog. It is safe for concurrent use; accounting counters are atomic.
//
// Statistics are versioned: the optimizer holds the current stats.Epoch
// (monotonic id + immutable store) behind an atomic pointer. Every
// PrepareEnv reads the pointer exactly once, so each Optimize/Recost is
// internally consistent even while AdvanceEpoch swaps generations
// underneath concurrent traffic.
type Optimizer struct {
	Cat   *catalog.Catalog
	Model *cost.Model

	// epoch is the current statistics generation; never nil after
	// NewOptimizer. Swapped wholesale by AdvanceEpoch.
	epoch atomic.Pointer[stats.Epoch]

	// exprCosted counts physical alternatives costed across all Optimize
	// calls; recostOps counts operators visited across all Recost calls.
	// Their ratio demonstrates the paper's claim that Recost is orders of
	// magnitude cheaper than an optimizer call.
	exprCosted int64
	recostOps  int64
	optCalls   int64
	recalls    int64

	// envGets/envReuses account the pooled-environment hot path (PrepareEnv).
	envGets   int64
	envReuses int64

	// meta maps each *query.Template this optimizer has prepared to its
	// *tplMeta, built lazily on first use (metaFor). Owning the cache here
	// bounds it by the optimizer's lifetime.
	meta sync.Map
}

// NewOptimizer returns an optimizer over the given catalog, cost model and
// statistics store. The store becomes epoch 1.
func NewOptimizer(cat *catalog.Catalog, m *cost.Model, st *stats.Store) *Optimizer {
	o := &Optimizer{Cat: cat, Model: m}
	o.epoch.Store(&stats.Epoch{ID: 1, Store: st})
	return o
}

// Epoch returns the current statistics epoch (id + store), never nil.
func (o *Optimizer) Epoch() *stats.Epoch { return o.epoch.Load() }

// StatsStore returns the statistics store of the current epoch.
func (o *Optimizer) StatsStore() *stats.Store { return o.epoch.Load().Store }

// AdvanceEpoch atomically installs st as the next statistics generation
// and returns the new epoch. Concurrent advances serialize through the
// CAS loop, so ids stay strictly monotonic. In-flight Optimize/Recost
// calls that already prepared their environment finish under the epoch
// they started with; new preparations observe the new epoch.
//
// The new epoch records which columns it changed (stats.Epoch.Next), so
// each template's cost epoch moves only when a histogram its constant
// predicates read was replaced. The engine layer keys cached recost
// results by cost epoch: entries of a template whose statistics did not
// move stay valid, and entries of one whose statistics did can never
// satisfy lookups made under the new generation.
func (o *Optimizer) AdvanceEpoch(st *stats.Store) *stats.Epoch {
	for {
		cur := o.epoch.Load()
		next := cur.Next(st)
		if o.epoch.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Counters reports cumulative accounting: optimizer calls made, expressions
// costed during optimization, recost calls made, and operators visited
// during recosts. Shrunken-memo recosts count once their pooled
// environment is released (ReleaseEnv).
func (o *Optimizer) Counters() (optCalls, exprCosted, recostCalls, recostOps int64) {
	return atomic.LoadInt64(&o.optCalls), atomic.LoadInt64(&o.exprCosted),
		atomic.LoadInt64(&o.recalls), atomic.LoadInt64(&o.recostOps)
}

// candidate is one physical alternative for a memo group, possibly carrying
// a delivered sort order (an interesting order in System-R terms). It is a
// value type: the search keeps candidates inline in group arrays and only
// materializes plan.Nodes for the winning plan, so losing alternatives cost
// no allocation.
type candidate struct {
	cst  float64
	card float64
	// rowBytes is the output row width, used by the hash-join spill test.
	rowBytes int
	// order is "table.column" if the plan delivers rows sorted on that
	// column, else "". Only leaf candidates (index scans) deliver orders.
	order string

	op plan.OpType

	// Leaf fields (TableScan, IndexScan).
	table       string
	index       string
	indexColumn string
	clustered   bool
	residual    int

	// Join fields: children are identified by (group mask, winner index)
	// instead of node pointers.
	leftMask, rightMask uint32
	leftIdx, rightIdx   int32
	joinCol             string
	rightJoinCol        string
	joinSel             float64
}

// group is a memo group: the equivalence class of all plans producing the
// join of one subset of tables. winners holds the cheapest plan overall
// (order "") and the cheapest plan per delivered order.
type group struct {
	winners []candidate
}

// bestIdx returns the index of the cheapest candidate, or -1 if empty.
func (g *group) bestIdx() int {
	best := -1
	for i := range g.winners {
		if best < 0 || g.winners[i].cst < g.winners[best].cst {
			best = i
		}
	}
	return best
}

// offer adds a candidate if it improves on the incumbent for its order or
// for the overall winner set. Dominated candidates (worse cost, no new
// order) are discarded.
func (g *group) offer(c candidate) {
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

// searchCtx is the reusable scratch state of one Optimize call: the flat
// memo array indexed by table-subset mask. Pooled so steady-state
// optimization reuses both the group array and the per-group winner
// arrays.
type searchCtx struct {
	groups []group
}

var searchPool = sync.Pool{New: func() any { return new(searchCtx) }}

// acquireSearchCtx returns a scratch context with 1<<n empty groups.
func acquireSearchCtx(n int) *searchCtx {
	sc := searchPool.Get().(*searchCtx)
	size := 1 << uint(n)
	if cap(sc.groups) < size {
		sc.groups = make([]group, size)
	} else {
		sc.groups = sc.groups[:size]
		for i := range sc.groups {
			sc.groups[i].winners = sc.groups[i].winners[:0]
		}
	}
	return sc
}

func releaseSearchCtx(sc *searchCtx) { searchPool.Put(sc) }

// Optimize finds the cheapest physical plan for tpl under selectivity
// vector sv and returns it with its estimated cost. This corresponds to a
// full optimizer call in the paper: it searches the space of join orders,
// join algorithms and access paths.
//
// The search runs over a flat []group array indexed by table-subset mask.
// Connectivity needs no per-mask graph traversal: a leaf group always has
// candidates, and a join group gains candidates exactly when some split
// has a crossing join edge and two non-empty sides — which, by induction,
// holds if and only if the subset is connected. Disconnected masks simply
// stay empty, so the explicit BFS check of the seed implementation is
// redundant and the enumeration is pure mask arithmetic.
func (o *Optimizer) Optimize(tpl *query.Template, sv []float64) (*plan.Plan, float64, error) {
	p, c, _, err := o.OptimizeEpoch(tpl, sv)
	return p, c, err
}

// OptimizeEpoch is Optimize plus the cost epoch of tpl at the statistics
// epoch the search ran under (Env.EpochID). The epoch is pinned once when
// the environment is prepared, so the returned plan, cost and id are
// mutually consistent even if AdvanceEpoch lands mid-search.
func (o *Optimizer) OptimizeEpoch(tpl *query.Template, sv []float64) (*plan.Plan, float64, uint64, error) {
	env, err := o.PrepareEnv(tpl, sv)
	if err != nil {
		return nil, 0, 0, err
	}
	defer o.ReleaseEnv(env)
	p, c, err := o.optimizeWith(tpl, env)
	return p, c, env.EpochID(), err
}

// optimizeWith runs the plan search against an already-prepared
// environment.
func (o *Optimizer) optimizeWith(tpl *query.Template, env *Env) (*plan.Plan, float64, error) {
	atomic.AddInt64(&o.optCalls, 1)

	n := len(tpl.Tables)
	if n > maxJoinTables {
		return nil, 0, fmt.Errorf("memo: template %s joins %d tables; limit is %d", tpl.Name, n, maxJoinTables)
	}
	m := env.meta

	sc := acquireSearchCtx(n)
	defer releaseSearchCtx(sc)
	exprCosted := int64(0)

	// Leaf groups: access-path selection per table.
	for i := range m.tables {
		mt := &m.tables[i]
		if mt.tab == nil {
			return nil, 0, fmt.Errorf("memo: template %s references unknown table %s", tpl.Name, mt.name)
		}
		g := &sc.groups[1<<uint(i)]
		rows := float64(mt.tab.Rows)
		card := rows * env.tableSel[i]
		nPreds := len(mt.preds)

		// Full table scan: all predicates are residual filters.
		scanCost := o.Model.TableScanCost(mt.tab) + o.Model.FilterCost(rows, nPreds)
		g.offer(candidate{
			op: plan.TableScan, table: mt.name, residual: nPreds,
			cst: scanCost, card: card, rowBytes: mt.tab.RowBytes,
		})
		exprCosted++

		// Index scans: one per index; usable as an access path when a
		// predicate exists on the index column, and always usable as an
		// order-delivering full scan via the clustered index.
		for xi := range mt.indexes {
			ix := &mt.indexes[xi]
			hasPred := len(ix.preds) > 0
			ixSel := 1.0
			if hasPred {
				for _, pi := range ix.preds {
					ixSel *= env.predSel[pi]
				}
			} else if !ix.clustered {
				continue
			}
			matched := rows * ixSel
			cst := o.Model.IndexScanCost(mt.tab, ix.clustered, ixSel)
			residual := nPreds
			if hasPred {
				residual--
			}
			cst += o.Model.FilterCost(matched, residual)
			g.offer(candidate{
				op: plan.IndexScan, table: mt.name, index: ix.name,
				indexColumn: ix.column, clustered: ix.clustered, residual: residual,
				cst: cst, card: card, rowBytes: mt.tab.RowBytes, order: ix.orderKey,
			})
			exprCosted++
		}
	}

	full := uint32(1)<<uint(n) - 1
	// Enumerate masks in increasing numeric order (any submask of m is
	// numerically smaller than m, so children are final before parents).
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		g := &sc.groups[mask]
		// Enumerate proper submasks as the left (outer) input.
		for sub := (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask {
			rest := mask ^ sub
			lg, rg := &sc.groups[sub], &sc.groups[rest]
			if len(lg.winners) == 0 || len(rg.winners) == 0 {
				continue
			}
			// Crossing-edge scan: product of crossing selectivities and
			// the representative join columns from the first crossing
			// edge. Cartesian products (no edge) are not enumerated.
			jsel := 1.0
			var lCol, rCol string
			crossing := false
			for ei := range m.edges {
				e := &m.edges[ei]
				switch {
				case sub&e.aMask != 0 && rest&e.bMask != 0:
					jsel *= e.sel
					if !crossing {
						lCol, rCol = e.aKey, e.bKey
					}
					crossing = true
				case sub&e.bMask != 0 && rest&e.aMask != 0:
					jsel *= e.sel
					if !crossing {
						lCol, rCol = e.bKey, e.aKey
					}
					crossing = true
				}
			}
			if !crossing {
				continue
			}
			li, ri := lg.bestIdx(), rg.bestIdx()
			l, r := &lg.winners[li], &rg.winners[ri]
			outCard := l.card * r.card * jsel
			outBytes := l.rowBytes + r.rowBytes

			// Hash join: build on the inner (right) input.
			hjCost := l.cst + r.cst + o.Model.HashJoinCost(l.card, r.card, r.rowBytes)
			g.offer(candidate{
				op: plan.HashJoin, joinCol: lCol, rightJoinCol: rCol, joinSel: jsel,
				leftMask: sub, rightMask: rest, leftIdx: int32(li), rightIdx: int32(ri),
				cst: hjCost, card: outCard, rowBytes: outBytes,
			})
			// Nested loops join.
			nlCost := l.cst + r.cst + o.Model.NLJoinCost(l.card, r.card)
			g.offer(candidate{
				op: plan.NLJoin, joinCol: lCol, rightJoinCol: rCol, joinSel: jsel,
				leftMask: sub, rightMask: rest, leftIdx: int32(li), rightIdx: int32(ri),
				cst: nlCost, card: outCard, rowBytes: outBytes,
			})
			exprCosted += 2

			// Merge join: try every (left order, right order) pairing so a
			// pre-sorted index scan can discount the sort.
			for lci := range lg.winners {
				for rci := range rg.winners {
					lc, rc := &lg.winners[lci], &rg.winners[rci]
					lSorted := lc.order != "" && lc.order == lCol
					rSorted := rc.order != "" && rc.order == rCol
					// Only consider non-best children when they supply a
					// useful order; otherwise they are dominated.
					if (lc.cst > l.cst && !lSorted) || (rc.cst > r.cst && !rSorted) {
						continue
					}
					mjCost := lc.cst + rc.cst + o.Model.MergeJoinCost(lc.card, rc.card, lSorted, rSorted)
					g.offer(candidate{
						op: plan.MergeJoin, joinCol: lCol, rightJoinCol: rCol, joinSel: jsel,
						leftMask: sub, rightMask: rest, leftIdx: int32(lci), rightIdx: int32(rci),
						cst: mjCost, card: outCard, rowBytes: outBytes,
					})
					exprCosted++
				}
			}
		}
	}

	top := &sc.groups[full]
	if len(top.winners) == 0 {
		atomic.AddInt64(&o.exprCosted, exprCosted)
		return nil, 0, fmt.Errorf("memo: no plan found for template %s", tpl.Name)
	}
	bi := top.bestIdx()
	best := &top.winners[bi]
	total := best.cst

	aggOp := plan.OpType(-1)
	if tpl.Agg == query.GroupBy {
		inCard := best.card
		hashCost := total + o.Model.HashAggCost(inCard)
		streamCost := total + o.Model.StreamAggCost(inCard)
		exprCosted += 2
		if hashCost <= streamCost {
			aggOp = plan.HashAgg
			total = hashCost
		} else {
			aggOp = plan.StreamAgg
			total = streamCost
		}
	}
	atomic.AddInt64(&o.exprCosted, exprCosted)
	if math.IsNaN(total) || math.IsInf(total, 0) || total <= 0 {
		return nil, 0, fmt.Errorf("memo: degenerate plan cost %v for template %s", total, tpl.Name)
	}

	root := sc.materialize(full, int32(bi), n, aggOp)
	return plan.New(tpl.Name, root), total, nil
}

// materialize builds the winning plan tree from the candidate graph. All
// nodes live in one arena allocated at exactly the plan's node count upper
// bound (n leaves + n-1 joins + 1 aggregate), so only the winner pays node
// allocations — never the losing candidates.
func (sc *searchCtx) materialize(full uint32, bestIdx int32, n int, aggOp plan.OpType) *plan.Node {
	arena := make([]plan.Node, 0, 2*n)
	var build func(mask uint32, idx int32) *plan.Node
	build = func(mask uint32, idx int32) *plan.Node {
		c := &sc.groups[mask].winners[idx]
		switch c.op {
		case plan.TableScan:
			arena = append(arena, plan.Node{Op: plan.TableScan, Table: c.table, ResidualPreds: c.residual})
		case plan.IndexScan:
			arena = append(arena, plan.Node{
				Op: plan.IndexScan, Table: c.table, Index: c.index,
				IndexColumn: c.indexColumn, Clustered: c.clustered,
				ResidualPreds: c.residual,
			})
		default:
			l := build(c.leftMask, c.leftIdx)
			r := build(c.rightMask, c.rightIdx)
			arena = append(arena, plan.Node{
				Op: c.op, JoinCol: c.joinCol, RightJoinCol: c.rightJoinCol,
				JoinSel: c.joinSel, Children: []*plan.Node{l, r},
			})
		}
		return &arena[len(arena)-1]
	}
	root := build(full, bestIdx)
	if aggOp >= 0 {
		arena = append(arena, plan.Node{Op: aggOp, Children: []*plan.Node{root}})
		root = &arena[len(arena)-1]
	}
	return root
}
