// Fixture for the cacheinvalidation analyzer: stats/catalog swaps on
// cost-owning types must be post-dominated by an epoch advance.
package a

type Store struct{ N int }

type Optimizer struct {
	Stats *Store
	Cat   *Store
}

type TemplateEngine struct {
	Opt *Optimizer
}

type Epoch struct{ ID int }

func (e *TemplateEngine) AdvanceEpoch(st *Store) *Epoch { return &Epoch{} }

// goodSwapThenAdvance is the required pattern: an epoch advance
// invalidates by construction — derived costs are tagged with their cost
// epoch.
func goodSwapThenAdvance(e *TemplateEngine, st *Store) {
	e.Opt.Stats = st
	e.AdvanceEpoch(st)
}

// goodSwapAdvanceBothPaths advances on every path.
func goodSwapAdvanceBothPaths(e *TemplateEngine, st *Store, cond bool) {
	e.Opt.Stats = st
	if cond {
		e.AdvanceEpoch(st)
		return
	}
	e.AdvanceEpoch(st)
}

// goodSwapDeferredAdvance: an advance deferred after the swap runs on
// every exit.
func goodSwapDeferredAdvance(e *TemplateEngine, st *Store) {
	e.Opt.Stats = st
	defer e.AdvanceEpoch(st)
}

// badSwapNoAdvance leaves stale cached costs behind.
func badSwapNoAdvance(e *TemplateEngine, st *Store) {
	e.Opt.Stats = st // want `Stats swapped without AdvanceEpoch`
}

// badSwapAdvanceOneBranch misses the else path.
func badSwapAdvanceOneBranch(e *TemplateEngine, st *Store, cond bool) {
	e.Opt.Stats = st // want `Stats swapped without AdvanceEpoch`
	if cond {
		e.AdvanceEpoch(st)
	}
}

// badCatalogSwap: the catalog reference is cost-bearing too.
func badCatalogSwap(o *Optimizer, c *Store) {
	o.Cat = c // want `Cat swapped without AdvanceEpoch`
}

// goodUnrelatedField: only Stats/Cat/Catalog swaps are tracked.
func goodUnrelatedField(e *TemplateEngine, o *Optimizer) {
	e.Opt = o
}

// goodNonOwnerType: a Stats field on a non-cost-owning type is fine.
type metrics struct{ Stats *Store }

func goodNonOwnerType(m *metrics, st *Store) {
	m.Stats = st
}

// allowedSwap is the audited constructor-time pattern: nothing cached yet.
func allowedSwap(e *TemplateEngine, st *Store) {
	//lint:allow cacheinvalidation constructor path; cache is still empty
	e.Opt.Stats = st
}
