// Package engine exposes the database-engine surface the paper's online PQO
// techniques require (§4.2): for one query template, a full optimizer call,
// a selectivity-vector computation, and an efficient Recost API — together
// with wall-clock accounting that the experiments (notably Table 3) report.
package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// CachedPlan is the unit stored in a PQO plan cache: the physical plan, its
// shrunken-memo recost representation (Appendix B), and its structural
// fingerprint.
type CachedPlan struct {
	Plan *plan.Plan
	SM   *memo.ShrunkenMemo
}

// Fingerprint returns the plan's structural identity.
func (cp *CachedPlan) Fingerprint() string { return cp.Plan.Fingerprint() }

// MemoryBytes estimates the plan-cache memory charged to this plan (§6.1).
// It tolerates plans without a shrunken memo (used by synthetic test
// engines).
func (cp *CachedPlan) MemoryBytes() int {
	n := len(cp.Plan.Fingerprint())
	if cp.SM != nil {
		n += cp.SM.Size()
	}
	return n
}

// TemplateEngine binds an optimizer to one query template. All PQO
// techniques for that template share one TemplateEngine. It is safe for
// concurrent use: Optimize and Recost touch only the immutable template
// and optimizer plus atomic accounting, so any number of Recost calls (the
// PQO cost checks' hot path) proceed in parallel.
type TemplateEngine struct {
	Tpl *query.Template
	Opt *memo.Optimizer

	optNanos    atomic.Int64
	recostNanos atomic.Int64
	optCalls    atomic.Int64
	recostCalls atomic.Int64

	// footprint lists the histogram columns the template's constant
	// predicates read (query.Template.Footprint); CostEpoch derives from it.
	footprint []string
}

// NewTemplateEngine builds an engine for tpl over an existing optimizer.
func NewTemplateEngine(tpl *query.Template, opt *memo.Optimizer) (*TemplateEngine, error) {
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	return &TemplateEngine{Tpl: tpl, Opt: opt, footprint: tpl.Footprint()}, nil
}

// Dimensions returns the template's parameter count d.
func (e *TemplateEngine) Dimensions() int { return e.Tpl.Dimensions() }

// Optimize performs a full optimizer call for selectivity vector sv,
// returning the winning plan (with its recost representation) and its cost.
func (e *TemplateEngine) Optimize(sv []float64) (*CachedPlan, float64, error) {
	cp, c, _, err := e.OptimizeEpoch(sv)
	return cp, c, err
}

// OptimizeEpoch is Optimize plus the cost epoch the search ran under, so
// callers recording the result (e.g. a plan-cache anchor) can tag it with
// the generation its cost is valid for.
func (e *TemplateEngine) OptimizeEpoch(sv []float64) (*CachedPlan, float64, uint64, error) {
	start := time.Now()
	p, c, epoch, err := e.Opt.OptimizeEpoch(e.Tpl, sv)
	if err != nil {
		return nil, 0, 0, err
	}
	sm, err := memo.NewShrunkenMemo(e.Opt, p, e.Tpl)
	if err != nil {
		return nil, 0, 0, err
	}
	e.optNanos.Add(time.Since(start).Nanoseconds())
	e.optCalls.Add(1)
	return &CachedPlan{Plan: p, SM: sm}, c, epoch, nil
}

// Recost computes the cost of a cached plan at sv via its shrunken memo.
// Callers recosting several plans for one instance should batch through
// PrepareRecost instead.
func (e *TemplateEngine) Recost(cp *CachedPlan, sv []float64) (float64, error) {
	c, _, err := e.RecostEpoch(cp, sv)
	return c, err
}

// RecostEpoch is Recost plus the cost epoch the cost was derived under. It
// routes through the prepared-instance path so the pinned environment and
// the returned epoch name the same generation even if AdvanceEpoch lands
// concurrently.
func (e *TemplateEngine) RecostEpoch(cp *CachedPlan, sv []float64) (float64, uint64, error) {
	if cp == nil {
		return 0, 0, fmt.Errorf("engine: recost of nil cached plan")
	}
	pi, err := e.PrepareRecost(sv)
	if err != nil {
		return 0, 0, err
	}
	defer pi.Release()
	c, err := pi.Recost(cp)
	if err != nil {
		return 0, 0, err
	}
	return c, pi.EpochID(), nil
}

// StatsEpoch returns the id of the current statistics epoch.
func (e *TemplateEngine) StatsEpoch() uint64 { return e.Opt.Epoch().ID }

// CostEpoch returns the template's current cost epoch: the id of the
// newest statistics epoch that installed a new histogram for a column the
// template's constant predicates read, or 1 if none did. Every cost, plan
// and recost of the template is identical across epochs sharing a cost
// epoch, so it tags derived costs in place of StatsEpoch.
func (e *TemplateEngine) CostEpoch() uint64 { return e.Opt.Epoch().CostEpoch(e.footprint) }

// RecostCacheCounters always returns (0, 0): the engine keeps no recost
// result cache, since a shrunken-memo Recost is cheaper than a cache hit
// (docs/PERF.md). It stays for planbench, which reads it.
func (e *TemplateEngine) RecostCacheCounters() (hits, misses int64) { return 0, 0 }

// AdvanceEpoch installs st as the next statistics generation and returns
// the new epoch. Nothing derived from statistics is cached per engine, so
// there is nothing to flush: every Recost after the advance reads the new
// generation through its pinned environment. The cacheinvalidation
// analyzer requires every statistics swap to go through AdvanceEpoch
// (docs/LINT.md).
func (e *TemplateEngine) AdvanceEpoch(st *stats.Store) *stats.Epoch {
	return e.Opt.AdvanceEpoch(st)
}

// SetStats swaps the optimizer's statistics store (a statistics reload).
// It is AdvanceEpoch without the returned epoch — kept for callers that
// predate the epoch lifecycle.
func (e *TemplateEngine) SetStats(st *stats.Store) {
	e.AdvanceEpoch(st)
}

// EnvPoolCounters reports the optimizer's pooled-environment accounting:
// environments handed out and pool reuses.
func (e *TemplateEngine) EnvPoolCounters() (gets, reuses int64) {
	return e.Opt.EnvPoolCounters()
}

// Timing reports cumulative wall-clock accounting.
func (e *TemplateEngine) Timing() (optTime, recostTime time.Duration, optCalls, recostCalls int64) {
	return time.Duration(e.optNanos.Load()), time.Duration(e.recostNanos.Load()),
		e.optCalls.Load(), e.recostCalls.Load()
}

// ResetTiming zeroes the wall-clock accounting (used between experiment
// phases that share an engine).
func (e *TemplateEngine) ResetTiming() {
	e.optNanos.Store(0)
	e.recostNanos.Store(0)
	e.optCalls.Store(0)
	e.recostCalls.Store(0)
}

// System bundles a catalog with its statistics and optimizer: the "database
// instance" experiments run against.
type System struct {
	Cat   *catalog.Catalog
	Gen   *datagen.Generator
	Stats *stats.Store
	Opt   *memo.Optimizer
}

// NewSystem builds statistics and an optimizer for cat with the default
// cost model.
func NewSystem(cat *catalog.Catalog, seed int64) (*System, error) {
	gen := datagen.New(cat, seed)
	st, err := stats.Build(cat, gen)
	if err != nil {
		return nil, fmt.Errorf("engine: building statistics for %s: %w", cat.Name, err)
	}
	return &System{
		Cat:   cat,
		Gen:   gen,
		Stats: st,
		Opt:   memo.NewOptimizer(cat, cost.DefaultModel(), st),
	}, nil
}

// EngineFor returns a TemplateEngine for tpl over this system.
func (s *System) EngineFor(tpl *query.Template) (*TemplateEngine, error) {
	return NewTemplateEngine(tpl, s.Opt)
}

// AdvanceEpoch installs st as the system's next statistics generation and
// returns the new epoch. Every TemplateEngine built from this system
// shares the optimizer, so they all observe the advance at once. The
// exported Stats field keeps naming the current store for existing
// callers; versioned readers should use Opt.Epoch.
func (s *System) AdvanceEpoch(st *stats.Store) *stats.Epoch {
	s.Stats = st
	return s.Opt.AdvanceEpoch(st)
}

// ResampleStats builds a fresh statistics store for the system's catalog
// by re-sampling synthetic data with the given seed — the "full swap" form
// of an online statistics refresh. The result is not installed; pass it to
// AdvanceEpoch.
func (s *System) ResampleStats(seed int64) (*stats.Store, error) {
	gen := datagen.New(s.Cat, seed)
	st, err := stats.Build(s.Cat, gen)
	if err != nil {
		return nil, fmt.Errorf("engine: resampling statistics for %s: %w", s.Cat.Name, err)
	}
	return st, nil
}

// Rehydrate rebuilds a CachedPlan (including its shrunken-memo recost
// representation) from a bare plan tree — used when importing a persisted
// plan cache.
func (e *TemplateEngine) Rehydrate(p *plan.Plan) (*CachedPlan, error) {
	if p == nil || p.Root == nil {
		return nil, fmt.Errorf("engine: rehydrate of nil plan")
	}
	sm, err := memo.NewShrunkenMemo(e.Opt, p, e.Tpl)
	if err != nil {
		return nil, err
	}
	return &CachedPlan{Plan: p, SM: sm}, nil
}
