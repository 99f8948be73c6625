package pqotest

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/engine"
)

// EpochEngine wraps a synthetic Engine with a versioned-statistics
// lifecycle (core.EpochEngine): each epoch multiplies every plan's cost
// function by a deterministic positive per-(plan, epoch) scalar. A
// multilinear cost with non-negative coefficients times a positive scalar
// is still multilinear with non-negative coefficients, so PCM and BCG —
// and therefore the paper's λ guarantee — hold exactly *within* each
// epoch, while the optimal plan at a given vector can differ *between*
// epochs. That is precisely the regime the epoch machinery must survive:
// per-generation guarantees with generation-to-generation plan churn.
//
// CostAt / OptimalCostAt expose the ground truth for any epoch, so chaos
// tests can verify a served decision against a clean twin evaluated at
// the epoch the decision was served from.
type EpochEngine struct {
	*Engine
	epoch atomic.Uint64
}

// NewEpochEngine wraps e starting at epoch 1 (0 is reserved for
// epoch-less engines).
func NewEpochEngine(e *Engine) *EpochEngine {
	ee := &EpochEngine{Engine: e}
	ee.epoch.Store(1)
	return ee
}

// epochFactor is the deterministic positive scalar plan i's cost is
// multiplied by under epoch ep, in [0.5, 1.5]. Epoch 1 is the identity so
// the wrapped engine's costs are unchanged until the first Advance.
func (e *EpochEngine) epochFactor(i int, ep uint64) float64 {
	if ep <= 1 {
		return 1
	}
	h := (uint64(i)+1)*2654435761 ^ ep*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return 0.5 + float64(h%1000)/999.0
}

// StatsEpoch implements core.EpochEngine.
func (e *EpochEngine) StatsEpoch() uint64 { return e.epoch.Load() }

// CostEpoch implements core.EpochEngine. Every synthetic epoch rescales
// every plan's cost, so the cost epoch is always the statistics epoch.
func (e *EpochEngine) CostEpoch() uint64 { return e.epoch.Load() }

// Advance installs the next statistics generation and returns its id.
func (e *EpochEngine) Advance() uint64 { return e.epoch.Add(1) }

// OptimizeEpoch implements core.EpochEngine: the cheapest plan at sv
// under the current epoch's cost scaling.
func (e *EpochEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if len(sv) != e.d {
		return nil, 0, 0, fmt.Errorf("pqotest: sVector length %d, want %d", len(sv), e.d)
	}
	ep := e.epoch.Load()
	e.optimizeCalls.Add(1)
	best, bestCost := -1, math.Inf(1)
	for i := range e.specs {
		if c := e.specs[i].Cost(sv) * e.epochFactor(i, ep); c < bestCost {
			best, bestCost = i, c
		}
	}
	return e.cps[best], bestCost, ep, nil
}

// RecostEpoch implements core.EpochEngine.
func (e *EpochEngine) RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	i, ok := e.byFP[cp.Fingerprint()]
	if !ok {
		return 0, 0, fmt.Errorf("pqotest: unknown plan %q", cp.Fingerprint())
	}
	ep := e.epoch.Load()
	e.recostCalls.Add(1)
	return e.specs[i].Cost(sv) * e.epochFactor(i, ep), ep, nil
}

// Optimize shadows the embedded engine so epoch-unaware callers still
// observe the current generation's costs.
func (e *EpochEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	cp, c, _, err := e.OptimizeEpoch(sv)
	return cp, c, err
}

// Recost shadows the embedded engine for the same reason.
func (e *EpochEngine) Recost(cp *engine.CachedPlan, sv []float64) (float64, error) {
	c, _, err := e.RecostEpoch(cp, sv)
	return c, err
}

// CostAt returns the ground-truth cost at sv of the plan with the given
// fingerprint under epoch ep. No call counter is charged. The second
// result is false for an unknown fingerprint.
func (e *EpochEngine) CostAt(fp string, sv []float64, ep uint64) (float64, bool) {
	i, ok := e.byFP[fp]
	if !ok {
		return math.NaN(), false
	}
	return e.specs[i].Cost(sv) * e.epochFactor(i, ep), true
}

// OptimalCostAt returns the ground-truth optimal cost at sv under epoch
// ep. No call counter is charged.
func (e *EpochEngine) OptimalCostAt(sv []float64, ep uint64) float64 {
	best := math.Inf(1)
	for i := range e.specs {
		if c := e.specs[i].Cost(sv) * e.epochFactor(i, ep); c < best {
			best = c
		}
	}
	return best
}
