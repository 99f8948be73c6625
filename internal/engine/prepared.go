package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/stats"
)

// PreparedInstance is a per-query-instance recosting context: the pooled
// selectivity environment plus the instance's cache-key hash, built once and
// used to recost any number of candidate plans. This is the batched form of
// TemplateEngine.Recost — SCR's top-k scan, ProbeCheck and the redundancy
// sweep recost N plans per instance, and pay for selectivity-state
// construction once instead of N times.
//
// A PreparedInstance is single-goroutine state; concurrent instances each
// prepare their own. Release returns it (and its environment) to the pool.
type PreparedInstance struct {
	eng *TemplateEngine
	env *memo.Env
	sv  []float64
	svh uint64
}

// EpochID returns the cost epoch this instance was prepared under
// (TemplateEngine.CostEpoch at preparation). Every Recost through the
// instance is computed — and cached — against exactly this generation.
func (pi *PreparedInstance) EpochID() uint64 { return pi.env.EpochID() }

var preparedPool = sync.Pool{New: func() any { return new(PreparedInstance) }}

// PrepareRecost builds a recosting context for one instance's selectivity
// vector. The returned instance borrows sv — the caller must not mutate it
// until Release.
func (e *TemplateEngine) PrepareRecost(sv []float64) (*PreparedInstance, error) {
	//lint:allow envpool pool manager: PreparedInstance owns the env until its own Release
	env, err := e.Opt.PrepareEnv(e.Tpl, sv)
	if err != nil {
		return nil, err
	}
	pi := preparedPool.Get().(*PreparedInstance)
	pi.eng = e
	//lint:allow envpool pool manager: Release returns this env to the pool
	pi.env = env
	pi.sv = sv
	pi.svh = stats.HashSVector(sv)
	return pi, nil
}

// Recost computes the cost of a cached plan at this instance's selectivity
// vector, consulting the engine's recost result cache first.
func (pi *PreparedInstance) Recost(cp *CachedPlan) (float64, error) {
	if cp == nil {
		return 0, fmt.Errorf("engine: recost of nil cached plan")
	}
	e := pi.eng
	key := recostKey{fp: cp.Plan.Fingerprint(), svh: pi.svh, epoch: pi.env.EpochID()}
	if c, ok := e.rc.get(key, pi.sv); ok {
		return c, nil
	}
	start := time.Now()
	c, err := cp.SM.RecostWith(e.Opt, pi.env)
	if err != nil {
		return 0, err
	}
	e.recostNanos.Add(time.Since(start).Nanoseconds())
	e.recostCalls.Add(1)
	e.rc.put(key, pi.sv, c)
	return c, nil
}

// Release returns the instance's pooled state. The instance must not be
// used afterwards.
func (pi *PreparedInstance) Release() {
	if pi == nil {
		return
	}
	pi.eng.Opt.ReleaseEnv(pi.env)
	pi.eng, pi.env, pi.sv = nil, nil, nil
	preparedPool.Put(pi)
}
