package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/memo"
)

// PreparedInstance is a per-query-instance recosting context: the pooled
// selectivity environment, built once and used to recost any number of
// candidate plans. This is the batched form of TemplateEngine.Recost —
// SCR's top-k scan, ProbeCheck and the redundancy sweep recost N plans per
// instance, and pay for selectivity-state construction once instead of N
// times.
//
// A PreparedInstance is single-goroutine state; concurrent instances each
// prepare their own. Release returns it (and its environment) to the pool.
type PreparedInstance struct {
	eng *TemplateEngine
	env *memo.Env
	// calls and nanos are this instance's recost accounting, added to the
	// engine's shared counters once, on Release, instead of by one atomic
	// read-modify-write per recost. base is the engine's recost count at
	// preparation; it phases the timing stride.
	calls, nanos, base int64
}

// EpochID returns the cost epoch this instance was prepared under
// (TemplateEngine.CostEpoch at preparation). Every Recost through the
// instance is computed against exactly this generation.
func (pi *PreparedInstance) EpochID() uint64 { return pi.env.EpochID() }

var preparedPool = sync.Pool{New: func() any { return new(PreparedInstance) }}

// PrepareRecost builds a recosting context for one instance's selectivity
// vector. The instance does not retain sv.
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
	pi.calls, pi.nanos, pi.base = 0, 0, e.recostCalls.Load()
	return pi, nil
}

// recostSampleEvery is the stride of recost timing: the first recost and
// every recostSampleEvery-th after it are timed, each sample standing for
// that many calls. Timing every call reads the clock three times, about
// 40% of a prepared recost.
const recostSampleEvery = 8

// Recost computes the cost of a cached plan at this instance's selectivity
// vector: one flat pass over the plan's shrunken memo (Appendix B), which
// the plan's first recost compiles. The call count is exact once the
// instance is released; the time accounted (Timing) is a sampled estimate.
func (pi *PreparedInstance) Recost(cp *CachedPlan) (float64, error) {
	if cp == nil {
		return 0, fmt.Errorf("engine: recost of nil cached plan")
	}
	sm, err := cp.memo()
	if err != nil {
		return 0, err
	}
	o := pi.eng.Opt
	if (pi.base+pi.calls)%recostSampleEvery != 0 {
		c, err := sm.RecostWith(o, pi.env)
		if err != nil {
			return 0, err
		}
		pi.calls++
		return c, nil
	}
	start := time.Now()
	c, err := sm.RecostWith(o, pi.env)
	if err != nil {
		return 0, err
	}
	pi.nanos += time.Since(start).Nanoseconds() * recostSampleEvery
	pi.calls++
	return c, nil
}

// Release adds the instance's recost accounting to the engine's and
// returns its pooled state. The instance must not be used afterwards.
func (pi *PreparedInstance) Release() {
	if pi == nil {
		return
	}
	e := pi.eng
	if pi.calls > 0 {
		e.recostCalls.Add(pi.calls)
		e.recostNanos.Add(pi.nanos)
	}
	e.Opt.ReleaseEnv(pi.env)
	pi.eng, pi.env = nil, nil
	preparedPool.Put(pi)
}
