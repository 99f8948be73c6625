package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
)

// This file is the degraded-mode half of SCR's resilience layer
// (docs/ROBUSTNESS.md): when the optimizer is unavailable — slow past its
// deadline, erroring, panicking, or gated by the circuit breaker — the
// instance is served from the cheapest cached plan with the Decision
// explicitly flagged Degraded, instead of turning the fault into a caller
// error. The λ guarantee is relaxed, never silently: every degraded
// decision carries its DegradedReason and is counted in Stats.

// degradeReason classifies the failure err into the DegradedReason the
// fallback decision will carry.
func degradeReason(err error) DegradedReason {
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return DegradedBreakerOpen
	case errors.Is(err, ErrOptimizerTimeout):
		return DegradedOptimizerTimeout
	case errors.Is(err, ErrOptimizerPanic):
		return DegradedOptimizerPanic
	default:
		return DegradedOptimizerError
	}
}

// snapshotPlans returns the published plan list, already in fingerprint
// order (deterministic fallback choice). The slice belongs to the
// immutable snapshot: read it, never mutate it.
func (s *SCR) snapshotPlans() []*planEntry {
	return s.snapshot().plans
}

// degrade serves sv without a λ guarantee: it recosts every cached plan
// and returns the cheapest as a Degraded decision. Plans whose recost
// fails (or panics) are skipped; if no plan can be ranked the first plan
// in fingerprint order is served anyway — in production, a flagged
// possibly-λ-violating plan beats an error. Cancellation is never
// absorbed, and an empty cache cannot degrade: both return errors.
func (s *SCR) degrade(sv []float64, reason DegradedReason, cause error) (*Decision, error) {
	if errors.Is(cause, ErrCancelled) {
		return nil, cause
	}
	pes := s.snapshotPlans()
	if len(pes) == 0 {
		return nil, fmt.Errorf("%w (cause: %w)", ErrUnavailable, cause)
	}
	best := s.rankFallback(pes, sv)
	if best == nil {
		// Recosting is failing too (ladder step: cached-min-cost without
		// ranking). Deterministic last resort: lowest fingerprint.
		best = pes[0]
	}
	s.ctr.degraded.Add(1)
	return &Decision{
		Plan:           best.cp,
		Via:            ViaFallback,
		Degraded:       true,
		DegradedReason: reason,
		Epoch:          s.costEpoch(),
	}, nil
}

// rankFallback returns the cached plan with the lowest recost at sv, or
// nil when every recost failed. Panics from a faulty engine are contained
// here — degrade must never re-panic out of Process's recovery path.
func (s *SCR) rankFallback(pes []*planEntry, sv []float64) (best *planEntry) {
	defer func() {
		if recover() != nil {
			best = nil
		}
	}()
	pi := s.prepareRecost(sv)
	defer pi.Release()
	bestCost := 0.0
	for _, pe := range pes {
		c, err := s.safeRecost(pi, pe.cp, sv)
		if err != nil {
			continue
		}
		if best == nil || c < bestCost {
			best, bestCost = pe, c
		}
	}
	return best
}

// safeRecost is recostWith with panic containment.
func (s *SCR) safeRecost(pi *engine.PreparedInstance, cp *engine.CachedPlan, sv []float64) (c float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = 0, fmt.Errorf("pqo: recost panicked: %v", r)
		}
	}()
	return s.recostWith(pi, cp, sv)
}

// optResult carries one optimizer call's outcome across the deadline
// boundary.
type optResult struct {
	cp    *engine.CachedPlan
	cost  float64
	epoch uint64
	err   error
}

// callOptimizer runs the full optimizer call through the resilience
// layer: the circuit breaker gates it, the optional deadline bounds it,
// and panics become ErrOptimizerPanic. When none of the resilience knobs
// are configured this is exactly the bare engine call — the existing fast
// path. The returned epoch is the statistics generation the search ran
// under (0 for epoch-less engines). The background revalidator funnels
// its optimizer calls through here too, so it honors the same breaker and
// fault-injection sites as foreground traffic.
func (s *SCR) callOptimizer(ctx context.Context, sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if s.breaker == nil && s.cfg.optimizerDeadline <= 0 && !s.cfg.degradedFallback {
		return s.engOptimize(sv)
	}
	if !s.breaker.Allow() {
		return nil, 0, 0, fmt.Errorf("%w: optimizer calls suspended", ErrBreakerOpen)
	}
	cp, cost, epoch, err := s.optimizeBounded(ctx, sv)
	switch {
	case err == nil:
		s.breaker.RecordSuccess()
	case errors.Is(err, ErrCancelled):
		// The caller went away; that says nothing about optimizer health.
		s.breaker.RecordCancel()
	default:
		s.breaker.RecordFailure()
	}
	return cp, cost, epoch, err
}

// engOptimize is the bare engine call, epoch-reporting when the engine
// supports it.
func (s *SCR) engOptimize(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	if s.epochEng != nil {
		return s.epochEng.OptimizeEpoch(sv)
	}
	cp, cost, err := s.eng.Optimize(sv)
	return cp, cost, 0, err
}

// optimizeBounded runs Optimize under the configured deadline. Without a
// deadline it is a panic-contained direct call. With one, the call runs in
// a goroutine: if the deadline (or the caller's context) expires first the
// call is abandoned — but left running, and its result is adopted into the
// cache on completion, so a slow optimizer still warms the cache for
// future instances.
func (s *SCR) optimizeBounded(ctx context.Context, sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	d := s.cfg.optimizerDeadline
	if d <= 0 {
		return s.safeOptimize(sv)
	}
	// The caller owns sv and may reuse it once Process returns; the
	// detached call needs its own copy.
	svc := make([]float64, len(sv))
	copy(svc, sv)
	ch := make(chan optResult, 1)
	go func() {
		var r optResult
		r.cp, r.cost, r.epoch, r.err = s.safeOptimize(svc)
		ch <- r
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.cp, r.cost, r.epoch, r.err
	case <-timer.C:
		go s.adoptLateResult(svc, ch)
		return nil, 0, 0, fmt.Errorf("%w (budget %v)", ErrOptimizerTimeout, d)
	case <-ctx.Done():
		go s.adoptLateResult(svc, ch)
		return nil, 0, 0, cancelled(ctx.Err())
	}
}

// safeOptimize is the bare optimizer call with panic containment.
func (s *SCR) safeOptimize(sv []float64) (cp *engine.CachedPlan, cost float64, epoch uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			cp, cost, epoch, err = nil, 0, 0, fmt.Errorf("%w: %v", ErrOptimizerPanic, r)
		}
	}()
	return s.engOptimize(sv)
}

// adoptLateResult waits for an abandoned optimizer call and, if it
// eventually succeeded, stores its plan so the stall still warms the
// cache.
func (s *SCR) adoptLateResult(sv []float64, ch <-chan optResult) {
	r := <-ch
	if r.err != nil || r.cp == nil {
		return
	}
	s.ctr.optCalls.Add(1)
	if err := s.storePlan(sv, r.cp, r.cost, r.epoch, nil); err != nil {
		_ = err // cache bookkeeping failed; nothing is waiting on this call
	}
}
