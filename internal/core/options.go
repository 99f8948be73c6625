package core

import (
	"fmt"
	"math"
	"time"
)

// Option configures an SCR built with New. Options validate their inputs
// and return errors instead of silently substituting defaults; an invalid
// option fails New with an error wrapping ErrInvalidConfig.
type Option func(*config) error

// DefaultLambda is the sub-optimality bound New uses when no WithLambda
// option is given (the λ=2 operating point the paper evaluates most).
const DefaultLambda = 2.0

// New builds an SCR over eng from functional options, the only way to
// construct one. Every option checks its own range; omitted options take
// the documented defaults (λ=2, λr=√λ, cost-check limit 8, cluster skew
// bound 1, no plan budget, no violation detection). The one rule that
// spans two options, λr ≤ λ, is checked here once all have applied.
func New(eng Engine, opts ...Option) (*SCR, error) {
	cfg := config{lambda: DefaultLambda, costCheckLimit: 8, skewBound: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.lambdaR > cfg.lambda {
		return nil, optErr("lambdaR %v must not exceed lambda %v", cfg.lambdaR, cfg.lambda)
	}
	switch {
	case cfg.storeAlways:
		cfg.lambdaR = 1
	case cfg.lambdaR == 0:
		cfg.lambdaR = math.Sqrt(cfg.lambda)
	}
	s := &SCR{cfg: cfg, eng: eng}
	if ee, ok := eng.(EpochEngine); ok {
		s.epochEng = ee
	}
	if cfg.breakerThreshold > 0 {
		s.breaker = newBreaker(cfg.breakerThreshold, cfg.breakerCooldown)
	}
	s.dom.init(s)
	return s, nil
}

func optErr(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
}

// WithLambda sets the cost sub-optimality bound λ ≥ 1 every processed
// instance must satisfy.
func WithLambda(lambda float64) Option {
	return func(c *config) error {
		if lambda < 1 {
			return optErr("lambda %v must be >= 1", lambda)
		}
		c.lambda = lambda
		return nil
	}
}

// WithDynamicLambda enables Appendix D's per-instance λ: cheap instances
// get a bound near max, expensive ones near min, decaying exponentially on
// the refCost scale.
func WithDynamicLambda(min, max, refCost float64) Option {
	return func(c *config) error {
		if min < 1 || max < min {
			return optErr("dynamic lambda range [%v, %v] invalid", min, max)
		}
		if refCost <= 0 {
			return optErr("dynamic lambda refCost %v must be > 0", refCost)
		}
		c.dynamic = &DynamicLambda{Min: min, Max: max, RefCost: refCost}
		return nil
	}
}

// WithRedundancyThreshold sets the redundancy-check threshold λr in
// [1, λ] (Appendix E). Without this option λr defaults to √λ; New rejects
// a λr above the final λ.
func WithRedundancyThreshold(lambdaR float64) Option {
	return func(c *config) error {
		if lambdaR < 1 {
			return optErr("lambdaR %v must be >= 1", lambdaR)
		}
		c.lambdaR = lambdaR
		return nil
	}
}

// WithStoreAlways disables the redundancy check entirely: every newly
// optimized plan is kept (λr = 1).
func WithStoreAlways() Option {
	return func(c *config) error {
		c.storeAlways = true
		return nil
	}
}

// WithPlanBudget sets the hard limit k ≥ 1 on cached plans (§6.3.1),
// enforced by LFU eviction. Without this option the cache is unbounded.
func WithPlanBudget(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return optErr("plan budget %d must be >= 1 (omit the option for unlimited)", k)
		}
		c.planBudget = k
		return nil
	}
}

// WithCostCheckLimit bounds the number of Recost calls per getPlan to
// n ≥ 1 (§6.2's pruning heuristic). Without this option the limit is 8.
func WithCostCheckLimit(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("cost-check limit %d must be >= 1 (use WithoutCostCheck to disable)", n)
		}
		c.costCheckLimit = n
		return nil
	}
}

// WithoutCostCheck disables the cost check entirely: instances failing the
// selectivity check go straight to the optimizer.
func WithoutCostCheck() Option {
	return func(c *config) error {
		c.costCheckLimit = -1
		return nil
	}
}

// WithCandidateOrderByL sorts cost-check candidates by increasing L
// instead of the paper's increasing G·L. Rationale (an extension over
// §6.2): the cost check replaces G with the measured ratio R, so a
// candidate's G is irrelevant to whether R·L ≤ λ/S can hold — only a
// small L gives headroom. Instances the new one *dominates* have L = 1
// and are the most likely to pass, yet have the largest G·L and are
// pruned first under GL order. L-ordering markedly reduces optimizer
// calls on high-dimensional templates (see the candidate-order ablation
// bench).
func WithCandidateOrderByL() Option {
	return func(c *config) error {
		c.orderByL = true
		return nil
	}
}

// WithDegradedFallback enables degraded-mode serving: when the optimizer
// is unavailable (error, panic, deadline expiry, open circuit breaker)
// Process serves the cheapest cached plan and flags the Decision as
// Degraded with a DegradedReason, instead of returning an error. Degraded
// decisions explicitly relax the λ guarantee — see docs/ROBUSTNESS.md for
// the full degradation ladder. Context cancellation is never absorbed:
// a cancelled caller still gets an ErrCancelled error.
func WithDegradedFallback() Option {
	return func(c *config) error {
		c.degradedFallback = true
		return nil
	}
}

// WithOptimizerDeadline bounds each full optimizer call to d > 0. A call
// exceeding the deadline is abandoned — it keeps running detached and
// still populates the plan cache if it completes — and the waiting
// instance is served degraded (with WithDegradedFallback) or fails with
// ErrOptimizerTimeout.
func WithOptimizerDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return optErr("optimizer deadline %v must be > 0", d)
		}
		c.optimizerDeadline = d
		return nil
	}
}

// WithCircuitBreaker arms a circuit breaker on the optimizer: after
// failures >= 1 consecutive optimizer failures/timeouts the breaker opens
// and optimizer calls are skipped for cooldown > 0, after which a single
// half-open probe decides whether to close it again. While open, instances
// that miss the cache are served degraded (with WithDegradedFallback) or
// fail with ErrBreakerOpen.
func WithCircuitBreaker(failures int, cooldown time.Duration) Option {
	return func(c *config) error {
		if failures < 1 {
			return optErr("breaker threshold %d must be >= 1", failures)
		}
		if cooldown <= 0 {
			return optErr("breaker cooldown %v must be > 0", cooldown)
		}
		c.breakerThreshold = failures
		c.breakerCooldown = cooldown
		return nil
	}
}

// WithClusterSkewBound sets how many statistics generations n ≥ 1 the node
// may lag the observed cluster epoch (ObserveClusterEpoch) before Process
// flags every decision as ViaFallback/"epoch-skew". Without this option the
// bound is 1: adjacent generations only, matching the epoch coordinator's
// default withhold rule (docs/ROBUSTNESS.md).
func WithClusterSkewBound(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return optErr("cluster skew bound %d must be >= 1", n)
		}
		c.skewBound = n
		return nil
	}
}

// WithViolationDetection enables Appendix G's BCG-violation quarantine
// with the given relative tolerance in (0, 1).
func WithViolationDetection(tolerance float64) Option {
	return func(c *config) error {
		if tolerance <= 0 || tolerance >= 1 {
			return optErr("violation tolerance %v must be in (0, 1)", tolerance)
		}
		c.detectViolations = true
		c.violationTol = tolerance
		return nil
	}
}
