// Package core implements the paper's primary contribution: the SCR online
// PQO technique (Selectivity check, Cost check, Redundancy check) with its
// plan cache, λ-optimality guarantee machinery, plan-budget enforcement,
// dynamic λ (Appendix D), BCG-violation detection (Appendix G) and the
// existing-plan redundancy sweep (Appendix F).
//
// It also defines the Technique interface shared with the baseline
// techniques of package baselines, and the selectivity-factor arithmetic
// (G, L) of §5.3 used by both.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
)

// Check identifies how a plan decision was made for an instance.
type Check int

const (
	// ViaOptimizer means a full optimizer call was made.
	ViaOptimizer Check = iota
	// ViaSelectivity means the selectivity check inferred a cached plan.
	ViaSelectivity
	// ViaCost means the recost-based cost check inferred a cached plan.
	ViaCost
	// ViaInference means a baseline-specific inference reused a cached
	// plan (ellipse, density, range, PCM box, optimize-once reuse...).
	ViaInference
	// ViaFallback means degraded-mode serving: the optimizer was
	// unavailable (deadline, error, panic or open breaker) and the
	// cheapest cached plan was served without a λ guarantee.
	ViaFallback
)

// String names the check for reports.
func (c Check) String() string {
	switch c {
	case ViaOptimizer:
		return "optimizer"
	case ViaSelectivity:
		return "selectivity-check"
	case ViaCost:
		return "cost-check"
	case ViaInference:
		return "inference"
	case ViaFallback:
		return "degraded-fallback"
	default:
		return fmt.Sprintf("check(%d)", int(c))
	}
}

// Decision is the outcome of processing one query instance.
type Decision struct {
	// Plan is the plan the technique selected for execution.
	Plan *engine.CachedPlan
	// Optimized reports whether this call paid a full optimizer call.
	Optimized bool
	// Via records which mechanism produced the plan.
	Via Check
	// Shared reports that the decision was produced by another in-flight
	// call for the same instance (singleflight dedup): this caller paid
	// neither an optimizer call nor a cache check.
	Shared bool
	// Degraded reports that the λ guarantee was explicitly relaxed for
	// this decision: the optimizer was unavailable and the plan came from
	// the degraded-mode fallback over the cache. Degraded decisions may
	// violate SubOpt ≤ λ; DegradedReason says why the relaxation happened.
	Degraded bool
	// DegradedReason identifies the failure the fallback absorbed; empty
	// unless Degraded.
	DegradedReason DegradedReason
	// Epoch is the id of the statistics epoch the decision's guarantee is
	// stated against: the cost epoch (EpochEngine.CostEpoch) of the anchor
	// instance that inferred the plan (selectivity/cost check) or of the
	// optimizer call. It trails the node's StatsEpoch for a template whose
	// statistics did not move in the later advances — its costs are the
	// same under every epoch since, so the guarantee holds against all of
	// them. During revalidation lag an entry anchored under an older cost
	// epoch may serve with its old id — the λ bound then holds against
	// that generation's statistics, not the newest. Zero when the engine
	// has no epoch lifecycle.
	Epoch uint64
	// Cost is the plan's estimated cost at the instance, as already
	// computed by the check that produced the decision: the Recost a cost
	// check compared against λ, or the optimizer's cost for the plan it
	// chose (shared optimizer results included). It is priced under Epoch.
	// Meaningful only when HasCost is set; selectivity-check hits and
	// degraded fallbacks compute no cost for the chosen plan.
	Cost float64
	// HasCost reports that Cost is set.
	HasCost bool
}

// DegradedReason classifies why a decision was served without its λ
// guarantee.
type DegradedReason string

// Degradation causes, in the order the resilience layer checks them.
const (
	// DegradedBreakerOpen: the optimizer circuit breaker was open, so no
	// optimizer call was attempted.
	DegradedBreakerOpen DegradedReason = "breaker-open"
	// DegradedOptimizerTimeout: the optimizer call exceeded the
	// WithOptimizerDeadline budget and was abandoned (it still populates
	// the cache if it eventually completes).
	DegradedOptimizerTimeout DegradedReason = "optimizer-timeout"
	// DegradedOptimizerPanic: the optimizer panicked and the panic was
	// recovered into the fallback path.
	DegradedOptimizerPanic DegradedReason = "optimizer-panic"
	// DegradedOptimizerError: the optimizer (or the cache-management
	// recosting behind it) returned an error.
	DegradedOptimizerError DegradedReason = "optimizer-error"
	// DegradedStatsEpochLag: the statistics epoch advanced and the
	// instance's best cached candidates are anchored under a previous
	// epoch, not yet revalidated. Rather than stampede the optimizer (or
	// mix anchor factors across generations in the cost check), the best
	// lagging candidate is served flagged; the background revalidator
	// retires the lag.
	DegradedStatsEpochLag DegradedReason = "stats-epoch-lag"
	// DegradedEpochSkew: the node knows (via ObserveClusterEpoch) that the
	// cluster-wide statistics generation is more than the configured skew
	// bound ahead of its own installed epoch — e.g. it missed a
	// coordinator push during a partition. Decisions are still λ-valid
	// against the node's own generation (Decision.Epoch says which), but
	// they are flagged so callers never silently mix answers from
	// generations further apart than the bound (docs/ROBUSTNESS.md).
	DegradedEpochSkew DegradedReason = "epoch-skew"
)

// Stats are cumulative counters a technique reports. Counter semantics
// follow §2.1's metrics.
type Stats struct {
	// Instances processed so far.
	Instances int64
	// OptCalls is numOpt: full optimizer calls incurred.
	OptCalls int64
	// SharedOptCalls counts instances served by joining another caller's
	// in-flight optimizer call (singleflight dedup) instead of paying
	// their own.
	SharedOptCalls int64
	// ReadPathHits counts instances served by the lock-free read path
	// (selectivity or cost check over the published snapshot);
	// WritePathHits counts instances that missed the first read-path pass
	// but were served by the second-chance check on the miss path, after
	// another flight populated the cache.
	ReadPathHits  int64
	WritePathHits int64
	// WriteLockWait accumulates time spent waiting to acquire the cache's
	// writer mutex — the only lock left; the read path acquires none, so
	// there is no read-side counterpart.
	WriteLockWait time.Duration
	// WriteDomains is the number of independent write domains behind these
	// stats: 1 for a single SCR, the template count when aggregated by a
	// Directory. Writers to different domains never contend.
	WriteDomains int
	// PublishTotal counts snapshot publications; PublishCoalesced counts
	// mutations that were folded into another mutation's publication
	// instead of paying their own (PublishTotal + PublishCoalesced =
	// publication marks, i.e. mutation batches).
	PublishTotal     int64
	PublishCoalesced int64
	// GetPlanRecosts counts Recost invocations on the critical path
	// (the cost check of getPlan).
	GetPlanRecosts int64
	// ManageRecosts counts Recost invocations off the critical path
	// (redundancy checks in manageCache).
	ManageRecosts int64
	// SelChecks counts instance-list entries examined by selectivity
	// checks (getPlan scanning overhead).
	SelChecks int64
	// CurPlans is the number of plans currently cached; MaxPlans is the
	// high-water mark (the paper's numPlans).
	CurPlans int
	MaxPlans int
	// MemoryBytes estimates current plan-cache memory (§6.1).
	MemoryBytes int64
	// Violations counts BCG/PCM violations detected via Appendix G.
	Violations int64
	// Evictions counts plans dropped to enforce the plan budget.
	Evictions int64
	// RedundantPlansRejected counts new plans discarded by the
	// redundancy check.
	RedundantPlansRejected int64
	// EnvPoolGets / EnvPoolReuses report the engine's pooled selectivity
	// environments: contexts handed out and pool reuses (zero when the
	// engine does not implement CacheReporter).
	EnvPoolGets   int64
	EnvPoolReuses int64
	// DegradedDecisions counts instances served by the degraded-mode
	// fallback (Decision.Degraded), i.e. without their λ guarantee.
	DegradedDecisions int64
	// ReadPathErrors counts read-path (selectivity/cost check) engine
	// failures that degraded fallback absorbed by skipping the checks.
	ReadPathErrors int64
	// BreakerState is the optimizer circuit breaker's current state
	// (BreakerClosed when no breaker is configured); the transition
	// counters record closed→open, open→half-open and half-open→closed
	// moves respectively.
	BreakerState     BreakerState
	BreakerOpens     int64
	BreakerHalfOpens int64
	BreakerCloses    int64
	// InjectedFaults reports faults injected by a fault-injecting engine
	// wrapper (zero when the engine does not implement FaultReporter).
	InjectedFaults int64
	// StatsEpoch is the engine's current statistics epoch id (zero when
	// the engine has no epoch lifecycle); LaggingInstances counts cached
	// instance entries whose anchors were computed under an older cost
	// epoch than the engine's current one and await revalidation.
	StatsEpoch       uint64
	LaggingInstances int64
	// Revalidation counters: anchors re-derived under a new epoch
	// (RevalidatedPlans), entries whose plan survived with a demoted
	// sub-optimality (RevalDemoted), entries/plans dropped because the
	// redundancy threshold no longer held (RevalDroppedInstances,
	// RevalDroppedPlans), anchors whose revalidation errored
	// (RevalFailed), and instances served flagged during epoch lag
	// (EpochLagFallbacks).
	RevalidatedPlans      int64
	RevalDemoted          int64
	RevalDroppedInstances int64
	RevalDroppedPlans     int64
	RevalFailed           int64
	EpochLagFallbacks     int64
	// ClusterEpoch is the highest cluster-wide statistics generation the
	// node has observed (ObserveClusterEpoch); zero when the node has
	// never heard from a coordinator. EpochSkew is how many generations
	// the node's own StatsEpoch lags it (0 when caught up or ahead), and
	// EpochSkewFlagged counts decisions served flagged because that skew
	// exceeded the configured bound.
	ClusterEpoch     uint64
	EpochSkew        uint64
	EpochSkewFlagged int64
}

// Technique is an online PQO technique processing a stream of query
// instances (identified by their selectivity vectors) for one template.
type Technique interface {
	// Name identifies the technique and its configuration, e.g. "SCR(2)".
	Name() string
	// Process decides a plan for the instance with selectivity vector sv.
	// Cancelling ctx makes Process return an error wrapping ErrCancelled;
	// techniques check it at least before starting an optimizer call.
	Process(ctx context.Context, sv []float64) (*Decision, error)
	// Stats returns cumulative counters.
	Stats() Stats
}

// Engine is the database-engine surface a technique requires (§4.2): a full
// optimizer call and the Recost API. engine.TemplateEngine implements it;
// tests substitute synthetic engines with closed-form cost functions.
type Engine interface {
	// Dimensions returns the template's parameter count d.
	Dimensions() int
	// Optimize returns the optimal plan and its cost for sv.
	Optimize(sv []float64) (*engine.CachedPlan, float64, error)
	// Recost returns the cost of a previously optimized plan at sv.
	Recost(cp *engine.CachedPlan, sv []float64) (float64, error)
}

// BatchEngine is the optional batched-recosting surface of an Engine: a
// caller about to recost several plans for one instance prepares the
// instance once (selectivity state + cache key) and recosts candidates
// against it. engine.TemplateEngine implements it; synthetic test engines
// need not, and techniques fall back to per-call Recost when the engine
// does not batch.
type BatchEngine interface {
	Engine
	// PrepareRecost builds a reusable recosting context for sv. The caller
	// must Release it and must not mutate sv until then.
	PrepareRecost(sv []float64) (*engine.PreparedInstance, error)
}

// EpochEngine is the optional versioned-statistics surface of an Engine:
// engines whose statistics roll forward in epochs report the generation a
// cost was derived under, so the plan cache can tag its anchors, key
// served guarantees by epoch, and revalidate lazily instead of flushing.
// engine.TemplateEngine implements it; epoch-less engines are treated as
// permanently at epoch 0.
type EpochEngine interface {
	Engine
	// StatsEpoch returns the id of the current statistics epoch: the
	// node generation.
	StatsEpoch() uint64
	// CostEpoch returns the id of the newest epoch that changed any
	// statistic this engine's costs read. Costs are identical across
	// epochs sharing a cost epoch, so anchors, decisions and the lag test
	// use it; it never exceeds StatsEpoch.
	CostEpoch() uint64
	// OptimizeEpoch is Optimize plus the cost epoch the search ran under.
	OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error)
	// RecostEpoch is Recost plus the cost epoch the cost was derived under.
	RecostEpoch(cp *engine.CachedPlan, sv []float64) (float64, uint64, error)
}

// FaultReporter is the optional accounting surface of a fault-injecting
// engine wrapper (internal/faultinject), surfacing how many faults were
// injected through Stats and /metrics.
type FaultReporter interface {
	// InjectedFaults reports the cumulative number of injected faults.
	InjectedFaults() int64
}

// CacheReporter is the optional accounting surface of an Engine exposing
// the pooled-environment counters surfaced through Stats and /metrics.
type CacheReporter interface {
	// EnvPoolCounters reports pooled selectivity environments handed out
	// and pool reuses.
	EnvPoolCounters() (gets, reuses int64)
}
