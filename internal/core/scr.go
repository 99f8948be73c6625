package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// config is SCR's configuration. Only Options fill it, and New supplies
// the defaults, so every field holds its effective value.
type config struct {
	// lambda is the cost sub-optimality bound λ ≥ 1 every processed
	// instance must satisfy (SO(q) ≤ λ).
	lambda float64
	// lambdaR is the redundancy-check threshold λr in [1, λ]: √λ by
	// default (Appendix E), 1 under storeAlways.
	lambdaR float64
	// storeAlways skips the redundancy check: every new plan is kept.
	storeAlways bool
	// planBudget is the hard limit k on cached plans; 0 means unlimited
	// (§6.3.1).
	planBudget int
	// costCheckLimit bounds the number of Recost calls per getPlan: the
	// selectivity check collects cost-check candidates in increasing GL
	// order and rejects the rest (§6.2's pruning heuristic). Negative
	// disables the cost check entirely.
	costCheckLimit int
	// orderByL sorts cost-check candidates by increasing L instead of
	// G·L (WithCandidateOrderByL).
	orderByL bool
	// detectViolations enables Appendix G: instances whose recost reveals
	// a BCG violation beyond the relative slack violationTol are
	// quarantined from future cost-check reuse.
	detectViolations bool
	violationTol     float64
	// dynamic enables Appendix D's per-instance λ; nil keeps λ static.
	dynamic *DynamicLambda

	// degradedFallback, optimizerDeadline and the breaker fields are the
	// degraded-mode knobs (WithDegradedFallback, WithOptimizerDeadline,
	// WithCircuitBreaker; docs/ROBUSTNESS.md). Zero values disarm them.
	degradedFallback  bool
	optimizerDeadline time.Duration
	breakerThreshold  int
	breakerCooldown   time.Duration

	// skewBound is the cross-node statistics-generation skew the node
	// tolerates before flagging its decisions with DegradedEpochSkew
	// (WithClusterSkewBound).
	skewBound int
}

// DynamicLambda maps an instance's optimal cost to a λ in [Min, Max] via an
// exponentially decaying function of cost (Appendix D): cheap instances get
// a loose bound (large λ), expensive instances a tight one.
type DynamicLambda struct {
	Min, Max float64
	// RefCost is the decay scale: λ(C) = Min + (Max−Min)·exp(−C/RefCost).
	RefCost float64
}

// lambdaFor returns the sub-optimality bound to enforce for an instance
// whose optimal cost is c.
func (c0 *config) lambdaFor(c float64) float64 {
	if c0.dynamic == nil {
		return c0.lambda
	}
	d := c0.dynamic
	return d.Min + (d.Max-d.Min)*math.Exp(-c/d.RefCost)
}

// lambdaMax is the loosest sub-optimality bound any instance can be held
// to: λ itself, or the dynamic range's upper end. It bounds the
// selectivity check's log distance: an entry can only pass it for a
// query within log(λmax/S) of the entry (the snapshot's selCut, getPlan).
func (c0 *config) lambdaMax() float64 {
	if c0.dynamic != nil {
		return c0.dynamic.Max
	}
	return c0.lambda
}

// planEntry is one plan in the plan cache's plan list.
type planEntry struct {
	cp *engine.CachedPlan
	fp string
}

// anchor is the guarantee-bearing core of an instance entry: the optimal
// cost C and sub-optimality S of §6.1's 5-tuple, tagged with the
// statistics epoch they were derived under. C and S are only meaningful
// together and only against one statistics generation, so they live in a
// single immutable struct behind an atomic pointer — readers always
// observe a consistent (C, S, epoch) triple, and the background
// revalidator re-anchors entries by swapping the pointer without taking
// the cache's write lock.
type anchor struct {
	c     float64 // C: optimizer-estimated optimal cost at V
	s     float64 // S: sub-optimality of PP at V
	epoch uint64  // statistics epoch C and S were derived under
}

// instanceEntry is the 5-tuple I = <V, PP, C, S, U> of §6.1, plus the
// Appendix G quarantine flag. The immutable fields (v, pp) are set at
// insertion under the mutex, before the entry is published; the anchor
// (C, S, epoch) is an atomic pointer swapped by revalidation; the
// remaining mutable fields (u, quarantined) are atomics so the lock-free
// read path can update them on shared, published entries.
type instanceEntry struct {
	v   []float64 // V: selectivity vector of the optimized instance
	pp  *planEntry
	anc atomic.Pointer[anchor]
	u   atomic.Int64 // U: usage count (instances served through this entry)
	// quarantined excludes the entry from cost-check reuse after a BCG
	// violation was observed through it (Appendix G).
	quarantined atomic.Bool
}

// newInstance builds an entry with a copy of v as V.
func newInstance(v []float64, pp *planEntry, c, s float64, u int64, epoch uint64) *instanceEntry {
	e := &instanceEntry{v: append([]float64(nil), v...), pp: pp}
	e.anc.Store(&anchor{c: c, s: s, epoch: epoch})
	e.u.Store(u)
	return e
}

// counters are SCR's cumulative statistics, plain atomics read lock-free
// by Stats. Striping the per-request ones was measured on 2 vCPUs and
// dropped: it bought no latency or scaling and cost 4 KiB per counter
// (docs/PERF.md).
type counters struct {
	instances      atomic.Int64
	readPathHits   atomic.Int64
	selChecks      atomic.Int64
	scanSkipped    atomic.Int64
	getPlanRecosts atomic.Int64
	// writerWaitNs accumulates time spent waiting to acquire a write
	// domain's mutex (pqo_writer_wait_seconds_total).
	writerWaitNs   atomic.Int64
	optCalls       atomic.Int64
	sharedOptCalls atomic.Int64
	manageRecosts  atomic.Int64
	violations     atomic.Int64
	evictions      atomic.Int64
	redundantPlans atomic.Int64
	writePathHits  atomic.Int64
	degraded       atomic.Int64
	readPathErrors atomic.Int64
	// publishes counts snapshot publications, one per write-domain
	// critical section (domain.go).
	publishes atomic.Int64
	// Epoch lifecycle counters (revalidate.go): instances served flagged
	// because their candidates lagged the current epoch, anchors
	// revalidated, entries demoted in place, entries/plans dropped, and
	// revalidation attempts that errored.
	epochLagServed atomic.Int64
	skewFlagged    atomic.Int64
	revalidated    atomic.Int64
	revalDemoted   atomic.Int64
	revalDroppedI  atomic.Int64
	revalDroppedP  atomic.Int64
	revalFailed    atomic.Int64
}

// cacheSnapshot is the immutable published view of one write domain's
// plan cache. It is built under the domain's writer mutex and published
// with a single atomic pointer store (flushLocked, domain.go); readers
// load the pointer and scan without locks or fences beyond the load
// itself — Go's atomic.Pointer gives the happens-before edge that makes
// everything reachable from the snapshot visible.
//
// Sharing discipline: the instances and plans slice HEADERS here are
// copies of the master's, and the instance backing array is shared with
// the master under the append-only invariant (domain.go): the published
// length is fixed at publication, master appends land strictly beyond
// it, and every non-append mutation installs a freshly allocated master
// slice. No published element is ever written again except the instance
// entries' designated atomic fields (anchor, usage, quarantine), which
// are the shared mutable channel by design. The plan list is rebuilt
// copy-on-write on every plan-set change, so the published header always
// names an array the master will never touch.
type cacheSnapshot struct {
	// instances is the instance list in insertion order (the 5-tuples of
	// §6.1).
	instances []*instanceEntry
	// logs is log si(V) of every instance, d per entry in list order: the
	// selectivity pass and the cost-check scan read log G·L from it
	// (getPlan).
	logs []float64
	// minEpoch and minS are lower bounds on the instances' anchor epochs
	// and sub-optimalities (S capped at 1; anchorBounds). They tell the
	// cost-check scan when its prefilter is exact; selCut is
	// log(λmax/minS), beyond which no entry passes the selectivity check.
	minEpoch uint64
	minS     float64
	selCut   float64
	// plans is the plan list in ascending fingerprint order — the
	// deterministic iteration the degraded fallback and Export need.
	plans []*planEntry
	// version counts publications. One publication covers a whole
	// critical section's mutations (a k-plan sweep, an import), but a
	// mutation is never visible to readers without a version move, so the
	// miss path's rule stands: re-run the checks only when the version
	// moved past its read-path observation, and a serial miss pays the
	// checks exactly once.
	version int64
}

// SCR is the paper's technique: an online PQO plan cache driven by the
// selectivity, cost and redundancy checks.
//
// Concurrency model (RCU-style read-mostly serving): Process's hot path —
// the selectivity check, the cost check — plus ProbeCheck, Stats, Export
// and Revalidate's walk all run against an immutable cacheSnapshot loaded
// from an atomic pointer; they acquire no locks. Cache management
// (inserting plans and instances, eviction, sweep, import) mutates the
// master state under a plain writer mutex and republishes the snapshot
// copy-on-write. Concurrent misses for byte-identical selectivity vectors
// share one optimizer call through a singleflight group, and every miss
// re-checks the cache once more before optimizing, so a burst of
// identical cold instances performs exactly one optimizer call.
type SCR struct {
	cfg config
	eng Engine
	// epochEng is eng's versioned-statistics surface, nil when the engine
	// has no epoch lifecycle (then every anchor is at epoch 0 forever and
	// the epoch machinery is inert).
	epochEng EpochEngine
	// reval is the in-flight background revalidation, if any; superseded
	// runs are cancelled and replaced (revalidate.go).
	reval atomic.Pointer[Revalidation]
	// breaker gates optimizer calls when WithCircuitBreaker is set; nil
	// (the default) always allows.
	breaker *breaker

	// dom is this template's write domain (domain.go): the writer mutex,
	// the master plan/instance lists, and the published snapshot pointer.
	// One SCR serves one template, so SCR-level sharding is per-template
	// sharding — exactly the partition the paper's checks respect, since
	// instances of different templates never interact in the selectivity
	// or cost check. All master-state mutation goes through dom's
	// methods; SCR methods wrap them with lock/unlock.
	dom writeDomain

	// maxPlans is the plan-count high-water mark; written under the
	// domain mutex, read lock-free by Stats.
	maxPlans atomic.Int64

	// clusterEpoch is the highest cluster-wide statistics generation the
	// node has observed via ObserveClusterEpoch (zero until a coordinator
	// speaks). When it runs ahead of the engine's own epoch by more than
	// cfg.skewBound generations, Process flags every decision with
	// DegradedEpochSkew instead of silently serving across the bound.
	clusterEpoch atomic.Uint64

	flight flightGroup
	ctr    counters
}

// statsEpoch returns the engine's current statistics epoch id, 0 for
// epoch-less engines: the node generation, reported by Stats and compared
// with the cluster epoch.
func (s *SCR) statsEpoch() uint64 {
	if s.epochEng != nil {
		return s.epochEng.StatsEpoch()
	}
	return 0
}

// costEpoch returns the engine's current cost epoch, 0 for epoch-less
// engines: the generation anchors are tagged with and compared against.
// It only moves when an advance changed a statistic this template's costs
// read, so the other templates' anchors never lag.
func (s *SCR) costEpoch() uint64 {
	if s.epochEng != nil {
		return s.epochEng.CostEpoch()
	}
	return 0
}

// ObserveClusterEpoch records that the cluster-wide statistics generation
// has reached at least id. The observation is monotonic (stale or
// duplicate deliveries are ignored) and lock-free, so transport layers may
// call it on every RPC. Once the observed cluster epoch runs ahead of the
// node's own statistics epoch by more than the configured skew bound,
// Process serves every decision flagged DegradedEpochSkew until the node
// catches up (docs/ROBUSTNESS.md).
func (s *SCR) ObserveClusterEpoch(id uint64) {
	for {
		cur := s.clusterEpoch.Load()
		if id <= cur || s.clusterEpoch.CompareAndSwap(cur, id) {
			return
		}
	}
}

// ClusterEpoch returns the highest cluster generation observed, zero if no
// coordinator has spoken.
func (s *SCR) ClusterEpoch() uint64 {
	return s.clusterEpoch.Load()
}

// CurrentStatsEpoch returns the engine's current statistics epoch id (0
// for epoch-less engines): the node-local generation, cheap enough for
// per-request use.
func (s *SCR) CurrentStatsEpoch() uint64 {
	return s.statsEpoch()
}

// EpochSkew returns how many generations the node's own statistics epoch
// lags the observed cluster epoch (0 when caught up, ahead, or epoch-less).
func (s *SCR) EpochSkew() uint64 {
	if s.epochEng == nil {
		return 0
	}
	cluster := s.clusterEpoch.Load()
	if local := s.statsEpoch(); cluster > local {
		return cluster - local
	}
	return 0
}

// SkewLagging reports whether the node is behind the observed cluster
// epoch by more than the configured skew bound (WithClusterSkewBound,
// default 1) — the condition under which Process flags every decision
// DegradedEpochSkew and health surfaces should report the node degraded.
func (s *SCR) SkewLagging() bool {
	return s.EpochSkew() > uint64(s.cfg.skewBound)
}

// flagSkew demotes a healthy decision to an explicitly flagged one when
// the node knows it is behind the cluster skew bound. The plan and its
// epoch are untouched — the λ bound still holds against the generation
// Decision.Epoch names — but Via/Degraded say the node should not be
// trusted to be within one generation of its peers. Already-degraded
// decisions keep their original (more specific) reason.
func (s *SCR) flagSkew(dec *Decision) *Decision {
	if dec == nil || dec.Degraded || !s.SkewLagging() {
		return dec
	}
	d := *dec
	d.Via = ViaFallback
	d.Degraded = true
	d.DegradedReason = DegradedEpochSkew
	s.ctr.skewFlagged.Add(1)
	s.ctr.degraded.Add(1)
	return &d
}

// Name identifies the technique and its λ, e.g. "SCR(2)".
func (s *SCR) Name() string {
	if d := s.cfg.dynamic; d != nil {
		return fmt.Sprintf("SCR(dyn %g..%g)", d.Min, d.Max)
	}
	return fmt.Sprintf("SCR(%g)", s.cfg.lambda)
}

// Stats returns cumulative counters. It reads the published snapshot and
// the atomic counters, never the writer mutex, so scraping /stats under
// load perturbs nothing.
func (s *SCR) Stats() Stats {
	snap := s.snapshot()
	st := Stats{
		Instances:              s.ctr.instances.Load(),
		OptCalls:               s.ctr.optCalls.Load(),
		SharedOptCalls:         s.ctr.sharedOptCalls.Load(),
		GetPlanRecosts:         s.ctr.getPlanRecosts.Load(),
		ManageRecosts:          s.ctr.manageRecosts.Load(),
		SelChecks:              s.ctr.selChecks.Load(),
		ScanSkipped:            s.ctr.scanSkipped.Load(),
		Violations:             s.ctr.violations.Load(),
		Evictions:              s.ctr.evictions.Load(),
		RedundantPlansRejected: s.ctr.redundantPlans.Load(),
		ReadPathHits:           s.ctr.readPathHits.Load(),
		WritePathHits:          s.ctr.writePathHits.Load(),
		WriteLockWait:          time.Duration(s.ctr.writerWaitNs.Load()),
		CurPlans:               len(snap.plans),
		MaxPlans:               int(s.maxPlans.Load()),
		WriteDomains:           1,
		PublishTotal:           s.ctr.publishes.Load(),
	}
	st.DegradedDecisions = s.ctr.degraded.Load()
	st.ReadPathErrors = s.ctr.readPathErrors.Load()
	st.StatsEpoch = s.statsEpoch()
	st.ClusterEpoch = s.clusterEpoch.Load()
	if st.ClusterEpoch > st.StatsEpoch && s.epochEng != nil {
		st.EpochSkew = st.ClusterEpoch - st.StatsEpoch
	}
	st.EpochSkewFlagged = s.ctr.skewFlagged.Load()
	st.EpochLagFallbacks = s.ctr.epochLagServed.Load()
	st.RevalidatedPlans = s.ctr.revalidated.Load()
	st.RevalDemoted = s.ctr.revalDemoted.Load()
	st.RevalDroppedInstances = s.ctr.revalDroppedI.Load()
	st.RevalDroppedPlans = s.ctr.revalDroppedP.Load()
	st.RevalFailed = s.ctr.revalFailed.Load()
	ce := s.costEpoch()
	for _, e := range snap.instances {
		if e.anc.Load().epoch < ce {
			st.LaggingInstances++
		}
	}
	st.BreakerState = s.breaker.State()
	st.BreakerOpens, st.BreakerHalfOpens, st.BreakerCloses = s.breaker.Counters()
	if rep, ok := s.eng.(CacheReporter); ok {
		st.EnvPoolGets, st.EnvPoolReuses = rep.EnvPoolCounters()
	}
	if fr, ok := s.eng.(FaultReporter); ok {
		st.InjectedFaults = fr.InjectedFaults()
	}
	var mem int64
	for _, pe := range snap.plans {
		mem += int64(pe.cp.MemoryBytes())
	}
	mem += int64(len(snap.instances)) * 100 // ~100 bytes per 5-tuple (§6.1)
	st.MemoryBytes = mem
	return st
}

// prepareRecost returns a batched recosting context for sv when the engine
// supports batching, else nil. A nil context is valid: recostWith falls
// back to per-call Engine.Recost.
func (s *SCR) prepareRecost(sv []float64) *engine.PreparedInstance {
	if be, ok := s.eng.(BatchEngine); ok {
		if pi, err := be.PrepareRecost(sv); err == nil { //lint:allow envpool hand-off helper: every caller pairs prepareRecost with a deferred Release
			return pi
		}
	}
	return nil
}

// recostWith recosts cp at sv through the prepared instance when one is
// available (batched path: selectivity state built once per instance).
func (s *SCR) recostWith(pi *engine.PreparedInstance, cp *engine.CachedPlan, sv []float64) (float64, error) {
	if pi != nil {
		return pi.Recost(cp)
	}
	return s.eng.Recost(cp, sv)
}

// recostWithEpoch is recostWith plus the statistics epoch the cost was
// derived under (0 for epoch-less engines). The epoch comes from the
// prepared instance's pinned environment when batching, else from the
// engine's per-call epoch report.
func (s *SCR) recostWithEpoch(pi *engine.PreparedInstance, cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	if pi != nil {
		c, err := pi.Recost(cp)
		return c, pi.EpochID(), err
	}
	if s.epochEng != nil {
		return s.epochEng.RecostEpoch(cp, sv)
	}
	c, err := s.eng.Recost(cp, sv)
	return c, 0, err
}

// pricing is one instance's recosts: the prepared instance they run
// through and the plans priced so far, so each plan is recosted at most
// once per instance. The cost check's candidates are instances, and
// several often share a plan; the redundancy check after a miss prices
// every cached plan at the same instance again. A plan's recost through
// one prepared instance is deterministic, so reusing it changes no
// decision. Only the first len(plans) plans are remembered.
type pricing struct {
	pi    *engine.PreparedInstance
	n     int
	plans [8]*engine.CachedPlan
	costs [8]float64
}

// release returns the prepared instance, if any.
func (pr *pricing) release() {
	pr.pi.Release()
	pr.pi = nil
}

// price returns cp's cost at sv and the cost epoch it was derived under,
// reusing pr's earlier recost of cp. Without a prepared instance (an
// engine that does not batch) every call recosts, since the epoch may
// move between calls.
func (s *SCR) price(pr *pricing, cp *engine.CachedPlan, sv []float64) (float64, uint64, error) {
	if pr.pi == nil {
		return s.recostWithEpoch(nil, cp, sv)
	}
	for i, p := range pr.plans[:pr.n] {
		if p == cp {
			return pr.costs[i], pr.pi.EpochID(), nil
		}
	}
	c, err := pr.pi.Recost(cp)
	if err != nil {
		return 0, 0, err
	}
	if pr.n < len(pr.plans) {
		pr.plans[pr.n], pr.costs[pr.n] = cp, c
		pr.n++
	}
	return c, pr.pi.EpochID(), nil
}

// prepareEpoch returns the cost epoch a prepared instance is pinned to;
// for the non-batched path it falls back to the engine's current one.
func (s *SCR) prepareEpoch(pi *engine.PreparedInstance) uint64 {
	if pi != nil {
		return pi.EpochID()
	}
	return s.costEpoch()
}

// Process implements Technique: getPlan under the read lock, then — on a
// miss — one (possibly shared) optimizer call and manageCache under the
// write lock. Cancelling ctx aborts before the optimizer call and while
// waiting on another caller's shared flight; an optimizer call already in
// progress runs to completion so its plan still populates the cache.
//
// With WithDegradedFallback, optimizer unavailability (error, panic,
// deadline expiry, open breaker) and read-path engine failures never
// surface as errors while the cache holds plans: the instance is served
// by the degraded-mode fallback (degrade.go) with Decision.Degraded set.
// Context cancellation still errors — a cancelled caller wants no plan.
func (s *SCR) Process(ctx context.Context, sv []float64) (dec *Decision, err error) {
	if err := checkSVector(sv, s.eng.Dimensions()); err != nil {
		return nil, err
	}
	s.ctr.instances.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, cancelled(err)
	}
	if s.cfg.degradedFallback {
		// Last-resort containment: a panic anywhere below (an engine crash
		// bug reached through the checks) becomes a degraded decision.
		defer func() {
			if r := recover(); r != nil {
				dec, err = s.degrade(sv, DegradedOptimizerPanic,
					fmt.Errorf("%w: %v", ErrOptimizerPanic, r))
			}
		}()
	}

	// pr keeps the read path's prepared instance and recosts for the
	// redundancy check, should the instance reach the optimizer.
	var pr pricing
	dec0, seen, err := s.readPath(ctx, sv, &pr)
	if dec0 != nil || err != nil {
		pr.release()
	}
	switch {
	case err != nil && s.cfg.degradedFallback && !errors.Is(err, ErrCancelled):
		// Engine failure inside the checks. Fall through to the optimizer
		// path: if the optimizer is healthy the guarantee still holds, and
		// if it is not, the fallback below serves degraded.
		s.ctr.readPathErrors.Add(1)
	case err != nil:
		return nil, err
	case dec0 != nil:
		s.ctr.readPathHits.Add(1)
		return s.flagSkew(dec0), nil
	}

	// Both checks failed: full optimizer call, deduplicated across
	// concurrent identical instances.
	held := pr
	defer held.release()
	dec2, shared, err := s.flight.Do(ctx, svKey(sv), func() (*Decision, error) {
		// Second chance: an overlapping flight may have populated the
		// cache between our read-path miss and winning the flight. Only
		// re-run the checks if the cache actually changed since.
		if s.snapshot().version != seen {
			//lint:allow rcupublish intentional second-chance re-check after winning the flight
			dec, _, err := s.readPath(ctx, sv, nil)
			switch {
			case err != nil && s.cfg.degradedFallback && !errors.Is(err, ErrCancelled):
				s.ctr.readPathErrors.Add(1)
			case err != nil:
				return nil, err
			case dec != nil:
				s.ctr.writePathHits.Add(1)
				return dec, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, cancelled(err)
		}
		cp, optCost, ep, err := s.callOptimizer(ctx, sv)
		if err == nil && cp == nil {
			err = fmt.Errorf("%w: optimizer returned no plan", ErrNoPlan)
		}
		if err != nil {
			if s.cfg.degradedFallback {
				return s.degrade(sv, degradeReason(err), err)
			}
			return nil, err
		}
		s.ctr.optCalls.Add(1)
		if err := s.storePlan(sv, cp, optCost, ep, &held); err != nil {
			if s.cfg.degradedFallback {
				// The freshly optimized plan is λ-optimal here by
				// definition; only the cache bookkeeping failed. Serve it.
				return &Decision{Plan: cp, Optimized: true, Via: ViaOptimizer, Epoch: ep,
					Cost: optCost, HasCost: true}, nil
			}
			return nil, err
		}
		return &Decision{Plan: cp, Optimized: true, Via: ViaOptimizer, Epoch: ep,
			Cost: optCost, HasCost: true}, nil
	})
	if err != nil {
		return nil, err
	}
	if shared {
		s.ctr.sharedOptCalls.Add(1)
		d := *dec2
		d.Optimized = false
		d.Shared = true
		return s.flagSkew(&d), nil
	}
	return s.flagSkew(dec2), nil
}

// storePlan records a freshly optimized (plan, instance) pair under the
// write lock (Algorithm 2). epoch is the statistics generation optCost
// was derived under; the new anchor is tagged with it. pr holds the
// instance's read-path recosts, which the redundancy check reuses.
func (s *SCR) storePlan(sv []float64, cp *engine.CachedPlan, optCost float64, epoch uint64, pr *pricing) error {
	d := &s.dom
	d.lock()
	defer d.unlock()
	return d.manageCache(sv, cp, optCost, epoch, pr)
}

// snapshot returns the published cache snapshot: one atomic load, no
// locks. The snapshot is immutable (instanceEntry atomic fields aside)
// and stays valid indefinitely — writers publish replacements, they never
// touch published state.
func (s *SCR) snapshot() *cacheSnapshot {
	return s.dom.snap.Load()
}

// readPath runs getPlan against the published snapshot, returning the
// cache version observed so the miss path can skip its second-chance
// re-check when nothing changed. pr, if not nil, receives the instance's
// recosts (see getPlan).
func (s *SCR) readPath(ctx context.Context, sv []float64, pr *pricing) (*Decision, int64, error) {
	snap := s.snapshot()
	dec, err := s.getPlan(ctx, sv, snap, false, pr)
	return dec, snap.version, err
}

// logSlop widens the cost-check prefilter's log-space bound to absorb the
// rounding difference between Σ|log si(q) − log si(e)| and the log of G·L
// computed as products of ratios, so an entry exactly on a bound is never
// rejected by it.
const logSlop = 1e-9

// logDistances stores in dists[v] the log distance Σ|lq[j] − le[j]| from
// a query to the v-th stored instance packed in logs (d = len(lq) values
// each): log G·L, from log-selectivities. Widths 2 to 4 run unrolled with
// the query in locals: on Table 3's stream (d = 3) that cut
// scr_over_optalways from a median of 1.174 to 1.148, better in 16 of 20
// alternating pairs (docs/PERF.md "Miss path").
func logDistances(lq, logs, dists []float64) {
	d := len(lq)
	logs = logs[:len(dists)*d]
	switch d {
	case 2:
		q0, q1 := lq[0], lq[1]
		for v := range dists {
			le := logs[2*v : 2*v+2 : 2*v+2]
			dists[v] = math.Abs(q0-le[0]) + math.Abs(q1-le[1])
		}
	case 3:
		q0, q1, q2 := lq[0], lq[1], lq[2]
		for v := range dists {
			le := logs[3*v : 3*v+3 : 3*v+3]
			dists[v] = math.Abs(q0-le[0]) + math.Abs(q1-le[1]) + math.Abs(q2-le[2])
		}
	case 4:
		q0, q1, q2, q3 := lq[0], lq[1], lq[2], lq[3]
		for v := range dists {
			le := logs[4*v : 4*v+4 : 4*v+4]
			dists[v] = math.Abs(q0-le[0]) + math.Abs(q1-le[1]) + math.Abs(q2-le[2]) + math.Abs(q3-le[3])
		}
	default:
		for v := range dists {
			le := logs[v*d : v*d+d]
			dist := 0.0
			for j, x := range lq {
				dist += math.Abs(x - le[j])
			}
			dists[v] = dist
		}
	}
}

// kthDistance returns the k-th smallest log distance (logDistances) from
// lq to the n instances packed in logs, +Inf when there are fewer than k,
// and 0 when k is 0. dists is its working buffer, filled chunk by chunk;
// when the n instances fit it, it must hold their distances already, as
// getPlan's selectivity pass leaves them. k must not exceed 8.
func kthDistance(lq, logs []float64, n, k int, dists []float64) float64 {
	if k == 0 {
		return 0
	}
	d := len(lq)
	inf := math.Float64bits(math.Inf(1))
	top := [8]uint64{inf, inf, inf, inf, inf, inf, inf, inf}
	for base := 0; base < n; base += len(dists) {
		chunk := dists[:min(len(dists), n-base)]
		if n > len(dists) {
			logDistances(lq, logs[base*d:], chunk)
		}
		top = smallest8(top, chunk)
	}
	return math.Float64frombits(top[k-1])
}

// smallest8 merges dists into top, the eight smallest distances so far in
// ascending order, as IEEE bit patterns: distances are never negative, so
// their bits order as their values do, and the integer min and max of
// each exchange compile to conditional moves. Each distance runs down the
// whole network, with no early exit: with list order random in distance,
// a branch on it would mispredict on a large share of entries.
func smallest8(top [8]uint64, dists []float64) [8]uint64 {
	t0, t1, t2, t3, t4, t5, t6, t7 := top[0], top[1], top[2], top[3], top[4], top[5], top[6], top[7]
	for _, dist := range dists {
		x := math.Float64bits(dist)
		t0, x = min(t0, x), max(t0, x)
		t1, x = min(t1, x), max(t1, x)
		t2, x = min(t2, x), max(t2, x)
		t3, x = min(t3, x), max(t3, x)
		t4, x = min(t4, x), max(t4, x)
		t5, x = min(t5, x), max(t5, x)
		t6, x = min(t6, x), max(t6, x)
		t7 = min(t7, x)
	}
	return [8]uint64{t0, t1, t2, t3, t4, t5, t6, t7}
}

// getPlan is Algorithm 1: the selectivity check over the instance list,
// then the cost check over the most promising candidates in increasing
// GL order. Returns (nil, nil) if no cached plan can be inferred
// λ-optimal. Runs lock-free over the immutable snapshot; it mutates only
// atomic fields, and none at all when probe is set: a probe (ProbeCheck)
// skips usage counts, quarantine flags and counters, but chooses exactly
// as Process would.
//
// Epoch semantics during revalidation lag: an entry anchored under an
// older epoch still serves through the selectivity check — its λ bound
// holds against the generation it was derived under, and the Decision
// carries that epoch. The cost check, however, must not mix generations
// (a stale anchor's C against a fresh recost would make R meaningless),
// so lagging entries are excluded from cost-check candidacy; if the
// current-epoch candidates all fail, the best lagging candidate is served
// as an explicitly flagged fallback instead of stampeding the optimizer
// while the background revalidator catches the cache up.
func (s *SCR) getPlan(ctx context.Context, sv []float64, snap *cacheSnapshot, probe bool, pr *pricing) (*Decision, error) {
	examined, skipped, recosts := 0, 0, 0
	defer func() {
		if !probe {
			s.ctr.selChecks.Add(int64(examined))
			if skipped > 0 {
				s.ctr.scanSkipped.Add(int64(skipped))
			}
			if recosts > 0 {
				s.ctr.getPlanRecosts.Add(int64(recosts))
			}
		}
	}()

	// The selectivity pass. log G·L = Σ|log si(q) − log si(e)|, read from
	// the snapshot's flat log array, and an entry that passes the check
	// has log G·L ≤ log(λ(C)/S) ≤ log(λmax/minS) = selCut, whether its
	// anchor lags or not. So the pass computes the distances len(dists)
	// entries at a time, runs the exact test only on the entries within
	// selCut (few are, so the branch on it predicts well), and serves the
	// first in list order that passes: the entry a plain scan of the list
	// would serve. A warm cache's common outcome, a hit, returns here. A vector wider than lq, or a snapshot whose logs
	// do not cover its list, skips the pass; the unfiltered scan below is
	// then the exact check. When the list fits one chunk, dists keeps its
	// distances for the cost check below.
	insts := snap.instances
	d := len(sv)
	var (
		lq    [16]float64
		dists [64]float64
	)
	logPass := d <= len(lq) && len(snap.logs) == d*len(insts)
	if logPass {
		for j, x := range sv {
			lq[j] = math.Log(x)
		}
		selCut := snap.selCut + logSlop
		for base := 0; base < len(insts); base += len(dists) {
			chunk := insts[base:min(base+len(dists), len(insts))]
			logDistances(lq[:d], snap.logs[base*d:], dists[:len(chunk)])
			for c, dist := range dists[:len(chunk)] {
				if dist > selCut {
					continue
				}
				e := chunk[c]
				a := e.anc.Load()
				g, l := glFactors(e.v, sv)
				examined++
				if g*l <= s.cfg.lambdaFor(a.c)/a.s {
					if !probe {
						e.u.Add(1)
					}
					return &Decision{Plan: e.pp.cp, Via: ViaSelectivity, Epoch: a.epoch}, nil
				}
			}
		}
	}

	cur := s.costEpoch()
	type cand struct {
		e    *instanceEntry
		a    *anchor
		key  float64 // G·L, or L under WithCandidateOrderByL
		g, l float64
	}
	limit := s.cfg.costCheckLimit
	// Only the `limit` best candidates are ever recosted, so keep a
	// bounded insertion-sorted list instead of collecting and sorting
	// every entry: on the hot path this is the difference between O(limit)
	// extra memory and an O(instances) allocation + sort per lookup.
	keep := limit
	if keep < 0 {
		keep = 0
	}
	// A limit larger than the instance list (e.g. the "recost all"
	// ablation's 1<<30) must not become the allocation size.
	capHint := keep
	if capHint > len(insts) {
		capHint = len(insts)
	}
	// cands lives in a fixed array in this frame when the limit fits it,
	// as the default of 8 does, so a cost check allocates no list. A
	// larger limit allocates the list on first insert.
	var buf [8]cand
	cands := buf[:0]
	if capHint > len(buf) {
		cands = nil
	}
	insert := func(c cand) {
		if keep == 0 {
			return
		}
		if cands == nil {
			cands = make([]cand, 0, capHint)
		}
		if len(cands) == keep {
			if c.key >= cands[len(cands)-1].key {
				return
			}
			cands = cands[:len(cands)-1]
		}
		cands = append(cands, c)
		i := len(cands) - 1
		for ; i > 0 && c.key < cands[i-1].key; i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}

	// lagBest tracks the most promising (lowest GL) non-quarantined entry
	// anchored under an older epoch, for the flagged fallback below.
	var (
		lagBest *instanceEntry
		lagAnc  *anchor
		lagGL   float64
	)

	// The prefilter. The log distance also bounds from below what the
	// exact logic can do with an entry: it cannot pass the selectivity
	// check beyond selCut, and it cannot make the final candidate list
	// beyond the k-th smallest distance, since the k nearest entries all
	// have smaller keys. So a flat pass finds the k-th smallest distance,
	// and the loop below runs the exact logic, in list order, only on
	// entries within cut. The filter is off (cut +Inf) when that argument
	// fails: with the L order (keys are not G·L), with a candidate list
	// beyond the frame buffer, when an entry may lag (every lagging entry
	// competes for the fallback, whatever its distance), and when the
	// selectivity pass did not run; and when there are no more entries
	// than candidates, since it would reject none. A quarantined entry
	// among the k nearest cannot be a candidate, so the k-th distance no
	// longer bounds the list: meeting one within kCut restarts the scan
	// unfiltered. One farther out moves no bound and is passed over like
	// any other entry. When the whole list fits one chunk, the k-th
	// selection and the scan read the selectivity pass's distances.
	//
	// cut is the filter's bound; kCut bounds the k nearest entries.
	cut, kCut := math.Inf(1), math.Inf(1)
	if logPass && !s.cfg.orderByL && keep <= len(buf) && len(insts) > keep && snap.minEpoch >= cur {
		kth := kthDistance(lq[:d], snap.logs, len(insts), keep, dists[:])
		cut, kCut = max(kth, snap.selCut)+logSlop, kth+logSlop
	}

	// The exact logic visits, a chunk of len(dists) entries at a time, the
	// chunk positions listed in near: under the filter only those within
	// cut, gathered without a branch per entry, since the comparison's
	// outcome is random in list order.
	var near [len(dists)]int32
	for restart := true; restart; {
		restart = false
	scan:
		for base := 0; base < len(insts); base += len(dists) {
			chunk := insts[base:min(base+len(dists), len(insts))]
			filtering := cut < math.Inf(1)
			m := 0
			if filtering {
				if len(insts) > len(dists) {
					// The buffer holds one chunk; refill it.
					logDistances(lq[:d], snap.logs[base*d:], dists[:len(chunk)])
				}
				for c, dist := range dists[:len(chunk)] {
					near[m] = int32(c)
					if dist <= cut {
						m++
					}
				}
			} else {
				m = len(chunk)
				for c := range near[:m] {
					near[c] = int32(c)
				}
			}
			for j, c := range near[:m] {
				e := chunk[c]
				quarantined := e.quarantined.Load()
				if filtering && quarantined && dists[c] <= kCut {
					// Rescan without the filter. Nothing has been touched
					// but the candidate list: no entry lags, and a pass
					// would have returned.
					skipped = 0
					cut = math.Inf(1)
					cands = cands[:0]
					restart = true
					break scan
				}
				a := e.anc.Load()
				g, l := glFactors(e.v, sv)
				examined++
				lam := s.cfg.lambdaFor(a.c)
				if g*l <= lam/a.s {
					// The selectivity pass found no entry passing, but
					// anchors are live atomics: a concurrent re-anchor
					// (revalidation loosening S) can create a pass between
					// that pass and this scan. Honor it. The scan
					// considered the chunk's entries up to this one.
					skipped += int(c) - j
					if !probe {
						e.u.Add(1)
					}
					return &Decision{Plan: e.pp.cp, Via: ViaSelectivity, Epoch: a.epoch}, nil
				}
				if quarantined {
					continue
				}
				if a.epoch != cur {
					if lagBest == nil || g*l < lagGL {
						lagBest, lagAnc, lagGL = e, a, g*l
					}
					continue
				}
				key := g * l
				if s.cfg.orderByL {
					key = l
				}
				insert(cand{e: e, a: a, key: key, g: g, l: l})
			}
			skipped += len(chunk) - m
		}
	}

	if limit >= 0 && len(cands) > 0 {
		// Batch: build selectivity state once for this instance, recost
		// every cost-check candidate's plan against it. If the epoch
		// advanced between the scan above and this preparation, the
		// candidates' anchors no longer match the recost generation — skip
		// the cost check for this lookup (the next one re-scans under the
		// new epoch) rather than compare costs across generations.
		var own pricing
		if pr == nil {
			pr = &own
			defer own.release()
		}
		if pr.pi == nil {
			pr.pi = s.prepareRecost(sv)
		}
		if s.prepareEpoch(pr.pi) != cur {
			cands = cands[:0]
		}
		for _, c := range cands {
			if err := ctx.Err(); err != nil {
				return nil, cancelled(err)
			}
			newCost, recEpoch, err := s.price(pr, c.e.pp.cp, sv)
			if err != nil {
				return nil, err
			}
			recosts++
			if recEpoch != c.a.epoch {
				// Advanced mid-loop (per-call recost path only): this
				// candidate's anchor and recost disagree on generation.
				continue
			}
			if s.cfg.detectViolations {
				// Appendix G: the BCG bounds constrain the plan's own cost
				// ratio between qe and qc; Cost(PP, qe) = C·S.
				rPlan := newCost / (c.a.c * c.a.s)
				if ViolatesBCG(rPlan, c.g, c.l, s.cfg.violationTol) {
					if !probe {
						c.e.quarantined.Store(true)
						s.ctr.violations.Add(1)
					}
					continue
				}
			}
			// §6.2: R = Cost(PP, qc) / C (C is the optimal cost at qe); the
			// cost check is R·L ≤ λ/S.
			r := newCost / c.a.c
			lam := s.cfg.lambdaFor(c.a.c)
			if r*c.l <= lam/c.a.s {
				if !probe {
					c.e.u.Add(1)
				}
				return &Decision{Plan: c.e.pp.cp, Via: ViaCost, Epoch: c.a.epoch,
					Cost: newCost, HasCost: true}, nil
			}
		}
	}

	if lagBest != nil {
		// Every current-epoch avenue failed but a not-yet-revalidated
		// entry is in reach: serve it flagged instead of optimizing. This
		// bounds optimizer load during revalidation lag — the flagged
		// plan was λ-valid under its own epoch, the decision says so, and
		// the revalidator is already retiring the lag.
		if !probe {
			lagBest.u.Add(1)
			s.ctr.epochLagServed.Add(1)
			s.ctr.degraded.Add(1)
		}
		return &Decision{
			Plan:           lagBest.pp.cp,
			Via:            ViaFallback,
			Degraded:       true,
			DegradedReason: DegradedStatsEpochLag,
			Epoch:          lagAnc.epoch,
		}, nil
	}
	return nil, nil
}

// ProbeCheck classifies how Process's read path would serve an instance
// at sv right now — by the selectivity check, the cost check, the flagged
// epoch-lag fallback, or (on a miss) an optimizer call — WITHOUT mutating
// usage counters, quarantine flags or statistics. It runs getPlan itself
// in probe mode, so it performs the same Recost calls and cannot disagree
// with Process; only the cluster-skew flag Process adds afterwards
// (flagSkew) is not applied. It is a diagnostic/visualization aid (e.g.
// rendering the §5.3 inference-region geometry), lock-free and safe to
// call concurrently with Process.
func (s *SCR) ProbeCheck(sv []float64) Check {
	// Process validates before its read path; the probe must too, since
	// the cost-check scan's prefilter may skip an entry on an invalid
	// vector's distances instead of failing on its factors.
	if checkSVector(sv, s.eng.Dimensions()) != nil {
		return ViaOptimizer
	}
	//lint:allow ctxflow ProbeCheck takes no context: a diagnostic probe has no caller deadline to honour
	dec, err := s.getPlan(context.Background(), sv, s.snapshot(), true, nil)
	if err != nil || dec == nil {
		return ViaOptimizer
	}
	return dec.Via
}

// NumInstances returns the current instance-list length (optimized
// instances retained).
func (s *SCR) NumInstances() int {
	return len(s.snapshot().instances)
}

// SweepRedundantPlans implements Appendix F: it tests every cached plan for
// redundancy against the remaining plans and drops those whose instances
// can all be served λ-optimally by alternatives. Plans are examined in
// increasing order of instance count. It returns the number of plans
// dropped. The sweep is intended to run off the critical path; it holds
// this template's domain mutex for its duration, and its critical section
// ends in a single publication — readers see either the pre-sweep cache
// or the swept one, never k intermediate republications.
func (s *SCR) SweepRedundantPlans() (int, error) {
	d := &s.dom
	d.lock()
	defer d.unlock()
	return d.sweepLocked()
}

// SeedInstance pre-populates the plan cache with an externally discovered
// (plan, anchor instance) pair — the §9 future-work hybrid: an offline
// exploration (e.g. an anorexic plan-diagram reduction) supplies plans and
// anchors before any query arrives, and the online checks then reuse them
// exactly as if the anchors had been optimized online. subOpt is the
// known sub-optimality S of the plan at the anchor (1 when the plan is the
// anchor's optimal plan); optCost is the optimal cost C at the anchor.
//
// Seeding preserves the λ-optimality guarantee: the selectivity and cost
// checks both divide the bound by S, so a conservative (over-)estimate of
// subOpt is safe, while an underestimate would not be — callers must pass
// a true upper bound on the plan's sub-optimality at the anchor.
func (s *SCR) SeedInstance(sv []float64, cp *engine.CachedPlan, optCost, subOpt float64) error {
	if cp == nil {
		return fmt.Errorf("%w: seed with nil plan", ErrNoPlan)
	}
	if err := checkSVector(sv, s.eng.Dimensions()); err != nil {
		return fmt.Errorf("core: seed: %w", err)
	}
	if !validAnchor(optCost, subOpt) {
		return fmt.Errorf("core: seed with invalid optCost=%v subOpt=%v", optCost, subOpt)
	}
	d := &s.dom
	d.lock()
	defer d.unlock()
	return d.seedLocked(sv, cp, optCost, subOpt)
}
