package core

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
)

// This file is the background half of the statistics-epoch lifecycle
// (docs/STATS.md): after AdvanceEpoch installs a new statistics
// generation, Revalidate walks the plan cache and re-derives every
// lagging anchor under the new epoch, so the read path returns to fully
// guaranteed serving without ever flushing a cache or blocking a request.
//
// Ordering is cheapest-first by anchor optimal cost: cheap instances are
// the ones dynamic λ bounds loosest and traffic hits most often in the
// paper's workloads, so revalidating them first retires the largest share
// of epoch-lag fallbacks per optimizer call.

// DefaultRevalidationWorkers is the worker-pool size Revalidate uses when
// the caller passes workers <= 0.
const DefaultRevalidationWorkers = 2

// Revalidation is a handle on one background revalidation run. All
// methods are safe for concurrent use; counters advance while workers
// run and freeze when the run finishes or is superseded. A finished
// run's Progress is final: nothing, a later supersession included,
// changes it.
type Revalidation struct {
	target uint64
	total  int64

	done       atomic.Int64
	reanchored atomic.Int64
	demoted    atomic.Int64
	droppedI   atomic.Int64
	droppedP   atomic.Int64
	failed     atomic.Int64
	// state is runActive until the run either completes or is superseded,
	// whichever comes first; the loser's transition is a no-op.
	state atomic.Uint32

	// finished closes when the run stops doing work. A run with nothing
	// to revalidate is born finished: it shares closedRun and has no
	// context, so cancel is nil.
	finished chan struct{}
	cancel   context.CancelFunc
}

// Run states (Revalidation.state).
const (
	runActive uint32 = iota
	runCompleted
	runSuperseded
)

// closedRun is the Done channel of every run with nothing to revalidate.
var closedRun = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// RevalidationProgress is a point-in-time snapshot of a run's counters.
type RevalidationProgress struct {
	// TargetEpoch is the cost epoch the run revalidates anchors to: the
	// template's EpochEngine.CostEpoch when the run started. It trails the
	// node's statistics epoch when the advance left the template's
	// statistics alone; such a run finds nothing lagging (Total 0).
	TargetEpoch uint64 `json:"targetEpoch"`
	// Total is the number of lagging instance entries the run set out to
	// revalidate; Done counts entries fully handled (whatever the outcome).
	Total int64 `json:"total"`
	Done  int64 `json:"done"`
	// ReAnchored counts entries whose anchor was re-derived at the target
	// epoch (same plan still optimal, or replaced by a fresh plan);
	// Demoted counts entries whose plan survived with a recost-measured
	// sub-optimality ≤ λr; DroppedInstances / DroppedPlans count entries
	// and orphaned plans removed because the redundancy threshold no
	// longer held; Failed counts entries whose revalidation errored.
	ReAnchored       int64 `json:"reAnchored"`
	Demoted          int64 `json:"demoted"`
	DroppedInstances int64 `json:"droppedInstances"`
	DroppedPlans     int64 `json:"droppedPlans"`
	Failed           int64 `json:"failed"`
	// Superseded reports the run was stopped early because the epoch
	// advanced past its target (a newer run owns the remaining lag); a
	// run that finished its work first never becomes superseded.
	// Finished reports the run is no longer doing work, for either
	// reason.
	Superseded bool `json:"superseded"`
	Finished   bool `json:"finished"`
}

// TargetEpoch returns the cost epoch the run revalidates anchors to.
func (r *Revalidation) TargetEpoch() uint64 { return r.target }

// Progress returns a snapshot of the run's counters.
func (r *Revalidation) Progress() RevalidationProgress {
	p := RevalidationProgress{
		TargetEpoch:      r.target,
		Total:            r.total,
		Done:             r.done.Load(),
		ReAnchored:       r.reanchored.Load(),
		Demoted:          r.demoted.Load(),
		DroppedInstances: r.droppedI.Load(),
		DroppedPlans:     r.droppedP.Load(),
		Failed:           r.failed.Load(),
		Superseded:       r.state.Load() == runSuperseded,
	}
	select {
	case <-r.finished:
		p.Finished = true
	default:
	}
	return p
}

// Done returns a channel closed when the run finishes or is superseded.
func (r *Revalidation) Done() <-chan struct{} { return r.finished }

// Wait blocks until the run finishes (or ctx is cancelled).
func (r *Revalidation) Wait(ctx context.Context) error {
	select {
	case <-r.finished:
		return nil
	case <-ctx.Done():
		return cancelled(ctx.Err())
	}
}

// supersede marks a still-active run abandoned and stops its workers; on
// a run that already completed it does nothing.
func (r *Revalidation) supersede() {
	if r.state.CompareAndSwap(runActive, runSuperseded) {
		r.cancel()
	}
}

// CurrentRevalidation returns the most recent revalidation run (possibly
// finished or superseded), or nil if none was ever started.
func (s *SCR) CurrentRevalidation() *Revalidation { return s.reval.Load() }

// Revalidate starts a background revalidation of every instance entry
// whose anchor lags the engine's current cost epoch, using a pool
// of `workers` goroutines (DefaultRevalidationWorkers when <= 0). It
// returns immediately with a handle; cancel ctx or let a later
// Revalidate supersede the run to stop it early. A run already in flight
// is superseded — its remaining lag belongs to the new run.
//
// Revalidation optimizer calls funnel through the same resilience layer
// as foreground traffic (circuit breaker, deadline, panic containment,
// fault injection), so a sick optimizer degrades revalidation instead of
// revalidation masking the sickness.
//
// Revalidate covers one template (one write domain); Directory.Revalidate
// walks every attached domain through one shared pool with usage-weighted
// cross-domain ordering (domains.go).
func (s *SCR) Revalidate(ctx context.Context, workers int) (*Revalidation, error) {
	j, ok := s.prepareReval(ctx)
	if !ok {
		return nil, ErrEpochUnsupported
	}
	runReval([]*revalJob{j}, workers)
	return j.r, nil
}

// revalJob is one domain's share of a revalidation round: its lagging
// entries in cheapest-first order plus the bookkeeping the shared worker
// pool needs to feed and finish the run.
type revalJob struct {
	s   *SCR
	r   *Revalidation
	ctx context.Context
	// lag is the entry work list, cheapest-first; next indexes the first
	// not-yet-dispatched entry (feeder goroutine only).
	lag  []*instanceEntry
	next int
	// usage is the aggregate usage count of the lagging entries — the
	// cross-domain feeding priority: revalidating the hottest domain's
	// entries first retires the most epoch-lag fallbacks per optimizer
	// call.
	usage int64
	// left counts entries not yet finished or abandoned; the run
	// completes when it reaches zero, which exactly one decrement sees.
	left atomic.Int64
}

// prepareReval snapshots one domain's lagging entries into a revalJob and
// installs its Revalidation handle (superseding any in-flight run). A
// domain with nothing lagging yields an already-finished job that holds
// no context. It reports false, and does nothing, for a domain whose
// engine has no epoch lifecycle.
func (s *SCR) prepareReval(ctx context.Context) (*revalJob, bool) {
	if s.epochEng == nil {
		return nil, false
	}
	target := s.costEpoch()
	insts := s.snapshot().instances
	lag := make([]*instanceEntry, 0)
	for _, e := range insts {
		if e.anc.Load().epoch != target {
			lag = append(lag, e)
		}
	}
	// Cheapest-first within the domain (ties broken by plan fingerprint
	// for determinism): cheap instances are the ones dynamic λ bounds
	// loosest and traffic hits most often.
	sort.SliceStable(lag, func(i, j int) bool {
		ai, aj := lag[i].anc.Load(), lag[j].anc.Load()
		if ai.c != aj.c {
			return ai.c < aj.c
		}
		return lag[i].pp.fp < lag[j].pp.fp
	})

	r := &Revalidation{target: target, total: int64(len(lag))}
	j := &revalJob{s: s, r: r, lag: lag}
	if len(lag) == 0 {
		r.state.Store(runCompleted)
		r.finished = closedRun
	} else {
		j.ctx, r.cancel = context.WithCancel(ctx)
		r.finished = make(chan struct{})
		j.left.Store(int64(len(lag)))
		for _, e := range lag {
			j.usage += e.u.Load()
		}
	}
	if prev := s.reval.Swap(r); prev != nil {
		prev.supersede()
	}
	return j, true
}

// finishOne accounts one dispatched entry as processed.
func (j *revalJob) finishOne() {
	if j.left.Add(-1) == 0 {
		j.complete()
	}
}

// abandon accounts k never-dispatched entries of a cancelled job.
func (j *revalJob) abandon(k int) {
	if k <= 0 {
		return
	}
	if j.left.Add(int64(-k)) == 0 {
		j.complete()
	}
}

// complete finishes the job's run: unless it was superseded first, its
// progress is final from here on; the context is cancelled (releasing
// any resources), the domain republishes — re-anchoring in place moves no
// snapshot, so this is what lifts the snapshot's stale anchor bounds and
// turns the cost-check prefilter back on — and the handle's Done channel
// closes. No caller holds the domain mutex: entries finish after
// revalidateEntry has released it, and the feeder never takes it.
func (j *revalJob) complete() {
	j.r.state.CompareAndSwap(runActive, runCompleted)
	j.r.cancel()
	j.s.dom.lock()
	j.s.dom.unlock()
	close(j.r.finished)
}

// revalItem is one unit of shared-pool work: an entry and the job it
// belongs to.
type revalItem struct {
	job *revalJob
	e   *instanceEntry
}

// runReval drives a set of revalidation jobs — one per domain — through a
// single shared worker pool and returns immediately. The feeder
// interleaves domains in decreasing aggregate-usage order, one entry per
// domain per round (cheapest-first within each domain), so the pool is
// never monopolized by a cold domain while a hot one lags, and each job's
// handle completes as soon as its own entries are accounted for — a fast
// domain's Done fires while slower domains keep revalidating.
func runReval(jobs []*revalJob, workers int) {
	if workers <= 0 {
		workers = DefaultRevalidationWorkers
	}
	var live []*revalJob
	for _, j := range jobs {
		if len(j.lag) > 0 {
			live = append(live, j)
		}
	}
	if len(live) == 0 {
		return
	}
	sort.SliceStable(live, func(i, k int) bool { return live[i].usage > live[k].usage })

	work := make(chan revalItem)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				it.job.s.revalidateEntry(it.job.ctx, it.job.r, it.e)
				it.job.finishOne()
			}
		}()
	}
	go func() {
		for {
			dispatched := false
			for _, j := range live {
				if j.next >= len(j.lag) {
					continue
				}
				if j.ctx.Err() != nil {
					j.abandon(len(j.lag) - j.next)
					j.next = len(j.lag)
					continue
				}
				select {
				case work <- revalItem{job: j, e: j.lag[j.next]}:
					j.next++
					dispatched = true
				case <-j.ctx.Done():
					j.abandon(len(j.lag) - j.next)
					j.next = len(j.lag)
				}
			}
			if !dispatched {
				break
			}
		}
		close(work)
		wg.Wait()
	}()
}

// revalidateEntry re-derives one lagging anchor under the run's target
// epoch: one full optimizer call at the entry's vector, then
//
//   - same plan still optimal  → re-anchor in place at S = 1;
//   - plan changed, old plan's recost ratio S' ≤ λr → demote in place
//     (the redundancy check's own threshold: the old plan is exactly as
//     acceptable as a redundant new plan would have been);
//   - otherwise → drop the entry (and its plan if orphaned) and insert
//     the fresh plan through the normal cache-management path.
//
// A cancelled context (superseded run, shutdown) is not a failure; any
// other error leaves the anchor lagging and counts as Failed.
func (s *SCR) revalidateEntry(ctx context.Context, r *Revalidation, e *instanceEntry) {
	defer r.done.Add(1)
	if ctx.Err() != nil {
		return
	}
	if e.anc.Load().epoch == r.target {
		return // already caught up (e.g. replaced by a concurrent insert)
	}
	if s.costEpoch() != r.target {
		r.supersede()
		return
	}
	cp, optCost, ep, err := s.callOptimizer(ctx, e.v)
	if err == nil && cp == nil {
		err = ErrNoPlan
	}
	if err != nil {
		if errors.Is(err, ErrCancelled) {
			return
		}
		r.failed.Add(1)
		s.ctr.revalFailed.Add(1)
		return
	}
	s.ctr.optCalls.Add(1)
	if ep != r.target {
		// The epoch advanced mid-call; a newer run owns this lag now.
		r.supersede()
		return
	}
	if cp.Fingerprint() == e.pp.fp {
		e.anc.Store(&anchor{c: optCost, s: 1, epoch: ep})
		r.reanchored.Add(1)
		s.ctr.revalidated.Add(1)
		return
	}
	// The optimal plan changed under the new statistics: measure the old
	// plan's residual sub-optimality at the anchor.
	oldCost, recEpoch, err := s.recostWithEpoch(nil, e.pp.cp, e.v)
	if err != nil {
		r.failed.Add(1)
		s.ctr.revalFailed.Add(1)
		return
	}
	s.ctr.manageRecosts.Add(1)
	if recEpoch != r.target {
		r.supersede()
		return
	}
	sNew := oldCost / optCost
	if sNew < 1 {
		// Stats noise put the cached plan below the new "optimal" —
		// sub-optimality is bounded by 1 by definition.
		sNew = 1
	}
	if sNew <= s.cfg.lambdaR {
		e.anc.Store(&anchor{c: optCost, s: sNew, epoch: ep})
		r.demoted.Add(1)
		s.ctr.revalDemoted.Add(1)
		s.ctr.revalidated.Add(1)
		return
	}
	s.replaceInstance(e, cp, optCost, ep, r)
}

// replaceInstance drops a lagging entry whose plan failed the λr
// threshold under the new epoch — removing the plan too if no other
// entry references it — and inserts the freshly optimized plan through
// manageCache at the target epoch.
func (s *SCR) replaceInstance(e *instanceEntry, cp *engine.CachedPlan, optCost float64, epoch uint64, r *Revalidation) {
	d := &s.dom
	d.lock()
	defer d.unlock()
	d.replaceEntryLocked(e, cp, optCost, epoch, r)
}
