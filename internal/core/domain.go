package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// This file is the write half of the sharded RCU concurrency model: each
// SCR (one template's plan cache) embeds exactly one writeDomain, the
// unit of writer serialization and snapshot publication. Writers to
// different templates mutate different domains and never contend; a
// mutation republishes only its own domain's snapshot — O(instances in
// this domain), never O(total across templates). The top-level Directory
// (domains.go) maps template names to their domains through its own
// RCU-published snapshot, so the read path crosses the template boundary
// without a lock either.
//
// Publication protocol. Every critical section of a write domain ends in
// unlock, and unlock publishes: it rebuilds the snapshot from the master
// state and stores it before releasing the mutex. Mutations batched inside
// one critical section — a sweep removing k plans, an import installing a
// whole cache, a revalidation replacement followed by cache management —
// therefore publish once, and readers never observe a snapshot staler than
// one critical section.
//
// Incremental publication. Between two publications the master instance
// slice is append-only: the published snapshot shares its backing array,
// with the snapshot's length fixed at publication time, so appends land
// beyond every published element and flushLocked can extend the previous
// snapshot — folding only the appended entries' anchors into its anchor
// bounds — instead of rescanning the whole list. Any mutation that is
// not an append (eviction, sweep, import, plan-list change) installs a
// freshly allocated slice, which no longer shares the snapshot's backing
// array; flushLocked sees that and recomputes the bounds over the whole
// list.

// writeDomain owns one template's mutable plan-cache state: the writer
// mutex, the master plan and instance lists, and the published snapshot
// pointer. SCR holds it by value in its dom field and delegates every
// mutation to it; only this type's methods store into the fields its
// flushLocked reads (the rcupublish analyzer reports a store from
// anywhere else, docs/LINT.md).
type writeDomain struct {
	// scr points back to the owning SCR for configuration, engine access
	// and counters. Set once in init, immutable afterwards.
	scr *SCR

	// mu serializes writers over the master state below. Readers never
	// take it — they load snap.
	mu sync.Mutex

	// plans indexes cached plans by fingerprint; plansSorted is the same
	// set in ascending fingerprint order, rebuilt copy-on-write by
	// insertPlanLocked/removePlanLocked (never sorted in place) so a
	// published snapshot can share it.
	plans       map[string]*planEntry
	plansSorted []*planEntry

	// instances is the master instance list in insertion order.
	// Append-only between publications; see the invariant above.
	instances []*instanceEntry
	// logs holds log si(V) for every instance, d values per entry in
	// instance-list order: the cost-check scan's prefilter input (getPlan).
	// It is written once per stored instance and shares the instances
	// list's append-only discipline.
	logs []float64

	// snap is the published immutable view of the master state; never nil
	// after init. Writers rebuild and swap it in flushLocked.
	snap atomic.Pointer[cacheSnapshot]
}

// init wires the domain to its owning SCR and publishes the initial
// empty snapshot (version 1). Called once from New, before the SCR
// escapes its constructor.
func (d *writeDomain) init(s *SCR) {
	d.scr = s
	d.plans = make(map[string]*planEntry)
	d.flushLocked()
}

// lock acquires the domain's writer mutex, charging the wait to the
// writer-wait counter (pqo_writer_wait_seconds_total): summed across
// templates, it is the direct measure of residual write contention. An
// uncontended acquisition waits for nothing and reads no clock.
func (d *writeDomain) lock() {
	if d.mu.TryLock() {
		return
	}
	start := time.Now()
	d.mu.Lock()
	d.scr.ctr.writerWaitNs.Add(time.Since(start).Nanoseconds())
}

// unlock publishes the critical section's mutations and releases the
// writer mutex. Publishing before the release is what bounds reader
// staleness to one critical section: no mutation ever outlives its
// critical section unpublished.
func (d *writeDomain) unlock() {
	d.flushLocked()
	d.mu.Unlock()
}

// flushLocked rebuilds the immutable cache snapshot from the master state
// and publishes it with one atomic store, bumping the version. The
// snapshot shares the master's instance, log and plan slices. When the
// master instance list still shares the previous snapshot's backing array
// (the same first element, a length no shorter), the section only
// appended, and only the appended entries' anchors are folded into the
// previous snapshot's anchor bounds; any other list was installed fresh
// by a non-append mutation, and the bounds are recomputed over all of it.
// Caller holds the domain mutex.
func (d *writeDomain) flushLocked() {
	if len(d.plans) != len(d.plansSorted) {
		panic("core: write-domain plan map and sorted plan list diverged")
	}
	prev := d.snap.Load()
	next := &cacheSnapshot{
		instances: d.instances,
		logs:      d.logs,
		plans:     d.plansSorted,
		version:   1,
	}
	minEpoch, minS, from := uint64(math.MaxUint64), 1.0, 0
	if prev != nil && len(prev.instances) > 0 && len(d.instances) >= len(prev.instances) &&
		&d.instances[0] == &prev.instances[0] {
		minEpoch, minS, from = prev.minEpoch, prev.minS, len(prev.instances)
	}
	next.minEpoch, next.minS = anchorBounds(d.instances[from:], minEpoch, minS)
	if next.minEpoch < d.scr.costEpoch() && from > 0 {
		// Revalidation re-anchors in place, so a lagging bound folded
		// from the previous snapshot may be stale: recompute it before it
		// disables the cost-check prefilter for the life of this snapshot.
		next.minEpoch, next.minS = anchorBounds(d.instances, math.MaxUint64, 1)
	}
	next.selCut = math.Log(d.scr.cfg.lambdaMax() / next.minS)
	if prev != nil {
		next.version = prev.version + 1
	}
	d.snap.Store(next)
	d.scr.ctr.publishes.Add(1)
}

// anchorBounds folds insts' anchors into the running bounds (minEpoch,
// minS): the lowest anchor epoch and the lowest sub-optimality S, the
// latter capped at 1. Both stay valid lower bounds for as long as the
// entries live, because an anchor is only ever swapped by revalidation,
// which moves it to a newer epoch at S ≥ 1.
func anchorBounds(insts []*instanceEntry, minEpoch uint64, minS float64) (uint64, float64) {
	for _, e := range insts {
		a := e.anc.Load()
		minEpoch = min(minEpoch, a.epoch)
		minS = min(minS, a.s)
	}
	return minEpoch, minS
}

// insertPlanLocked adds a plan to the master plan set, rebuilding the
// sorted plan list copy-on-write. Caller holds the domain mutex.
func (d *writeDomain) insertPlanLocked(pe *planEntry) {
	d.plans[pe.fp] = pe
	sorted := make([]*planEntry, 0, len(d.plans))
	i := sort.Search(len(d.plansSorted), func(i int) bool { return d.plansSorted[i].fp >= pe.fp })
	sorted = append(sorted, d.plansSorted[:i]...)
	sorted = append(sorted, pe)
	sorted = append(sorted, d.plansSorted[i:]...)
	d.plansSorted = sorted
	if n := int64(len(d.plans)); n > d.scr.maxPlans.Load() {
		d.scr.maxPlans.Store(n)
	}
}

// removePlanLocked drops a plan from the master plan set, rebuilding the
// sorted plan list copy-on-write. Caller holds the domain mutex.
func (d *writeDomain) removePlanLocked(pe *planEntry) {
	delete(d.plans, pe.fp)
	sorted := make([]*planEntry, 0, len(d.plans))
	for _, other := range d.plansSorted {
		if other != pe {
			sorted = append(sorted, other)
		}
	}
	d.plansSorted = sorted
}

// addInstance appends an instance entry. Appends are the one mutation the
// published snapshot tolerates in place: they land beyond its fixed
// length. Caller holds the domain mutex.
func (d *writeDomain) addInstance(e *instanceEntry) {
	d.instances = append(d.instances, e)
	d.logs = appendLogs(d.logs, e.v)
}

// appendLogs appends log si for every selectivity of v.
func appendLogs(logs, v []float64) []float64 {
	for _, x := range v {
		logs = append(logs, math.Log(x))
	}
	return logs
}

// setInstancesLocked replaces the master instance list with a freshly
// allocated slice — the required form for every non-append mutation,
// since the previous slice's backing array is shared with the published
// snapshot. Caller holds the domain mutex.
func (d *writeDomain) setInstancesLocked(insts []*instanceEntry) {
	d.instances = insts
	logs := make([]float64, 0, len(d.logs))
	for _, e := range insts {
		logs = appendLogs(logs, e.v)
	}
	d.logs = logs
}

// manageCache is Algorithm 2: record the optimized instance, running the
// redundancy check for genuinely new plans and enforcing the plan budget.
// epoch is the statistics generation optCost was derived under; pr, if
// not nil, holds recosts of sv to reuse. Caller holds the domain mutex.
func (d *writeDomain) manageCache(sv []float64, cp *engine.CachedPlan, optCost float64, epoch uint64, pr *pricing) error {
	s := d.scr
	fp := cp.Fingerprint()

	if pe, ok := d.plans[fp]; ok {
		// Plan already cached: extend its inference region with this
		// instance.
		d.addInstance(newInstance(sv, pe, optCost, 1, 1, epoch))
		return nil
	}

	// New plan: redundancy check against the cached plans. The check
	// compares optCost against recosts made under the *current* epoch, so
	// it is only sound when the generation has not advanced since the
	// optimizer call; after a mid-flight advance the plan is stored
	// directly (always sound — the check is an optimization).
	if !s.cfg.storeAlways && len(d.plans) > 0 && epoch == s.costEpoch() {
		minPE, minCost, err := d.minCostPlan(sv, pr)
		if err != nil {
			return err
		}
		sMin := minCost / optCost
		if sMin <= s.cfg.lambdaR {
			// Redundant: discard the new plan, bind the instance to the
			// cheapest existing plan with its sub-optimality.
			s.ctr.redundantPlans.Add(1)
			d.addInstance(newInstance(sv, minPE, optCost, sMin, 1, epoch))
			return nil
		}
	}

	if s.cfg.planBudget > 0 && len(d.plans) >= s.cfg.planBudget {
		d.evictLFU()
	}
	pe := &planEntry{cp: cp, fp: fp}
	d.insertPlanLocked(pe)
	d.addInstance(newInstance(sv, pe, optCost, 1, 1, epoch))
	return nil
}

// minCostPlan recosts every cached plan at sv and returns the cheapest
// (getMinCostPlan of Algorithm 2). These recosts happen off the critical
// path and are counted separately. pr's prepared instance and recosts are
// reused when they were derived under the current cost epoch, which the
// caller has checked optCost was derived under.
func (d *writeDomain) minCostPlan(sv []float64, pr *pricing) (*planEntry, float64, error) {
	s := d.scr
	var (
		best     *planEntry
		bestCost = math.Inf(1)
	)
	// Batch: one prepared instance across every cached plan's recost.
	var own pricing
	if pr == nil || pr.pi == nil || pr.pi.EpochID() != s.costEpoch() {
		own.pi = s.prepareRecost(sv)
		pr = &own
		defer own.release()
	}
	// plansSorted iterates in deterministic (fingerprint) order.
	for _, pe := range d.plansSorted {
		c, _, err := s.price(pr, pe.cp, sv)
		if err != nil {
			return nil, 0, err
		}
		s.ctr.manageRecosts.Add(1)
		if c < bestCost {
			best, bestCost = pe, c
		}
	}
	return best, bestCost, nil
}

// evictLFU drops the plan with the lowest aggregate usage count and
// removes every instance entry pointing to it, preserving the
// λ-optimality guarantee (§6.3.1). Caller holds the domain mutex.
func (d *writeDomain) evictLFU() {
	usage := make(map[*planEntry]int64, len(d.plans))
	for _, e := range d.instances {
		usage[e.pp] += e.u.Load()
	}
	var (
		victim    *planEntry
		victimUse = int64(math.MaxInt64)
	)
	for _, pe := range d.plansSorted {
		if u := usage[pe]; u < victimUse {
			victim, victimUse = pe, u
		}
	}
	if victim == nil {
		return
	}
	d.removePlanLocked(victim)
	// The previous instance slice's backing array is shared with the
	// published snapshot: filter into a fresh slice, never in place.
	kept := make([]*instanceEntry, 0, len(d.instances))
	for _, e := range d.instances {
		if e.pp != victim {
			kept = append(kept, e)
		}
	}
	d.setInstancesLocked(kept)
	d.scr.ctr.evictions.Add(1)
}

// sweepLocked is the body of SweepRedundantPlans (Appendix F): it tests
// every cached plan for redundancy against the remaining plans and drops
// those whose instances can all be served λ-optimally by alternatives.
// Every removal publishes together when the caller's critical section
// ends. Caller holds the domain mutex.
func (d *writeDomain) sweepLocked() (int, error) {
	dropped := 0
	for {
		// Order plans by ascending instance count (cheapest to verify and
		// most likely redundant, per Appendix F).
		count := make(map[*planEntry]int, len(d.plans))
		for _, e := range d.instances {
			count[e.pp]++
		}
		ordered := make([]*planEntry, 0, len(d.plans))
		ordered = append(ordered, d.plansSorted...)
		sort.Slice(ordered, func(i, j int) bool {
			if count[ordered[i]] != count[ordered[j]] {
				return count[ordered[i]] < count[ordered[j]]
			}
			return ordered[i].fp < ordered[j].fp
		})
		removedOne := false
		for _, pe := range ordered {
			if len(d.plans) <= 1 {
				break
			}
			ok, rebound, err := d.planIsRedundant(pe)
			if err != nil {
				return dropped, err
			}
			if !ok {
				continue
			}
			d.removePlanLocked(pe)
			kept := make([]*instanceEntry, 0, len(d.instances))
			for _, e := range d.instances {
				if e.pp != pe {
					kept = append(kept, e)
				}
			}
			d.setInstancesLocked(append(kept, rebound...))
			dropped++
			removedOne = true
			break // re-derive counts after each removal
		}
		if !removedOne {
			return dropped, nil
		}
	}
}

// planIsRedundant checks whether every instance bound to pe has an
// alternative λ-optimal plan among the other cached plans; if so it
// returns replacement instance entries bound to those alternatives.
func (d *writeDomain) planIsRedundant(pe *planEntry) (bool, []*instanceEntry, error) {
	s := d.scr
	var rebound []*instanceEntry
	cur := s.costEpoch()
	for _, e := range d.instances {
		if e.pp != pe {
			continue
		}
		if e.anc.Load().epoch != cur {
			// A lagging anchor cannot be compared against current-epoch
			// recosts; the plan is not sweepable until revalidated.
			return false, nil, nil
		}
		var (
			alt     *planEntry
			altCost = math.Inf(1)
		)
		// Batch per bound instance: its vector is fixed across the recosts
		// of every alternative plan.
		pi := s.prepareRecost(e.v)
		for _, other := range d.plansSorted {
			if other == pe {
				continue
			}
			c, err := s.recostWith(pi, other.cp, e.v)
			if err != nil {
				pi.Release()
				return false, nil, err
			}
			s.ctr.manageRecosts.Add(1)
			if c < altCost {
				alt, altCost = other, c
			}
		}
		pi.Release()
		if alt == nil {
			return false, nil, nil
		}
		a := e.anc.Load()
		sAlt := altCost / a.c
		if sAlt > s.cfg.lambdaFor(a.c) {
			return false, nil, nil
		}
		rebound = append(rebound, newInstance(e.v, alt, a.c, sAlt, e.u.Load(), a.epoch))
	}
	return true, rebound, nil
}

// seedLocked is the body of SeedInstance: install an externally supplied
// (plan, anchor) pair. Caller holds the domain mutex; input validation
// happened in the wrapper.
func (d *writeDomain) seedLocked(sv []float64, cp *engine.CachedPlan, optCost, subOpt float64) error {
	s := d.scr
	fp := cp.Fingerprint()
	pe, ok := d.plans[fp]
	if !ok {
		if s.cfg.planBudget > 0 && len(d.plans) >= s.cfg.planBudget {
			return fmt.Errorf("%w: seeding would exceed the plan budget %d", ErrBudgetExhausted, s.cfg.planBudget)
		}
		pe = &planEntry{cp: cp, fp: fp}
		d.insertPlanLocked(pe)
	}
	d.addInstance(newInstance(sv, pe, optCost, subOpt, 0, s.costEpoch()))
	return nil
}

// replaceEntryLocked is the body of revalidation's replaceInstance: drop
// a lagging entry whose plan failed the λr threshold under the new epoch
// — removing the plan too if no other entry references it — and insert
// the freshly optimized plan through manageCache at the target epoch. The
// removal and the insert publish together at unlock. Caller holds the
// domain mutex.
func (d *writeDomain) replaceEntryLocked(e *instanceEntry, cp *engine.CachedPlan, optCost float64, epoch uint64, r *Revalidation) {
	s := d.scr
	found := false
	orphaned := true
	kept := make([]*instanceEntry, 0, len(d.instances))
	for _, o := range d.instances {
		if o == e {
			found = true
			continue
		}
		kept = append(kept, o)
		if o.pp == e.pp {
			orphaned = false
		}
	}
	if !found {
		// The entry was evicted or swept while we optimized; nothing to
		// replace.
		return
	}
	d.setInstancesLocked(kept)
	r.droppedI.Add(1)
	s.ctr.revalDroppedI.Add(1)
	if orphaned {
		d.removePlanLocked(e.pp)
		r.droppedP.Add(1)
		s.ctr.revalDroppedP.Add(1)
	}
	if err := d.manageCache(e.v, cp, optCost, epoch, nil); err != nil {
		r.failed.Add(1)
		s.ctr.revalFailed.Add(1)
		return
	}
	r.reanchored.Add(1)
	s.ctr.revalidated.Add(1)
}

// installImportLocked is the body of Import's final installation step:
// adopt the rehydrated plan set and instance list wholesale; unlock
// publishes the whole install at once. Caller holds the domain mutex and
// has verified the cache is empty.
func (d *writeDomain) installImportLocked(byFP map[string]*planEntry, insts []*instanceEntry) {
	for _, pe := range byFP {
		d.insertPlanLocked(pe)
	}
	d.setInstancesLocked(insts)
}
