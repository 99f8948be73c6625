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
// Publication protocol (coalescing). publishLocked no longer rebuilds the
// snapshot eagerly: it records a publication mark (pending) and defers
// the rebuild+store to flushLocked, which runs when the critical section
// ends (unlock) or every publishCoalesceWindow marks mid-section,
// whichever comes first. Mutations batched inside one critical section —
// a sweep removing k plans, an import installing a whole cache, a
// revalidation replacement followed by cache management — publish once,
// and readers never observe a snapshot staler than one mutation batch:
// visibility IS publication, and every writer flushes before releasing
// the domain mutex.
//
// Incremental publication. Between two publications the master instance
// slice is append-only: the published snapshot shares its backing array,
// with the snapshot's length fixed at publication time, so appends land
// beyond every published element and flushLocked can extend the previous
// snapshot — merging only the appended entries into the selectivity
// index — instead of rebuilding O(n log n) from scratch. Any mutation
// that is not an append (eviction, sweep, re-sort, import, plan-list
// change) must install a freshly allocated slice and set d.structural,
// which forces the next flush down the full-rebuild path.

// publishCoalesceWindow bounds how many publication marks may batch into
// one flush while a writer stays inside a single critical section. It is
// a mid-section backstop: unlock always flushes, so the window only
// matters for pathologically long batches (a sweep dropping hundreds of
// plans), where it bounds how far readers can lag behind the writer.
const publishCoalesceWindow = 64

// writeDomain owns one template's mutable plan-cache state: the writer
// mutex, the master plan and instance lists, and the published snapshot
// pointer. SCR embeds it by value and delegates every mutation to it;
// nothing outside this type's methods may touch these fields (the
// rcupublish analyzer enforces both the publish discipline and the
// no-cross-domain-store rule).
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

	// instances is the scan-ordered master instance list. Append-only
	// between publications; see the invariant above.
	instances []*instanceEntry

	// structural records that a non-append mutation happened since the
	// last flush, forcing a full snapshot rebuild.
	structural bool

	// pending counts publication marks since the last flush. It is an
	// atomic only so the analyzer's master-state detection skips it; it
	// is always accessed under mu.
	pending atomic.Int64

	// snap is the published immutable view of the master state; never nil
	// after init. Writers rebuild and swap it via publishLocked/
	// flushLocked.
	snap atomic.Pointer[cacheSnapshot]
}

// init wires the domain to its owning SCR and publishes the initial
// empty snapshot (version 1). Called once from NewSCR, before the SCR
// escapes its constructor.
func (d *writeDomain) init(s *SCR) {
	d.scr = s
	d.plans = make(map[string]*planEntry)
	d.publishLocked()
	d.flushLocked()
}

// lock acquires the domain's writer mutex, charging the wait to the
// striped writer-wait counter (pqo_writer_wait_seconds_total): under
// sharding, aggregate wait across domains is the direct measure of
// residual write contention.
func (d *writeDomain) lock() {
	start := time.Now()
	d.mu.Lock()
	d.scr.ctr.writerWaitNs.Add(time.Since(start).Nanoseconds())
}

// unlock flushes any pending publication marks and releases the writer
// mutex. Flushing before the release is what bounds reader staleness to
// one mutation batch: no mutation ever outlives its critical section
// unpublished.
func (d *writeDomain) unlock() {
	d.flushLocked()
	d.mu.Unlock()
}

// publishLocked records that master state changed and readers must gain
// visibility. Under coalescing the rebuild is deferred: the mark is
// counted and flushLocked runs at the end of the critical section (or
// every publishCoalesceWindow marks mid-section). Caller holds the
// domain mutex.
func (d *writeDomain) publishLocked() {
	if d.pending.Add(1) >= publishCoalesceWindow {
		d.flushLocked()
	}
}

// flushLocked rebuilds the immutable cache snapshot from the master state
// and publishes it with one atomic store, bumping the version — once for
// the whole batch of marks accumulated since the previous flush. A flush
// with no pending marks is a no-op, so unlock's unconditional flush costs
// nothing on read-only sections. When the batch was append-only (no
// structural mutation), the previous snapshot is extended in place:
// instances and plan list are shared, and only the appended entries are
// merged into the selectivity index — O(n + k log k) instead of the full
// O(n log n) rebuild. Caller holds the domain mutex.
//
//lint:allow hotalloc writer-path snapshot rebuild, amortized against the mutation batch that triggered it
func (d *writeDomain) flushLocked() {
	n := d.pending.Swap(0)
	if n == 0 {
		return
	}
	if len(d.plans) != len(d.plansSorted) {
		panic("core: write-domain plan map and sorted plan list diverged")
	}
	prev := d.snap.Load()
	next := &cacheSnapshot{
		instances: d.instances,
		plans:     d.plansSorted,
		version:   1,
		epoch:     d.scr.statsEpoch(),
	}
	switch {
	case prev == nil || d.structural || len(d.instances) < len(prev.instances):
		next.index = buildSelIndex(d.instances)
	case len(d.instances) == len(prev.instances):
		// Marks without new entries (defensive publish on an error path,
		// anchor-only batches): reuse the previous index outright.
		next.index = prev.index
	default:
		next.index = mergeSelIndex(&prev.index, d.instances, len(prev.instances))
	}
	if prev != nil {
		next.version = prev.version + 1
	}
	d.structural = false
	d.snap.Store(next)
	d.scr.ctr.publishes.Add(1)
	if n > 1 {
		d.scr.ctr.coalesced.Add(n - 1)
	}
}

// mergeSelIndex extends a published snapshot's selectivity index with the
// k entries appended since that snapshot was built. The previous index is
// already weight-sorted and the appended entries' scan positions all
// follow the published ones, so sorting the k newcomers and merging —
// previous entries first on weight ties — reproduces buildSelIndex's
// stable sort exactly, in O(n + k log k).
func mergeSelIndex(prev *selIndex, insts []*instanceEntry, oldLen int) selIndex {
	n := len(insts)
	k := n - oldLen
	type add struct {
		w   float64
		pos int32
	}
	adds := make([]add, 0, k)
	for i := oldLen; i < n; i++ {
		adds = append(adds, add{w: regionWeight(insts[i].v), pos: int32(i)})
	}
	sort.SliceStable(adds, func(a, b int) bool { return adds[a].w < adds[b].w })
	idx := selIndex{
		keys: make([]float64, 0, n),
		ents: make([]*instanceEntry, 0, n),
		pos:  make([]int32, 0, n),
	}
	i, j := 0, 0
	for i < oldLen || j < k {
		if j >= k || (i < oldLen && prev.keys[i] <= adds[j].w) {
			idx.keys = append(idx.keys, prev.keys[i])
			idx.ents = append(idx.ents, prev.ents[i])
			idx.pos = append(idx.pos, prev.pos[i])
			i++
		} else {
			idx.keys = append(idx.keys, adds[j].w)
			idx.ents = append(idx.ents, insts[adds[j].pos])
			idx.pos = append(idx.pos, adds[j].pos)
			j++
		}
	}
	return idx
}

// insertPlanLocked adds a plan to the master plan set, rebuilding the
// sorted plan list copy-on-write. Caller holds the domain mutex and must
// publish.
func (d *writeDomain) insertPlanLocked(pe *planEntry) {
	d.plans[pe.fp] = pe
	sorted := make([]*planEntry, 0, len(d.plans))
	i := sort.Search(len(d.plansSorted), func(i int) bool { return d.plansSorted[i].fp >= pe.fp })
	sorted = append(sorted, d.plansSorted[:i]...)
	sorted = append(sorted, pe)
	sorted = append(sorted, d.plansSorted[i:]...)
	d.plansSorted = sorted
	d.structural = true
	if n := int64(len(d.plans)); n > d.scr.maxPlans.Load() {
		d.scr.maxPlans.Store(n)
	}
}

// removePlanLocked drops a plan from the master plan set, rebuilding the
// sorted plan list copy-on-write. Caller holds the domain mutex and must
// publish.
func (d *writeDomain) removePlanLocked(pe *planEntry) {
	delete(d.plans, pe.fp)
	sorted := make([]*planEntry, 0, len(d.plans))
	for _, other := range d.plansSorted {
		if other != pe {
			sorted = append(sorted, other)
		}
	}
	d.plansSorted = sorted
	d.structural = true
}

// addInstance appends an instance entry. Appends are the one mutation the
// published snapshot tolerates in place (they land beyond its fixed
// length), so this does NOT set structural. Caller holds the domain mutex
// and must publish.
func (d *writeDomain) addInstance(e *instanceEntry) {
	d.instances = append(d.instances, e)
}

// setInstancesLocked replaces the master instance list with a freshly
// allocated slice — the required form for every non-append mutation,
// since the previous slice's backing array is shared with the published
// snapshot. Caller holds the domain mutex and must publish.
func (d *writeDomain) setInstancesLocked(insts []*instanceEntry) {
	d.instances = insts
	d.structural = true
}

// manageCache is Algorithm 2: record the optimized instance, running the
// redundancy check for genuinely new plans and enforcing the plan budget.
// epoch is the statistics generation optCost was derived under. Caller
// holds the domain mutex.
func (d *writeDomain) manageCache(sv []float64, cp *engine.CachedPlan, optCost float64, epoch uint64) error {
	s := d.scr
	// Mark a publication on every exit: even an error path may have
	// mutated master state (e.g. an eviction before the failure), and
	// readers must see it no later than the end of this critical section.
	defer d.publishLocked()
	v := make([]float64, len(sv))
	copy(v, sv)
	fp := cp.Fingerprint()

	if pe, ok := d.plans[fp]; ok {
		// Plan already cached: extend its inference region with this
		// instance.
		d.addInstance(newInstance(v, pe, optCost, 1, 1, epoch))
		return nil
	}

	// New plan: redundancy check against the cached plans. The check
	// compares optCost against recosts made under the *current* epoch, so
	// it is only sound when the generation has not advanced since the
	// optimizer call; after a mid-flight advance the plan is stored
	// directly (always sound — the check is an optimization).
	if !s.cfg.StoreAlways && len(d.plans) > 0 && epoch == s.costEpoch() {
		minPE, minCost, err := d.minCostPlan(sv)
		if err != nil {
			return err
		}
		sMin := minCost / optCost
		if sMin <= s.cfg.lambdaR() {
			// Redundant: discard the new plan, bind the instance to the
			// cheapest existing plan with its sub-optimality.
			s.ctr.redundantPlans.Add(1)
			d.addInstance(newInstance(v, minPE, optCost, sMin, 1, epoch))
			return nil
		}
	}

	if s.cfg.PlanBudget > 0 && len(d.plans) >= s.cfg.PlanBudget {
		d.evictLFU()
	}
	pe := &planEntry{cp: cp, fp: fp}
	d.insertPlanLocked(pe)
	d.addInstance(newInstance(v, pe, optCost, 1, 1, epoch))
	return nil
}

// minCostPlan recosts every cached plan at sv and returns the cheapest
// (getMinCostPlan of Algorithm 2). These recosts happen off the critical
// path and are counted separately.
func (d *writeDomain) minCostPlan(sv []float64) (*planEntry, float64, error) {
	s := d.scr
	var (
		best     *planEntry
		bestCost = math.Inf(1)
	)
	// Batch: one prepared instance across every cached plan's recost.
	pi := s.prepareRecost(sv)
	defer pi.Release()
	// plansSorted iterates in deterministic (fingerprint) order.
	for _, pe := range d.plansSorted {
		c, err := s.recostWith(pi, pe.cp, sv)
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
// λ-optimality guarantee (§6.3.1). Caller holds the domain mutex and
// must publish.
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

// resortInstances re-orders the master instance list per the configured
// scan order (§6.2) into a fresh slice — the previous one is shared with
// the published snapshot — and marks the publication. Called under the
// domain mutex every resortEvery lookups; sorting is O(n log n) off the
// hot path and keeps the scan prefix effective as the cache evolves.
//
//lint:allow hotalloc amortized writer-path resort, runs every resortEvery lookups rather than per request
func (d *writeDomain) resortInstances() {
	s := d.scr
	if s.cfg.Scan == ScanInsertion {
		return
	}
	insts := make([]*instanceEntry, len(d.instances))
	copy(insts, d.instances)
	switch s.cfg.Scan {
	case ScanByArea:
		sort.SliceStable(insts, func(i, j int) bool {
			return regionWeight(insts[i].v) > regionWeight(insts[j].v)
		})
	case ScanByUsage:
		sort.SliceStable(insts, func(i, j int) bool {
			return insts[i].u.Load() > insts[j].u.Load()
		})
	}
	d.setInstancesLocked(insts)
	d.publishLocked()
}

// sweepLocked is the body of SweepRedundantPlans (Appendix F): it tests
// every cached plan for redundancy against the remaining plans and drops
// those whose instances can all be served λ-optimally by alternatives.
// The per-removal publication marks coalesce into a single flush when the
// caller's critical section ends. Caller holds the domain mutex.
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
			d.publishLocked()
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
		if s.cfg.PlanBudget > 0 && len(d.plans) >= s.cfg.PlanBudget {
			return fmt.Errorf("%w: seeding would exceed the plan budget %d", ErrBudgetExhausted, s.cfg.PlanBudget)
		}
		pe = &planEntry{cp: cp, fp: fp}
		d.insertPlanLocked(pe)
	}
	v := make([]float64, len(sv))
	copy(v, sv)
	d.addInstance(newInstance(v, pe, optCost, subOpt, 0, s.costEpoch()))
	d.publishLocked()
	return nil
}

// replaceEntryLocked is the body of revalidation's replaceInstance: drop
// a lagging entry whose plan failed the λr threshold under the new epoch
// — removing the plan too if no other entry references it — and insert
// the freshly optimized plan through manageCache at the target epoch. The
// removal's and the insert's publication marks coalesce into one flush.
// Caller holds the domain mutex.
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
	d.publishLocked()
	r.droppedI.Add(1)
	s.ctr.revalDroppedI.Add(1)
	if orphaned {
		d.removePlanLocked(e.pp)
		d.publishLocked()
		r.droppedP.Add(1)
		s.ctr.revalDroppedP.Add(1)
	}
	if err := d.manageCache(e.v, cp, optCost, epoch); err != nil {
		r.failed.Add(1)
		s.ctr.revalFailed.Add(1)
		return
	}
	r.reanchored.Add(1)
	s.ctr.revalidated.Add(1)
}

// installImportLocked is the body of Import's final installation step:
// adopt the rehydrated plan set and instance list wholesale. One
// publication covers the whole install. Caller holds the domain mutex
// and has verified the cache is empty.
func (d *writeDomain) installImportLocked(byFP map[string]*planEntry, insts []*instanceEntry) {
	for _, pe := range byFP {
		d.insertPlanLocked(pe)
	}
	d.setInstancesLocked(insts)
	d.publishLocked()
}
