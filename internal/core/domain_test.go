package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/pqotest"
	"repro/internal/workload"
)

// TestSweepCoalescesIntoSinglePublication pins the one-publication-per-
// critical-section rule on a long sweep: the cache holds 80 plans, each a
// tangent of the concave cost curve 100 + 10·√x at its own anchor, so
// every plan is optimal at its anchor and within 1.5× of optimal
// everywhere, and the sweep drops all but one of them. The 79 removals
// must reach readers as one version move and one publication — never a
// half-swept cache.
func TestSweepCoalescesIntoSinglePublication(t *testing.T) {
	const n = 80
	specs := make([]pqotest.PlanSpec, n)
	xs := make([]float64, n)
	for i := range specs {
		x := 0.01 * math.Pow(100, float64(i)/(n-1)) // 0.01 … 1
		xs[i] = x
		r := math.Sqrt(x)
		specs[i] = pqotest.PlanSpec{Name: fmt.Sprintf("t%d", i), Const: 100 + 5*r, Linear: []float64{5 / r}}
	}
	eng, err := pqotest.NewEngine(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, WithLambda(2))
	for _, x := range xs {
		sv := []float64{x}
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SeedInstance(sv, cp, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().CurPlans; got != n {
		t.Fatalf("seeded %d plans, want %d: each tangent must be optimal at its own anchor", got, n)
	}
	before := s.snapshot().version
	stBefore := s.Stats()
	dropped, err := s.SweepRedundantPlans()
	if err != nil {
		t.Fatal(err)
	}
	after := s.snapshot().version
	stAfter := s.Stats()
	if dropped != n-1 {
		t.Fatalf("sweep dropped %d plans, want %d", dropped, n-1)
	}
	if after != before+1 {
		t.Errorf("sweep dropping %d plans moved version %d -> %d, want exactly one publication", dropped, before, after)
	}
	if got := stAfter.PublishTotal - stBefore.PublishTotal; got != 1 {
		t.Errorf("PublishTotal moved by %d across the sweep, want 1", got)
	}
}

// rehydratingEngine lets a synthetic engine import an exported cache: a
// pqotest plan is identified by its fingerprint alone.
type rehydratingEngine struct{ *pqotest.EpochEngine }

func (rehydratingEngine) Rehydrate(p *plan.Plan) (*engine.CachedPlan, error) {
	return &engine.CachedPlan{Plan: p}, nil
}

// TestPublishedAnchorBoundsMatchWholeList checks the incremental flush
// against a full recomputation: every snapshot published during a
// single-goroutine churn — appends past the instance slice's capacity,
// plan-budget evictions, statistics advances, seeds, a sweep and an
// import — carries exactly the anchor bounds of its whole instance list.
// flushLocked folds only the appended anchors when the master list still
// shares the previous snapshot's backing array, so a non-append mutation
// mistaken for an append would leave bounds the list does not have.
func TestPublishedAnchorBoundsMatchWholeList(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base, err := pqotest.RandomEngine(rng, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	eng := rehydratingEngine{pqotest.NewEpochEngine(base)}
	s := mustSCR(t, eng, WithLambda(2), WithPlanBudget(2))
	ctx := context.Background()
	checked := 0
	check := func(s *SCR, step string) {
		t.Helper()
		snap := s.snapshot()
		minEpoch, minS := anchorBounds(snap.instances, math.MaxUint64, 1)
		if snap.minEpoch != minEpoch || snap.minS != minS {
			t.Fatalf("%s: snapshot v%d over %d instances has bounds (%d, %v), the whole list has (%d, %v)",
				step, snap.version, len(snap.instances), snap.minEpoch, snap.minS, minEpoch, minS)
		}
		if want := math.Log(s.cfg.lambdaMax() / minS); snap.selCut != want {
			t.Fatalf("%s: snapshot selCut %v, want %v", step, snap.selCut, want)
		}
		checked++
	}
	grows := 0
	for i := 0; i < 600; i++ {
		if i > 0 && i%150 == 0 {
			eng.Advance()
		}
		capBefore := cap(s.dom.instances)
		if _, err := s.Process(ctx, pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
		if cap(s.dom.instances) > capBefore && len(s.dom.instances) > 0 {
			grows++
		}
		check(s, fmt.Sprintf("process %d", i))
		if i%97 == 0 {
			sv := pqotest.RandomSVector(rng, 3)
			cp, c, err := eng.Optimize(sv)
			if err != nil {
				t.Fatal(err)
			}
			// A seed past the plan budget is refused; either way the
			// critical section publishes.
			_ = s.SeedInstance(sv, cp, c, 1.25)
			check(s, fmt.Sprintf("seed %d", i))
		}
	}
	if _, err := s.SweepRedundantPlans(); err != nil {
		t.Fatal(err)
	}
	check(s, "sweep")
	st := s.Stats()
	if st.Evictions == 0 || grows == 0 {
		t.Fatalf("churn exercised %d evictions and %d appends past capacity; want both", st.Evictions, grows)
	}

	data, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := mustSCR(t, eng, WithLambda(2), WithPlanBudget(2))
	if err := dst.Import(data); err != nil {
		t.Fatal(err)
	}
	check(dst, "import")
	for i := 0; i < 50; i++ {
		if _, err := dst.Process(ctx, pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
		check(dst, fmt.Sprintf("post-import process %d", i))
	}

	// A miss whose optimizer call straddled an advance stores an anchor
	// tagged with the older epoch. Here it evicts a one-instance plan in
	// the same critical section, so the new list is as long as the
	// published one, and its lagging entry sits inside the published
	// length: only the fresh backing array tells the flush that this was
	// not an append, and a fold of the tail alone would miss the lag.
	late := mustSCR(t, eng, WithLambda(2), WithPlanBudget(2))
	cur := eng.Advance()
	for _, sv := range [][]float64{{1e-4, 1e-4, 1e-4}, {1, 1, 1}} {
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := late.SeedInstance(sv, cp, c, 1); err != nil {
			t.Fatal(err)
		}
	}
	check(late, "seeds at the current epoch")
	var stale []float64
	var staleCP *engine.CachedPlan
	var staleCost float64
	for i := 0; staleCP == nil; i++ {
		if i == 1000 {
			t.Fatal("found no vector whose optimal plan is not cached")
		}
		sv := pqotest.RandomSVector(rng, 3)
		cp, c, err := eng.Optimize(sv)
		if err != nil {
			t.Fatal(err)
		}
		if _, cached := late.dom.plans[cp.Fingerprint()]; !cached {
			stale, staleCP, staleCost = sv, cp, c
		}
	}
	if err := late.storePlan(stale, staleCP, staleCost, cur-1, nil); err != nil {
		t.Fatal(err)
	}
	if got := late.Stats().Evictions; got != 1 {
		t.Fatalf("stale store evicted %d plans, want 1", got)
	}
	check(late, "stale store with eviction")
	if snap := late.snapshot(); snap.minEpoch != cur-1 {
		t.Fatalf("snapshot minEpoch = %d after storing an epoch-%d anchor", snap.minEpoch, cur-1)
	}
	t.Logf("%d snapshots checked; %d evictions, %d appends past capacity", checked, st.Evictions, grows)
}

// TestImportSinglePublication: the whole import — plan set and instance
// list — lands under one publication.
func TestImportSinglePublication(t *testing.T) {
	eng := realEngine(t)
	src := mustSCR(t, eng, WithLambda(2), WithStoreAlways())
	insts, err := workload.GenerateSet(2, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range insts {
		if _, err := src.Process(context.Background(), q.SV); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst := mustSCR(t, eng, WithLambda(2))
	before := dst.snapshot().version
	if err := dst.Import(data); err != nil {
		t.Fatal(err)
	}
	after := dst.snapshot().version
	if after != before+1 {
		t.Errorf("import moved version %d -> %d, want exactly one publication", before, after)
	}
	if got, want := dst.Stats().CurPlans, src.Stats().CurPlans; got != want {
		t.Errorf("imported %d plans, want %d", got, want)
	}
}

// TestWriteDomainIsolation: mutating one template's cache must republish
// only that template's snapshot — sibling domains' published pointers
// stay untouched — and a writer holding one domain's mutex must not stall
// a store into another.
func TestWriteDomainIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dir := NewDirectory()
	var scrs []*SCR
	for i := 0; i < 3; i++ {
		eng, err := pqotest.RandomEngine(rng, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		s := mustSCR(t, eng, WithLambda(2))
		if err := dir.Attach(fmt.Sprintf("t%d", i), s); err != nil {
			t.Fatal(err)
		}
		scrs = append(scrs, s)
	}

	// scrs[1] is empty, so its first Process misses, calls the optimizer
	// and stores under its own writer mutex while scrs[0]'s is held.
	type result struct {
		dec *Decision
		err error
	}
	done := make(chan result, 1)
	sv := pqotest.RandomSVector(rng, 3)
	scrs[0].dom.mu.Lock()
	go func() {
		dec, err := scrs[1].Process(context.Background(), sv)
		done <- result{dec, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Error("a store into t1 waited on t0's writer mutex: write domains share a lock")
	}
	scrs[0].dom.mu.Unlock()
	if r.dec == nil && r.err == nil {
		r = <-done
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.dec.Optimized {
		t.Fatalf("first Process on an empty cache served via %v, want an optimizer call and store", r.dec.Via)
	}

	idle0 := scrs[0].snapshot()
	idle2 := scrs[2].snapshot()
	for i := 0; i < 50; i++ {
		if _, err := scrs[1].Process(context.Background(), pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if scrs[1].snapshot().version <= 1 {
		t.Error("churned domain never published")
	}
	if scrs[0].snapshot() != idle0 || scrs[2].snapshot() != idle2 {
		t.Error("idle domains republished by a sibling's mutations: write domains are not isolated")
	}
	if n := dir.Len(); n != 3 {
		t.Errorf("directory reports %d domains, want 3", n)
	}
}

// TestSnapshotImmutableUnderMultiTemplateChurn generalizes the RCU
// immutability invariant across write domains: concurrent writers churn
// several templates through one Directory while per-template readers
// hold published snapshots across the churn and verify them
// byte-for-byte afterwards. Run under -race: cross-domain interference —
// one domain's writer touching another's published arrays — would also
// surface as a data race here.
func TestSnapshotImmutableUnderMultiTemplateChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const templates = 3
	dir := NewDirectory()
	scrs := make([]*SCR, templates)
	for i := range scrs {
		eng, err := pqotest.RandomEngine(rng, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		scrs[i] = mustSCR(t, eng, WithLambda(2), WithPlanBudget(4), WithStoreAlways())
		if err := dir.Attach(fmt.Sprintf("t%d", i), scrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, s := range scrs {
		for i := 0; i < 8; i++ {
			if _, err := s.Process(ctx, pqotest.RandomSVector(rng, 3)); err != nil {
				t.Fatal(err)
			}
		}
	}

	const (
		writersPer = 2
		perWriter  = 80
		readRounds = 20
	)
	streams := make([][][]float64, templates*writersPer)
	for w := range streams {
		streams[w] = make([][]float64, perWriter)
		for i := range streams[w] {
			streams[w][i] = pqotest.RandomSVector(rng, 3)
		}
	}

	var (
		wg    sync.WaitGroup
		swept [templates]atomic.Int64
	)
	stop := make(chan struct{})
	for w := 0; w < templates*writersPer; w++ {
		wg.Add(1)
		go func(ti int, stream [][]float64) {
			defer wg.Done()
			s := scrs[ti]
			for i, sv := range stream {
				if _, err := s.Process(ctx, sv); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					n, err := s.SweepRedundantPlans()
					if err != nil {
						t.Error(err)
						return
					}
					swept[ti].Add(int64(n))
				}
			}
		}(w%templates, streams[w])
	}

	var readers sync.WaitGroup
	for ti := 0; ti < templates; ti++ {
		readers.Add(1)
		go func(s *SCR) {
			defer readers.Done()
			for r := 0; r < readRounds; r++ {
				snap := s.snapshot()
				fp := fingerprintSnapshot(snap)
				for s.snapshot().version < fp.version+2 {
					select {
					case <-stop:
						fp.verify(t, snap)
						return
					default:
						runtime.Gosched()
					}
				}
				fp.verify(t, snap)
				if t.Failed() {
					return
				}
			}
		}(scrs[ti])
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	for i, s := range scrs {
		final := s.snapshot()
		if final.version <= 0 {
			t.Fatalf("template %d final version %d, want > 0", i, final.version)
		}
		if s.Stats().Evictions+swept[i].Load() == 0 {
			t.Fatalf("template %d: no eviction or sweep drop, the churn never rewrote the instance list", i)
		}
		if d := s.eng.Dimensions(); len(final.logs) != d*len(final.instances) {
			t.Fatalf("template %d log-selectivity array holds %d values, instance list needs %d×%d",
				i, len(final.logs), len(final.instances), d)
		}
	}
}

// TestDirectoryConsistencyUnderChurn: a reader loading the directory
// snapshot during Attach/Detach churn must never observe a torn
// directory — the name and domain slices always pair up, names stay
// sorted, every pointer is valid, and the version only moves forward.
func TestDirectoryConsistencyUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	const names = 8
	scrs := make([]*SCR, names)
	for i := range scrs {
		scrs[i] = mustSCR(t, eng, WithLambda(2))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			i := round % names
			name := fmt.Sprintf("t%d", i)
			if _, ok := dir.Lookup(name); ok {
				dir.Detach(name)
			} else if err := dir.Attach(name, scrs[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var lastVersion int64
	for reads := 0; reads < 5000; reads++ {
		snap := dir.snap.Load()
		if len(snap.names) != len(snap.scrs) {
			t.Fatalf("torn directory: %d names, %d domains", len(snap.names), len(snap.scrs))
		}
		if !sort.StringsAreSorted(snap.names) {
			t.Fatalf("directory names unsorted: %v", snap.names)
		}
		for i, s := range snap.scrs {
			if s == nil {
				t.Fatalf("directory entry %q resolves to nil", snap.names[i])
			}
		}
		if snap.version < lastVersion {
			t.Fatalf("directory version moved backwards: %d -> %d", lastVersion, snap.version)
		}
		lastVersion = snap.version
		select {
		case <-stop:
		default:
		}
	}
	wg.Wait()
	close(stop)

	if err := dir.Attach("t0", mustSCR(t, eng, WithLambda(2))); err == nil {
		dir.Detach("t0")
	}
	if _, ok := dir.Lookup("missing"); ok {
		t.Error("Lookup resolved a never-attached name")
	}
	got := dir.Names()
	if len(got) != dir.Len() {
		t.Errorf("Names() returned %d entries, Len() says %d", len(got), dir.Len())
	}
}

// TestDirectoryAttachRejectsDuplicates pins the identity rule: a template
// name binds to one domain for its lifetime.
func TestDirectoryAttachRejectsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	s := mustSCR(t, eng, WithLambda(2))
	if err := dir.Attach("q1", s); err != nil {
		t.Fatal(err)
	}
	if err := dir.Attach("q1", mustSCR(t, eng, WithLambda(2))); err == nil {
		t.Fatal("duplicate Attach accepted")
	}
	if err := dir.Attach("q2", nil); err == nil {
		t.Fatal("nil Attach accepted")
	}
	if !dir.Detach("q1") {
		t.Fatal("Detach of attached name reported false")
	}
	if dir.Detach("q1") {
		t.Fatal("Detach of detached name reported true")
	}
}

// TestDirectoryRevalidate drives multi-template revalidation through the
// shared pool: every attached epoch-capable domain's lag drains, each
// handle completes, and serving resumes at the new epoch everywhere.
func TestDirectoryRevalidate(t *testing.T) {
	dir := NewDirectory()
	engines := make(map[string]*pqotest.EpochEngine, 3)
	vectors := [][]float64{{0.01, 0.9}, {0.9, 0.01}, {0.05, 0.8}, {0.8, 0.05}}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		s, eng := epochSCR(t)
		if err := dir.Attach(name, s); err != nil {
			t.Fatal(err)
		}
		engines[name] = eng
		for _, sv := range vectors {
			if _, err := s.Process(ctx, sv); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, eng := range engines {
		eng.Advance()
	}
	runs := dir.Revalidate(ctx, 4)
	if len(runs) != 3 {
		t.Fatalf("revalidation covered %d templates, want 3", len(runs))
	}
	deadline, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for name, r := range runs {
		if err := r.Wait(deadline); err != nil {
			t.Fatalf("template %s: %v", name, err)
		}
		p := r.Progress()
		if !p.Finished || p.Done != p.Total {
			t.Fatalf("template %s run incomplete: %+v", name, p)
		}
	}
	for name := range engines {
		s, ok := dir.Lookup(name)
		if !ok {
			t.Fatalf("template %s detached itself", name)
		}
		if lag := s.Stats().LaggingInstances; lag != 0 {
			t.Errorf("template %s still lags %d instances after revalidation", name, lag)
		}
	}
}
