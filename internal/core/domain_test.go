package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/pqotest"
	"repro/internal/workload"
)

// TestSweepCoalescesIntoSinglePublication pins the coalescing primitive:
// a sweep that removes k plans marks k publications but flushes exactly
// once, when its critical section ends — readers see the whole sweep as
// one version move, never a half-swept cache.
func TestSweepCoalescesIntoSinglePublication(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	eng, err := pqotest.RandomEngine(rng, 3, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSCR(t, eng, Config{Lambda: 2, StoreAlways: true})
	for i := 0; i < 300; i++ {
		if _, err := s.Process(context.Background(), pqotest.RandomSVector(rng, 3)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.snapshot().version
	stBefore := s.Stats()
	dropped, err := s.SweepRedundantPlans()
	if err != nil {
		t.Fatal(err)
	}
	after := s.snapshot().version
	stAfter := s.Stats()
	if dropped == 0 {
		t.Skip("sweep found nothing to drop; coalescing unexercised under this seed")
	}
	if after != before+1 {
		t.Errorf("sweep dropping %d plans moved version %d -> %d, want exactly one publication", dropped, before, after)
	}
	if got := stAfter.PublishTotal - stBefore.PublishTotal; got != 1 {
		t.Errorf("PublishTotal moved by %d across the sweep, want 1", got)
	}
	if got := stAfter.PublishCoalesced - stBefore.PublishCoalesced; got != int64(dropped)-1 {
		t.Errorf("PublishCoalesced moved by %d across a %d-removal sweep, want %d", got, dropped, dropped-1)
	}
}

// TestImportSinglePublication: the whole import — plan set and instance
// list — lands under one publication.
func TestImportSinglePublication(t *testing.T) {
	eng := realEngine(t)
	src := mustSCR(t, eng, Config{Lambda: 2, StoreAlways: true})
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
	dst := mustSCR(t, eng, Config{Lambda: 2})
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
		s := mustSCR(t, eng, Config{Lambda: 2})
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
	st := dir.Stats()
	if st.Domains != 3 {
		t.Errorf("directory stats report %d domains, want 3", st.Domains)
	}
	if st.PublishTotal == 0 || st.Instances == 0 {
		t.Errorf("directory stats did not aggregate: %+v", st)
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
		scrs[i] = mustSCR(t, eng, Config{Lambda: 2, PlanBudget: 4, Scan: ScanByUsage, StoreAlways: true})
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

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < templates*writersPer; w++ {
		wg.Add(1)
		go func(s *SCR, stream [][]float64) {
			defer wg.Done()
			for i, sv := range stream {
				if _, err := s.Process(ctx, sv); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					if _, err := s.SweepRedundantPlans(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(scrs[w%templates], streams[w])
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
		if len(final.index.keys) != len(final.instances) {
			t.Fatalf("template %d index covers %d entries, instance list has %d",
				i, len(final.index.keys), len(final.instances))
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
		scrs[i] = mustSCR(t, eng, Config{Lambda: 2})
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

	if err := dir.Attach("t0", mustSCR(t, eng, Config{Lambda: 2})); err == nil {
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
	s := mustSCR(t, eng, Config{Lambda: 2})
	if err := dir.Attach("q1", s); err != nil {
		t.Fatal(err)
	}
	if err := dir.Attach("q1", mustSCR(t, eng, Config{Lambda: 2})); err == nil {
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
	runs, err := dir.Revalidate(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
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
