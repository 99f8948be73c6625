package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/pqotest"
)

// TestConcurrentProcess hammers one SCR instance from many goroutines: the
// plan cache must stay consistent (no races — run with -race), the
// guarantee must hold for every decision, and counters must add up.
func TestConcurrentProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	eng, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perG    = 150
	)
	// Pre-generate instance streams (the rng is not goroutine-safe).
	streams := make([][][]float64, workers)
	for w := range streams {
		streams[w] = make([][]float64, perG)
		for i := range streams[w] {
			streams[w][i] = pqotest.RandomSVector(rng, 3)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	sos := make(chan float64, workers*perG)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(stream [][]float64) {
			defer wg.Done()
			for _, sv := range stream {
				dec, err := s.Process(context.Background(), sv)
				if err != nil {
					errs <- err
					return
				}
				sos <- eng.PlanCost(dec.Plan, sv) / eng.OptimalCost(sv)
			}
		}(streams[w])
	}
	wg.Wait()
	close(errs)
	close(sos)
	for err := range errs {
		t.Fatal(err)
	}
	n := 0
	for so := range sos {
		n++
		if so > 2*(1+1e-9) {
			t.Errorf("concurrent decision with SO=%v exceeds λ=2", so)
		}
	}
	if n != workers*perG {
		t.Fatalf("processed %d instances, want %d", n, workers*perG)
	}
	st := s.Stats()
	if st.Instances != int64(workers*perG) {
		t.Errorf("Instances counter = %d, want %d", st.Instances, workers*perG)
	}
	if st.OptCalls == 0 || st.OptCalls > st.Instances {
		t.Errorf("OptCalls = %d out of range (0, %d]", st.OptCalls, st.Instances)
	}
	if st.CurPlans == 0 {
		t.Error("no plans cached after stress run")
	}
}

// gateEngine blocks every Optimize call until release is closed, letting
// tests hold an optimizer call open while other goroutines pile up
// behind the same miss.
type gateEngine struct {
	*pqotest.Engine
	release chan struct{}
}

func (e *gateEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	<-e.release
	return e.Engine.Optimize(sv)
}

// TestSingleflightSharedMisses is the singleflight acceptance proof: K
// concurrent Process calls for an identical cold instance must perform
// exactly one optimizer call and insert exactly one plan + one instance
// entry; the other K-1 callers are accounted as shared, write-path or
// read-path hits.
func TestSingleflightSharedMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eng, err := pqotest.RandomEngine(rng, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gateEngine{Engine: eng, release: make(chan struct{})}
	s, err := New(gated, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}

	const k = 16
	sv := []float64{0.2, 0.3, 0.4}
	var started, done sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			started.Done()
			if _, err := s.Process(context.Background(), sv); err != nil {
				errs <- err
			}
		}()
	}
	// The leader is parked inside Optimize until we release it; give the
	// other goroutines time to miss the read path and join its flight,
	// then let the optimizer call finish.
	started.Wait()
	time.Sleep(50 * time.Millisecond)
	close(gated.release)
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if got := eng.OptimizeCalls(); got != 1 {
		t.Errorf("engine optimizer calls = %d, want exactly 1", got)
	}
	if st.OptCalls != 1 {
		t.Errorf("OptCalls = %d, want exactly 1", st.OptCalls)
	}
	if st.SharedOptCalls == 0 {
		t.Error("no caller shared the in-flight optimizer call")
	}
	if sum := st.ReadPathHits + st.WritePathHits + st.SharedOptCalls + st.OptCalls; sum != k {
		t.Errorf("hit/miss accounting: read=%d write=%d shared=%d opt=%d, sum %d != %d instances",
			st.ReadPathHits, st.WritePathHits, st.SharedOptCalls, st.OptCalls, sum, k)
	}
	if st.CurPlans != 1 {
		t.Errorf("CurPlans = %d, want 1 (duplicate plan insertion?)", st.CurPlans)
	}
	if n := s.NumInstances(); n != 1 {
		t.Errorf("NumInstances = %d, want 1 (duplicate instance insertion?)", n)
	}
}

// TestStressMixedOperations hammers one SCR from many goroutines with a
// mixed workload — Process over hot and cold instances, ProbeCheck,
// SweepRedundantPlans, Stats and Export, under a plan budget small enough
// that evictions rewrite the instance list (forcing full index rebuilds)
// while readers scan — and asserts the counters
// reconcile exactly: every Process call must be accounted as precisely
// one of read-path hit, write-path hit, shared optimizer call, or owned
// optimizer call. Run with -race.
func TestStressMixedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	eng, err := pqotest.RandomEngine(rng, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, WithLambda(2), WithPlanBudget(2))
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		perG    = 200
	)
	hot := make([][]float64, 8)
	for i := range hot {
		hot[i] = pqotest.RandomSVector(rng, 3)
	}
	streams := make([][][]float64, workers)
	for w := range streams {
		streams[w] = make([][]float64, perG)
		for i := range streams[w] {
			if i%10 < 9 { // ~90% hot traffic
				streams[w][i] = hot[(w+i)%len(hot)]
			} else {
				streams[w][i] = pqotest.RandomSVector(rng, 3)
			}
		}
	}

	var (
		wg        sync.WaitGroup
		processed atomic.Int64
	)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, stream [][]float64) {
			defer wg.Done()
			for i, sv := range stream {
				if _, err := s.Process(context.Background(), sv); err != nil {
					errCh <- err
					return
				}
				processed.Add(1)
				switch {
				case i%31 == 0:
					s.ProbeCheck(sv)
				case i%47 == 0 && w == 0:
					if _, err := s.SweepRedundantPlans(); err != nil {
						errCh <- err
						return
					}
				case i%13 == 0:
					_ = s.Stats()
				case i%29 == 0:
					if _, err := s.Export(); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w, streams[w])
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Instances != processed.Load() {
		t.Errorf("Instances = %d, want %d", st.Instances, processed.Load())
	}
	if sum := st.ReadPathHits + st.WritePathHits + st.SharedOptCalls + st.OptCalls; sum != st.Instances {
		t.Errorf("counter reconciliation failed: read=%d write=%d shared=%d opt=%d, sum %d != instances %d",
			st.ReadPathHits, st.WritePathHits, st.SharedOptCalls, st.OptCalls, sum, st.Instances)
	}
	if st.OptCalls != eng.OptimizeCalls() {
		t.Errorf("OptCalls = %d but engine served %d optimizer calls", st.OptCalls, eng.OptimizeCalls())
	}
	if st.CurPlans == 0 || s.NumInstances() == 0 {
		t.Error("empty cache after stress run")
	}
	if st.Evictions == 0 {
		t.Error("no eviction: the run never rewrote the instance list under concurrent readers")
	}
	// Plans referenced by instances must all exist (no dangling entries
	// after concurrent sweeps).
	snap, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InspectSnapshot(snap); err != nil {
		t.Errorf("snapshot inconsistent after stress run: %v", err)
	}
}

// TestConcurrentProcessWithBudgetAndSweep interleaves Process calls with
// the Appendix F sweep and stat reads under a plan budget.
func TestConcurrentProcessWithBudgetAndSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	eng, err := pqotest.RandomEngine(rng, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, WithLambda(1.5), WithPlanBudget(3))
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][][]float64, 4)
	for w := range streams {
		streams[w] = make([][]float64, 100)
		for i := range streams[w] {
			streams[w][i] = pqotest.RandomSVector(rng, 2)
		}
	}
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(stream [][]float64) {
			defer wg.Done()
			for i, sv := range stream {
				if _, err := s.Process(context.Background(), sv); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 0 {
					if _, err := s.SweepRedundantPlans(); err != nil {
						t.Error(err)
						return
					}
				}
				if st := s.Stats(); st.CurPlans > 3 {
					t.Errorf("plan budget exceeded under concurrency: %d", st.CurPlans)
					return
				}
			}
		}(streams[w])
	}
	wg.Wait()
}
