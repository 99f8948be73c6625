package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestObserveClusterEpochMonotonic pins the cluster-epoch observation to a
// monotonic maximum under concurrency: stale stamps never lower it.
func TestObserveClusterEpochMonotonic(t *testing.T) {
	s, _ := epochSCR(t)
	s.ObserveClusterEpoch(5)
	s.ObserveClusterEpoch(3)
	if got := s.ClusterEpoch(); got != 5 {
		t.Fatalf("ClusterEpoch = %d, want 5 (stale observation lowered it)", got)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			s.ObserveClusterEpoch(id)
		}(uint64(i))
	}
	wg.Wait()
	if got := s.ClusterEpoch(); got != 32 {
		t.Fatalf("ClusterEpoch after concurrent observes = %d, want 32", got)
	}
}

// TestSkewFlagging walks a node through the skew ladder: within the bound
// decisions serve normally; beyond it every decision is copied to a
// flagged fallback (λ still holds at the decision's stated epoch — the
// flag says the node is behind quorum); catching up unflags.
func TestSkewFlagging(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	sv := []float64{0.01, 0.01}
	if _, err := s.Process(ctx, sv); err != nil {
		t.Fatal(err)
	}

	// Cluster one generation ahead: within the default bound of 1.
	s.ObserveClusterEpoch(2)
	dec, err := s.Process(ctx, sv)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded {
		t.Fatalf("decision flagged within the skew bound: %+v", dec)
	}
	if s.SkewLagging() {
		t.Fatal("SkewLagging with skew == bound")
	}

	// Two generations ahead: beyond the bound — flagged fallback.
	s.ObserveClusterEpoch(3)
	if !s.SkewLagging() || s.EpochSkew() != 2 {
		t.Fatalf("skew = %d lagging=%v, want 2/true", s.EpochSkew(), s.SkewLagging())
	}
	dec, err = s.Process(ctx, sv)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Degraded || dec.DegradedReason != DegradedEpochSkew || dec.Via != ViaFallback {
		t.Fatalf("beyond-bound decision = %+v, want flagged %s fallback", dec, DegradedEpochSkew)
	}
	if dec.Epoch != 1 {
		t.Fatalf("flagged decision epoch = %d, want 1 (guarantee stays stated at its epoch)", dec.Epoch)
	}
	st := s.Stats()
	if st.ClusterEpoch != 3 || st.EpochSkew != 2 || st.EpochSkewFlagged == 0 {
		t.Fatalf("stats = cluster %d skew %d flagged %d, want 3/2/>0",
			st.ClusterEpoch, st.EpochSkew, st.EpochSkewFlagged)
	}

	// The node installs the next generation: back within the bound,
	// decisions serve unflagged again.
	eng.Advance()
	dec, err = s.Process(ctx, sv)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded && dec.DegradedReason == DegradedEpochSkew {
		t.Fatalf("still skew-flagged after catching up to within the bound: %+v", dec)
	}
}

// TestClusterSkewBoundOption verifies the configurable bound and its
// validation.
func TestClusterSkewBoundOption(t *testing.T) {
	s, _ := epochSCR(t, WithClusterSkewBound(2))
	s.ObserveClusterEpoch(3) // skew 2 == bound: tolerated
	if s.SkewLagging() {
		t.Fatal("lagging at skew == configured bound 2")
	}
	s.ObserveClusterEpoch(4) // skew 3 > bound
	if !s.SkewLagging() {
		t.Fatal("not lagging at skew 3 with bound 2")
	}
	if _, err := New(twoPlaneEngine(t), WithLambda(2), WithClusterSkewBound(0)); err == nil {
		t.Fatal("WithClusterSkewBound(0) accepted")
	}
}

// TestSkewIgnoredWithoutEpochEngine: an epoch-less engine has no
// generation to lag, so cluster stamps must not degrade anything.
func TestSkewIgnoredWithoutEpochEngine(t *testing.T) {
	s := mustSCR(t, twoPlaneEngine(t), WithLambda(2))
	s.ObserveClusterEpoch(10)
	if s.EpochSkew() != 0 || s.SkewLagging() {
		t.Fatalf("epoch-less engine reports skew %d lagging=%v", s.EpochSkew(), s.SkewLagging())
	}
	dec, err := s.Process(context.Background(), []float64{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded {
		t.Fatalf("epoch-less decision flagged: %+v", dec)
	}
}

// TestRevalidateSupersededByCoordinatorBurst models a coordinator
// delivering generations back-to-back (each install starts a revalidation
// that supersedes the previous): superseded runs freeze their progress
// counters instead of losing them, the revalidated-plans counter never
// goes backwards, and after the burst drains every unflagged decision is
// λ-guaranteed at the epoch it states — never judged against another
// generation's costs.
func TestRevalidateSupersededByCoordinatorBurst(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := s.Process(ctx, []float64{0.01 + float64(i)*0.001, 0.9}); err != nil {
			t.Fatal(err)
		}
	}

	var runs []*Revalidation
	var lastRevalidated int64
	for burst := 0; burst < 3; burst++ {
		eng.Advance()
		s.ObserveClusterEpoch(eng.StatsEpoch())
		r, err := s.Revalidate(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
		if got := s.Stats().RevalidatedPlans; got < lastRevalidated {
			t.Fatalf("revalidated-plans counter went backwards: %d -> %d", lastRevalidated, got)
		} else {
			lastRevalidated = got
		}
	}
	final := runs[len(runs)-1]
	if err := final.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	for i, r := range runs[:len(runs)-1] {
		select {
		case <-r.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d never stopped after supersession", i)
		}
		p1 := r.Progress()
		if !p1.Finished && !p1.Superseded {
			t.Fatalf("run %d progress = %+v, want finished or superseded", i, p1)
		}
		time.Sleep(2 * time.Millisecond)
		if p2 := r.Progress(); p2 != p1 {
			t.Fatalf("superseded run %d progress moved after freeze: %+v -> %+v", i, p1, p2)
		}
	}

	if lag := s.Stats().LaggingInstances; lag != 0 {
		t.Fatalf("lag remains after the burst drained: %d", lag)
	}
	finalEpoch := eng.StatsEpoch()
	for i := 0; i < 6; i++ {
		sv := []float64{0.01 + float64(i)*0.001, 0.9}
		dec, err := s.Process(ctx, sv)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Degraded {
			continue // explicitly flagged is always admissible
		}
		if dec.Epoch != finalEpoch {
			t.Errorf("post-burst decision at epoch %d, want %d", dec.Epoch, finalEpoch)
		}
		got, ok := eng.CostAt(dec.Plan.Fingerprint(), sv, dec.Epoch)
		if !ok {
			t.Fatalf("unknown plan served: %q", dec.Plan.Fingerprint())
		}
		if opt := eng.OptimalCostAt(sv, dec.Epoch); got > 2*opt*(1+1e-9) {
			t.Errorf("λ violated at %v under its own epoch %d: %g > 2·%g", sv, dec.Epoch, got, opt)
		}
	}
}
