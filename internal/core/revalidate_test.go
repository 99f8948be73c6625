package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/pqotest"
)

// epochSCR builds an SCR over a synthetic EpochEngine with a deterministic
// two-plan split, plus the raw engine for ground-truth checks.
func epochSCR(t *testing.T, opts ...Option) (*SCR, *pqotest.EpochEngine) {
	t.Helper()
	eng := pqotest.NewEpochEngine(twoPlaneEngine(t))
	s, err := New(eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func TestDecisionCarriesEpoch(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	dec, err := s.Process(ctx, []float64{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != 1 {
		t.Fatalf("optimizer decision epoch = %d, want 1", dec.Epoch)
	}
	// A nearby instance is served by the selectivity check, anchored at 1.
	dec, err = s.Process(ctx, []float64{0.011, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Via != ViaSelectivity || dec.Epoch != 1 {
		t.Fatalf("sel-check decision = (%v, epoch %d), want (selectivity, 1)", dec.Via, dec.Epoch)
	}
	eng.Advance()
	dec, err = s.Process(ctx, []float64{0.5, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Optimized && dec.Epoch != 2 {
		t.Fatalf("post-advance optimizer decision epoch = %d, want 2", dec.Epoch)
	}
}

func TestEpochLagServesFlaggedFallback(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	anchor := []float64{0.01, 0.01}
	if _, err := s.Process(ctx, anchor); err != nil {
		t.Fatal(err)
	}
	eng.Advance()
	// The exact anchor vector still passes the selectivity check (G·L = 1),
	// served under its own (old) epoch, not degraded.
	dec, err := s.Process(ctx, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded || dec.Via != ViaSelectivity || dec.Epoch != 1 {
		t.Fatalf("lagging sel-hit = (%v, degraded=%v, epoch %d), want (selectivity, false, 1)",
			dec.Via, dec.Degraded, dec.Epoch)
	}
	// A vector failing the sel check but reachable only via a lagging
	// candidate is served as the flagged epoch-lag fallback: lagging
	// entries are excluded from cost-check candidacy, and serving flagged
	// beats stampeding the optimizer mid-revalidation. Disable the cost
	// check's contribution by picking a far vector — with only lagging
	// entries cached, every path reduces to the lag fallback.
	dec, err = s.Process(ctx, []float64{0.2, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Via == ViaFallback {
		if !dec.Degraded || dec.DegradedReason != DegradedStatsEpochLag {
			t.Fatalf("lag fallback not flagged: %+v", dec)
		}
		if dec.Epoch != 1 {
			t.Fatalf("lag fallback epoch = %d, want 1", dec.Epoch)
		}
		if s.Stats().EpochLagFallbacks == 0 {
			t.Fatal("EpochLagFallbacks counter not incremented")
		}
	} else if !dec.Optimized {
		t.Fatalf("expected lag fallback or fresh optimization, got %+v", dec)
	}
}

func TestStatsReportsEpochAndLag(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	if _, err := s.Process(ctx, []float64{0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.StatsEpoch != 1 || st.LaggingInstances != 0 {
		t.Fatalf("pre-advance stats = (epoch %d, lagging %d), want (1, 0)", st.StatsEpoch, st.LaggingInstances)
	}
	eng.Advance()
	st = s.Stats()
	if st.StatsEpoch != 2 || st.LaggingInstances != 1 {
		t.Fatalf("post-advance stats = (epoch %d, lagging %d), want (2, 1)", st.StatsEpoch, st.LaggingInstances)
	}
}

func TestRevalidateReanchorsLaggingEntries(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	// Populate anchors in both plans' optimality regions.
	vectors := [][]float64{{0.01, 0.9}, {0.9, 0.01}, {0.05, 0.8}, {0.8, 0.05}}
	for _, sv := range vectors {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}
	eng.Advance()
	r, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p := r.Progress()
	if !p.Finished || p.Superseded {
		t.Fatalf("run state = %+v, want finished, not superseded", p)
	}
	if p.Done != p.Total {
		t.Fatalf("done %d != total %d", p.Done, p.Total)
	}
	if p.ReAnchored+p.Demoted+p.Failed == 0 {
		t.Fatalf("no entries handled: %+v", p)
	}
	st := s.Stats()
	if st.LaggingInstances != 0 {
		t.Fatalf("lagging instances after revalidation = %d, want 0", st.LaggingInstances)
	}
	// Every surviving anchor must now carry the new epoch, and serving
	// resumes un-degraded with epoch 2 decisions.
	dec, err := s.Process(ctx, []float64{0.01, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Degraded || dec.Epoch != 2 {
		t.Fatalf("post-revalidation decision = (degraded=%v, epoch %d), want (false, 2)", dec.Degraded, dec.Epoch)
	}
}

// TestRevalidationRepublishesAnchorBounds: a drained revalidation run
// re-anchors entries in place, which moves no snapshot on its own; the
// run's completion must publish fresh anchor bounds, or the snapshot's
// minEpoch keeps lagging the cost epoch and the cost-check prefilter
// (snap.minEpoch >= cur) stays off until the template's next write.
func TestRevalidationRepublishesAnchorBounds(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	for _, sv := range [][]float64{{0.01, 0.9}, {0.9, 0.01}, {0.05, 0.8}, {0.8, 0.05}} {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}
	eng.Advance()
	r, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if p := r.Progress(); p.Done != p.Total || p.Failed != 0 || p.Total == 0 {
		t.Fatalf("run progress = %+v, want every entry handled without failure", p)
	}
	if got, want := s.snapshot().minEpoch, s.costEpoch(); got != want {
		t.Fatalf("snapshot minEpoch after a drained revalidation = %d, want the cost epoch %d", got, want)
	}
}

// TestRevalidateGuaranteeAtNewEpoch verifies λ-optimality against ground
// truth at the new epoch after revalidation: every non-degraded decision's
// plan cost is within λ of the true optimum of the epoch it was served
// from.
func TestRevalidateGuaranteeAtNewEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	raw, err := pqotest.RandomEngine(rng, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng := pqotest.NewEpochEngine(raw)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var svs [][]float64
	for i := 0; i < 40; i++ {
		svs = append(svs, pqotest.RandomSVector(rng, 3))
	}
	for _, sv := range svs {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}
	for advance := 0; advance < 3; advance++ {
		eng.Advance()
		r, err := s.Revalidate(ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		for _, sv := range svs {
			dec, err := s.Process(ctx, sv)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Degraded {
				continue // guarantee explicitly relaxed and flagged
			}
			got, ok := eng.CostAt(dec.Plan.Fingerprint(), sv, dec.Epoch)
			if !ok {
				t.Fatalf("unknown plan served: %q", dec.Plan.Fingerprint())
			}
			opt := eng.OptimalCostAt(sv, dec.Epoch)
			if got > 2*opt*(1+1e-9) {
				t.Fatalf("λ violated at %v (epoch %d, via %v): cost %v > 2·%v",
					sv, dec.Epoch, dec.Via, got, opt)
			}
		}
	}
}

func TestRevalidateSuperseded(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := s.Process(ctx, []float64{0.01 + float64(i)*0.001, 0.9}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Advance()
	r1, err := s.Revalidate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Advance()
	r2, err := s.Revalidate(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// r1 must be stopped (either it finished before the second advance or
	// it was superseded); its Done channel must be closed either way.
	select {
	case <-r1.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("superseded run never finished")
	}
	if got := s.CurrentRevalidation(); got != r2 {
		t.Fatalf("CurrentRevalidation = %p, want the newest run %p", got, r2)
	}
	if s.Stats().LaggingInstances != 0 {
		t.Fatalf("lag remains after final revalidation: %d", s.Stats().LaggingInstances)
	}
}

// TestFinishedRunIsNotSuperseded pins that a finished run's progress is
// final: a later run supersedes only work still in flight, so a drained
// run never turns "superseded", and neither does a run that found nothing
// to revalidate.
func TestFinishedRunIsNotSuperseded(t *testing.T) {
	s, eng := epochSCR(t)
	ctx := context.Background()
	for _, sv := range [][]float64{{0.01, 0.9}, {0.9, 0.01}, {0.05, 0.8}} {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}
	eng.Advance()
	drained, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := drained.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	final := drained.Progress()
	if !final.Finished || final.Superseded || final.Total == 0 || final.Done != final.Total {
		t.Fatalf("drained run = %+v, want finished work, not superseded", final)
	}
	idle, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	idleFinal := idle.Progress()
	if want := (RevalidationProgress{TargetEpoch: 2, Finished: true}); idleFinal != want {
		t.Fatalf("no-lag run = %+v, want %+v", idleFinal, want)
	}

	eng.Advance()
	next, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := drained.Progress(); got != final {
		t.Errorf("drained run changed after a later run: %+v, was %+v", got, final)
	}
	if got := idle.Progress(); got != idleFinal {
		t.Errorf("no-lag run changed after a later run: %+v, was %+v", got, idleFinal)
	}
}

func TestRevalidateRequiresEpochEngine(t *testing.T) {
	s := mustSCR(t, twoPlaneEngine(t), WithLambda(2))
	if _, err := s.Revalidate(context.Background(), 1); err == nil {
		t.Fatal("Revalidate on an epoch-less engine must fail")
	} else if !errors.Is(err, ErrEpochUnsupported) {
		t.Fatalf("error = %v, want ErrEpochUnsupported", err)
	}
}

func TestRevalidateNoLagIsNoop(t *testing.T) {
	s, _ := epochSCR(t)
	ctx := context.Background()
	if _, err := s.Process(ctx, []float64{0.01, 0.01}); err != nil {
		t.Fatal(err)
	}
	r, err := s.Revalidate(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if p := r.Progress(); p.Total != 0 || !p.Finished {
		t.Fatalf("no-lag run progress = %+v, want empty finished run", p)
	}
}

// TestRevalidateConcurrentServing drives Process traffic across an epoch
// advance with revalidation in flight and asserts every decision is either
// λ-guaranteed against the epoch it reports, or explicitly degraded.
func TestRevalidateConcurrentServing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	raw, err := pqotest.RandomEngine(rng, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := pqotest.NewEpochEngine(raw)
	s, err := New(eng, WithLambda(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var svs [][]float64
	for i := 0; i < 32; i++ {
		svs = append(svs, pqotest.RandomSVector(rng, 3))
	}
	for _, sv := range svs {
		if _, err := s.Process(ctx, sv); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sv := svs[wrng.Intn(len(svs))]
				dec, err := s.Process(ctx, sv)
				if err != nil {
					errCh <- err
					return
				}
				if dec.Degraded {
					continue
				}
				got, ok := eng.CostAt(dec.Plan.Fingerprint(), sv, dec.Epoch)
				opt := eng.OptimalCostAt(sv, dec.Epoch)
				if !ok || got > 2*opt*(1+1e-9) {
					errCh <- fmt.Errorf("λ violated at %v (epoch %d): cost %v > 2·%v", sv, dec.Epoch, got, opt)
					return
				}
			}
		}(int64(w) + 100)
	}

	eng.Advance()
	r, err := s.Revalidate(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
