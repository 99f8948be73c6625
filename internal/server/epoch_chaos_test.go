package server

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pqotest"
	"repro/pqo"
)

const epochChaosLambda = 1.5

// TestChaosEpochAdvance replays concurrent /v1/plan traffic across live
// statistics-epoch advances with latency injected into the recost path,
// and holds every single response to the epoch guarantee: a non-degraded
// answer must be λ-optimal against a clean twin engine evaluated at the
// epoch the decision was served from (PlanResponse.Epoch), a degraded
// answer must say why, and nothing may error. Run with -race
// (scripts/check.sh does).
func TestChaosEpochAdvance(t *testing.T) {
	n, workers, advances := 400, 4, 2
	if *chaosFull {
		n, workers, advances = 4000, 8, 4
	}

	base, err := pqotest.RandomEngine(rand.New(rand.NewSource(17)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	twinBase, err := pqotest.RandomEngine(rand.New(rand.NewSource(17)), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	ee := pqotest.NewEpochEngine(base)
	// The twin shares specs and fingerprints; CostAt/OptimalCostAt take
	// the epoch explicitly, so it needs no Advance calls of its own.
	twin := pqotest.NewEpochEngine(twinBase)

	inj := faultinject.New(23).Set(faultinject.SiteRecost,
		faultinject.Point{Rate: 0.3, Fault: faultinject.Fault{Latency: 2 * time.Millisecond}})
	faulty := faultinject.Wrap(ee, inj)
	scr, err := pqo.New(faulty, pqo.WithLambda(epochChaosLambda))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.Register("epoch", "SELECT epoch chaos", faulty, scr); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Warm a recurring pool while quiet so the stream mixes hits with
	// misses like a real template workload.
	rng := rand.New(rand.NewSource(29))
	pool := make([][]float64, 30)
	inj.Disable()
	for i := range pool {
		pool[i] = pqotest.RandomSVector(rng, 2)
		if w, _ := postPlan(t, h, PlanRequest{Template: "epoch", SVector: pool[i]}); w.Code != http.StatusOK {
			t.Fatalf("warmup %d: status %d body %s", i, w.Code, w.Body)
		}
	}
	inj.Enable()

	svs := make([][]float64, n)
	for i := range svs {
		if rng.Intn(4) == 0 {
			svs[i] = pqotest.RandomSVector(rng, 2)
		} else {
			svs[i] = pool[rng.Intn(len(pool))]
		}
	}

	var (
		mu         sync.Mutex
		okByEpoch  = map[uint64]int{}
		degraded   int
		lagFlagged int
		wg         sync.WaitGroup
		work       = make(chan []float64)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sv := range work {
				w, resp := postPlan(t, h, PlanRequest{Template: "epoch", SVector: sv})
				if w.Code != http.StatusOK {
					t.Errorf("unexplained error at %v: status %d body %s", sv, w.Code, w.Body)
					continue
				}
				if resp.Degraded {
					if resp.DegradedReason == "" {
						t.Errorf("degraded response without a reason: %+v", resp)
					}
					mu.Lock()
					degraded++
					if resp.DegradedReason == string(pqo.DegradedStatsEpochLag) {
						lagFlagged++
					}
					mu.Unlock()
					continue
				}
				// The guarantee is stated against the epoch the decision
				// was served from — check it there, on the clean twin.
				if resp.Epoch == 0 {
					t.Errorf("epoch-aware response without an epoch: %+v", resp)
					continue
				}
				cost, known := twin.CostAt(resp.Fingerprint, sv, resp.Epoch)
				if !known {
					t.Errorf("served unknown plan %q", resp.Fingerprint)
					continue
				}
				if opt := twin.OptimalCostAt(sv, resp.Epoch); cost > epochChaosLambda*opt*(1+1e-9) {
					t.Errorf("λ violated at %v under epoch %d: served %g > %g·%g",
						sv, resp.Epoch, cost, epochChaosLambda, opt)
				}
				mu.Lock()
				okByEpoch[resp.Epoch]++
				mu.Unlock()
			}
		}()
	}

	// Feed the stream, advancing the statistics epoch mid-flight and
	// kicking off background revalidation each time — exactly what
	// POST /v1/admin/stats does, minus the System plumbing the synthetic
	// engine does not have.
	chunk := n / (advances + 1)
	for i, sv := range svs {
		if i > 0 && i%chunk == 0 && i/chunk <= advances {
			ee.Advance()
			if _, err := scr.Revalidate(context.Background(), 2); err != nil {
				t.Errorf("revalidate after advance: %v", err)
			}
		}
		work <- sv
	}
	close(work)
	wg.Wait()

	// Let the last run drain, then confirm the cache caught up: a fresh
	// request must carry the final epoch.
	if run := scr.CurrentRevalidation(); run != nil {
		if err := run.Wait(context.Background()); err != nil {
			t.Fatalf("final revalidation: %v", err)
		}
	}
	final := ee.StatsEpoch()
	if w, resp := postPlan(t, h, PlanRequest{Template: "epoch", SVector: pool[0]}); w.Code != http.StatusOK {
		t.Fatalf("post-chaos request: status %d", w.Code)
	} else if resp.Epoch != final {
		t.Errorf("post-revalidation decision epoch = %d, want %d", resp.Epoch, final)
	}

	ok := 0
	for _, c := range okByEpoch {
		ok += c
	}
	if ok+degraded == 0 {
		t.Fatal("stream produced no classified responses")
	}
	if len(okByEpoch) < 2 {
		t.Errorf("guaranteed responses span %d epoch(s), want >= 2 (advance never overlapped traffic): %v",
			len(okByEpoch), okByEpoch)
	}
	if inj.Injected() == 0 {
		t.Error("no recost latency injected — the stream proved nothing")
	}
	st := scr.Stats()
	if st.StatsEpoch != final {
		t.Errorf("Stats().StatsEpoch = %d, want %d", st.StatsEpoch, final)
	}

	// The write-domain publication surface must have moved under this
	// churn: the warmup, miss traffic and revalidation published
	// snapshots.
	if st.WriteDomains != 1 {
		t.Errorf("Stats().WriteDomains = %d, want 1", st.WriteDomains)
	}
	if st.PublishTotal == 0 {
		t.Error("Stats().PublishTotal did not move across the chaos stream")
	}
	wm := httptest.NewRecorder()
	h.ServeHTTP(wm, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	mBody := wm.Body.String()
	if got := promValue(t, mBody, "pqo_write_domains"); got != 1 {
		t.Errorf("pqo_write_domains = %d, want 1", got)
	}
	if got := promValue(t, mBody, `pqo_publish_total{template="epoch"}`); got == 0 {
		t.Error("pqo_publish_total did not move")
	}
	t.Logf("epoch chaos: %d ok across epochs %v, %d degraded (%d epoch-lag flagged), %d faults injected, final epoch %d",
		ok, okByEpoch, degraded, lagFlagged, inj.Injected(), final)
}
