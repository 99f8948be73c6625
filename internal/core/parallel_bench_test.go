package core_test

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pqotest"
)

// optimizerDelay simulates a realistic full-optimizer planning time. The
// paper's premise is that optimizer calls are orders of magnitude more
// expensive than the selectivity/cost checks; the synthetic test engine
// optimizes in nanoseconds, which would hide exactly the contention this
// benchmark exists to measure.
const optimizerDelay = 200 * time.Microsecond

// slowEngine adds optimizerDelay to every Optimize call; Recost (the
// checks' hot path) stays fast, as in a real engine.
type slowEngine struct {
	*pqotest.Engine
}

func (e *slowEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	time.Sleep(optimizerDelay)
	return e.Engine.Optimize(sv)
}

// BenchmarkProcessParallel measures SCR throughput on the shipped
// lock-free read path (one atomic snapshot load, no locks) under parallel
// read-mostly traffic: ~90% cache hits, ~10% misses that pay a simulated
// optimizer latency.
//
// Scaling does not require multiple cores: it comes from hits proceeding
// while misses wait on the optimizer, and from concurrent miss latencies
// overlapping. A mutex held across Process flattens the curve, so
// ./scripts/check.sh -bench fails if the best-of-2 ns/op at -cpu 1 is not
// at least 1.25x the ns/op at -cpu max(8, NumCPU), both from the same
// run. A read lock still scales here; the lockdiscipline analyzer rejects
// it statically. Run with:
//
//	go test ./internal/core/ -run '^$' -bench 'BenchmarkProcessParallel$' -cpu 1,8 -benchtime 1000x
func BenchmarkProcessParallel(b *testing.B) {
	scr, warm := newWarmSCR(b)
	shakeout(b, scr.Process, warm)
	benchParallel(b, scr.Process, warm)
}

// BenchmarkProcessParallelResilient measures the overhead of the
// resilience layer (docs/ROBUSTNESS.md) on a healthy system: degraded
// fallback armed, circuit breaker closed, optimizer deadline far above
// the simulated planning time, so no request actually degrades. The
// read-path hot loop is untouched by the layer; the only added work is
// on optimizer misses (breaker bookkeeping plus the deadline goroutine),
// so "resilient" must stay within noise of "baseline".
//
// Both variants build their SCR from the same seed and run the same
// fixed-seed shakeout before timing, so the two timed sections start from
// byte-identical warmed cache state. (BENCH_PR4.json recorded resilient
// *faster* than baseline — an ordering artifact: the second subbenchmark
// inherited a warmed process while the first paid the one-time heap and
// cache warmup. The shakeout absorbs those one-time costs.)
func BenchmarkProcessParallelResilient(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		scr, warm := newWarmSCR(b)
		shakeout(b, scr.Process, warm)
		benchParallel(b, scr.Process, warm)
	})
	b.Run("resilient", func(b *testing.B) {
		scr, warm := newWarmSCR(b,
			core.WithDegradedFallback(),
			core.WithOptimizerDeadline(100*time.Millisecond),
			core.WithCircuitBreaker(5, time.Second))
		shakeout(b, scr.Process, warm)
		benchParallel(b, scr.Process, warm)
	})
}

// shakeout drives a short burst of fixed-seed traffic (the same hit/miss
// mix benchParallel generates) through process before the timed section,
// so every subbenchmark enters timing from the same cache state and the
// first-run one-time costs (heap growth, branch warmup) land outside the
// measurement.
func shakeout(b *testing.B, process func(context.Context, []float64) (*core.Decision, error), warm [][]float64) {
	b.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 256; i++ {
		var sv []float64
		if rng.Float64() < 0.9 {
			sv = warm[rng.Intn(len(warm))]
		} else {
			sv = pqotest.RandomSVector(rng, 4)
		}
		if _, err := process(ctx, sv); err != nil {
			b.Fatal(err)
		}
	}
}

// slowEpochEngine is slowEngine for the epoch lifecycle: the simulated
// planning latency applies to the epoch-aware optimize path too, so
// background revalidation (which re-optimizes anchors) exerts realistic
// pressure on the serving benchmark.
type slowEpochEngine struct {
	*pqotest.EpochEngine
}

func (e *slowEpochEngine) OptimizeEpoch(sv []float64) (*engine.CachedPlan, float64, uint64, error) {
	time.Sleep(optimizerDelay)
	return e.EpochEngine.OptimizeEpoch(sv)
}

func (e *slowEpochEngine) Optimize(sv []float64) (*engine.CachedPlan, float64, error) {
	cp, c, _, err := e.OptimizeEpoch(sv)
	return cp, c, err
}

// BenchmarkProcessDuringRevalidation measures steady-state Process
// latency while background epoch revalidation is continuously running,
// against the same traffic with no revalidation at all. Both variants
// report tail latency as "p99-ns" and the share of Process calls that
// reached the optimizer (Decision.Optimized) as "opt-pct".
// ./scripts/check.sh -bench fails if the revalidating p99 exceeds 2× the
// steady p99, or if the revalidating opt-pct exceeds the steady one — the
// "stats refresh must not be a self-inflicted cold start" bar from
// docs/STATS.md. The count catches what the tail cannot: lagging anchors
// serve through the flagged stats-epoch-lag fallback, so a regression
// that sent lagged traffic to the optimizer instead would lift opt-pct
// above the steady share while p99 stayed under 2×.
func BenchmarkProcessDuringRevalidation(b *testing.B) {
	b.Run("steady", func(b *testing.B) { benchRevalidation(b, false) })
	b.Run("revalidating", func(b *testing.B) { benchRevalidation(b, true) })
}

func benchRevalidation(b *testing.B, revalidate bool) {
	rng := rand.New(rand.NewSource(11))
	eng, err := pqotest.RandomEngine(rng, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	se := &slowEpochEngine{pqotest.NewEpochEngine(eng)}
	scr, err := core.New(se, core.WithLambda(2))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	warm := make([][]float64, 16)
	for i := range warm {
		warm[i] = pqotest.RandomSVector(rng, 4)
		if _, err := scr.Process(ctx, warm[i]); err != nil {
			b.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var stopped sync.WaitGroup
	if revalidate {
		// Keep a revalidation run permanently in flight: advance the
		// epoch, revalidate the whole cache, repeat.
		stopped.Add(1)
		go func() {
			defer stopped.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				se.Advance()
				run, err := scr.Revalidate(ctx, core.DefaultRevalidationWorkers)
				if err != nil {
					b.Error(err)
					return
				}
				select {
				case <-run.Done():
				case <-stop:
					return
				}
			}
		}()
	}

	var (
		latMu sync.Mutex
		lats  []time.Duration
		opt   atomic.Int64
	)
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(gid.Add(1)))
		local := make([]time.Duration, 0, 1024)
		var optimized int64
		for pb.Next() {
			var sv []float64
			if rng.Float64() < 0.9 {
				sv = warm[rng.Intn(len(warm))]
			} else {
				sv = pqotest.RandomSVector(rng, 4)
			}
			t0 := time.Now()
			dec, err := scr.Process(ctx, sv)
			if err != nil {
				b.Fatal(err)
			}
			local = append(local, time.Since(t0))
			if dec.Optimized {
				optimized++
			}
		}
		opt.Add(optimized)
		latMu.Lock()
		lats = append(lats, local...)
		latMu.Unlock()
	})
	b.StopTimer()
	close(stop)
	stopped.Wait()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns")
		b.ReportMetric(100*float64(opt.Load())/float64(len(lats)), "opt-pct")
	}
}

// newWarmSCR builds an SCR over a synthetic 4-dimensional engine with
// simulated optimizer latency, warmed with a fixed hot set so ~90% of
// traffic resolves through the selectivity check near the head of the
// instance list.
func newWarmSCR(b *testing.B, opts ...core.Option) (*core.SCR, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	eng, err := pqotest.RandomEngine(rng, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	scr, err := core.New(&slowEngine{eng}, append([]core.Option{core.WithLambda(2)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	warm := make([][]float64, 16)
	ctx := context.Background()
	for i := range warm {
		warm[i] = pqotest.RandomSVector(rng, 4)
		if _, err := scr.Process(ctx, warm[i]); err != nil {
			b.Fatal(err)
		}
	}
	return scr, warm
}

func benchParallel(b *testing.B, process func(context.Context, []float64) (*core.Decision, error), warm [][]float64) {
	ctx := context.Background()
	// Per-goroutine seeds restart at 1 for every variant so both variants
	// see identical traffic at a given -cpu setting.
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(gid.Add(1)))
		for pb.Next() {
			var sv []float64
			if rng.Float64() < 0.9 {
				sv = warm[rng.Intn(len(warm))]
			} else {
				sv = pqotest.RandomSVector(rng, 4)
			}
			if _, err := process(ctx, sv); err != nil {
				b.Fatal(err)
			}
		}
	})
}
