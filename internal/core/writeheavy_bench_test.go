package core_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pqotest"
)

// writeHeavyTemplates is the fleet size for the write-heavy benchmark:
// enough templates that writers mostly land in different write domains.
const writeHeavyTemplates = 8

// BenchmarkProcessWriteHeavy measures multi-template throughput on the
// shipped write path under a write-heavy mix — ~30% of operations are
// fresh vectors that miss and store (WithStoreAlways), while a background
// loop continuously advances statistics epochs and revalidates one
// template after another, keeping a writer hot in some domain for the
// whole timed section. Every template is its own write domain (own
// mutex, own snapshot) with coalesced publication, so writers to
// different templates never contend.
//
// The engines optimize in nanoseconds on purpose: the benchmark isolates
// the write-path critical sections (lock acquisition, snapshot
// publication) rather than optimizer latency, so its scaling across -cpu
// is CPU-bound and needs physical cores. TestWriteDomainIsolation is the
// deterministic check that domains do not share a lock. Run with:
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkProcessWriteHeavy -cpu 1,4,16
func BenchmarkProcessWriteHeavy(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	type tmpl struct {
		eng  *pqotest.EpochEngine
		scr  *core.SCR
		warm [][]float64
	}
	tmpls := make([]*tmpl, writeHeavyTemplates)
	for i := range tmpls {
		eng, err := pqotest.RandomEngine(rng, 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		ee := pqotest.NewEpochEngine(eng)
		// A tight λ keeps the checks strict, so the fresh-vector share of
		// traffic really reaches the optimizer and stores — without it the
		// selectivity check absorbs most "misses" and the write path idles.
		scr, err := core.New(ee, core.WithLambda(1.2), core.WithStoreAlways())
		if err != nil {
			b.Fatal(err)
		}
		// A substantial warmed instance list per template makes snapshot
		// publication cost realistic: a publication that is not an append
		// rebuilds O(instances) state.
		tm := &tmpl{eng: ee, scr: scr, warm: make([][]float64, 384)}
		for j := range tm.warm {
			tm.warm[j] = pqotest.RandomSVector(rng, 4)
			if _, err := scr.Process(ctx, tm.warm[j]); err != nil {
				b.Fatal(err)
			}
		}
		tmpls[i] = tm
	}

	// The revalidation churn: advance one template's epoch, drain its
	// revalidation (replacing anchors whose plans the new statistics
	// invalidated — real write sections), move to the next template.
	stop := make(chan struct{})
	var stopped sync.WaitGroup
	stopped.Add(1)
	go func() {
		defer stopped.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tm := tmpls[i%len(tmpls)]
			tm.eng.Advance()
			run, err := tm.scr.Revalidate(ctx, 2)
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

	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(gid.Add(1)))
		for pb.Next() {
			tm := tmpls[rng.Intn(len(tmpls))]
			var sv []float64
			if rng.Float64() < 0.7 {
				sv = tm.warm[rng.Intn(len(tm.warm))]
			} else {
				sv = pqotest.RandomSVector(rng, 4)
			}
			if _, err := tm.scr.Process(ctx, sv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	stopped.Wait()
}
