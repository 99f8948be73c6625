package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/suite"
)

// TestCachedPlanCompilesOnceUnderConcurrentRecost recosts one fresh
// CachedPlan from 8 goroutines at once, for every suite template. The
// optimizer call that found the plan compiled nothing; the concurrent
// first recosts must compile its shrunken memo exactly once, and every
// recost must match an eagerly compiled memo's bit for bit. Run it under
// -race (check.sh does) to check the lazy compilation is race-free.
func TestCachedPlanCompilesOnceUnderConcurrentRecost(t *testing.T) {
	systems, err := suite.NewSystems(1)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := suite.Build(systems)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, e := range entries {
		eng, err := e.Sys.EngineFor(e.Tpl)
		if err != nil {
			t.Fatal(err)
		}
		vector := func() []float64 {
			sv := make([]float64, eng.Dimensions())
			for i := range sv {
				sv[i] = 1e-4 + (1-1e-4)*rng.Float64()
			}
			return sv
		}
		cp, _, err := eng.Optimize(vector())
		if err != nil {
			t.Fatal(err)
		}
		if n := eng.MemoCompiles(); n != 0 {
			t.Fatalf("%s: Optimize compiled %d memos, want 0", e.Tpl.Name, n)
		}
		eager, err := memo.NewShrunkenMemo(eng.Opt, cp.Plan, e.Tpl)
		if err != nil {
			t.Fatal(err)
		}
		const workers = 8
		svs := make([][]float64, workers)
		for i := range svs {
			svs[i] = vector()
		}
		got := make([]float64, workers)
		errs := make([]error, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < workers; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				pi, err := eng.PrepareRecost(svs[i])
				if err != nil {
					errs[i] = err
					return
				}
				got[i], errs[i] = pi.Recost(cp)
				pi.Release()
			}(i)
		}
		start.Done()
		done.Wait()
		if n := eng.MemoCompiles(); n != 1 {
			t.Fatalf("%s: %d concurrent first recosts compiled %d memos, want 1", e.Tpl.Name, workers, n)
		}
		for i, sv := range svs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, err := eager.Recost(eng.Opt, sv)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%s at %v: lazily compiled memo recosts %v, eager %v", e.Tpl.Name, sv, got[i], want)
			}
		}
		if cp.MemoryBytes() != len(cp.Fingerprint())+eager.Size() {
			t.Fatalf("%s: MemoryBytes %d does not charge the memo (%d + %d)",
				e.Tpl.Name, cp.MemoryBytes(), len(cp.Fingerprint()), eager.Size())
		}
	}
}
