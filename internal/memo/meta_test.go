package memo

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/query"
)

// TestDroppedOptimizerReleasesTemplate pins the lifetime of template
// metadata to the optimizer that built it: a template prepared through
// every entry point that builds metadata (Optimize, PrepareEnv,
// NewShrunkenMemo) becomes garbage once the optimizer and the caller's
// references are gone. A process-wide cache keyed by template pointer
// would keep it, and its catalog, reachable forever.
func TestDroppedOptimizerReleasesTemplate(t *testing.T) {
	r := newRig(t)
	freed := make(chan struct{})
	func() {
		tpl := r.threeWay(t)
		runtime.SetFinalizer(tpl, func(*query.Template) { close(freed) })
		opt := NewOptimizer(r.cat, cost.DefaultModel(), r.st)
		sv := []float64{0.01, 0.05, 0.2}
		p, _, err := opt.Optimize(tpl, sv)
		if err != nil {
			t.Fatal(err)
		}
		env, err := opt.PrepareEnv(tpl, sv)
		if err != nil {
			t.Fatal(err)
		}
		opt.ReleaseEnv(env)
		if _, err := NewShrunkenMemo(opt, p, tpl); err != nil {
			t.Fatal(err)
		}
	}()
	// The released Env sits in a sync.Pool, which drops its contents over
	// two collections; finalizers run on their own goroutine after one.
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("template still reachable after its optimizer was dropped and 10 collections ran")
}

// TestConcurrentFirstMetaUse has several goroutines make the first use of
// one template on one optimizer at once: however many of them build
// metadata, all must end up with the one the optimizer keeps.
func TestConcurrentFirstMetaUse(t *testing.T) {
	r := newRig(t)
	tpl := r.threeWay(t)
	if _, ok := r.opt.meta.Load(tpl); ok {
		t.Fatal("metadata exists before the template's first use")
	}
	const workers = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		got   [workers]*tplMeta
		errs  [workers]error
	)
	start.Add(1)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			start.Wait()
			env, err := r.opt.PrepareEnv(tpl, []float64{0.01, 0.05, 0.2})
			if err != nil {
				errs[w] = err
				return
			}
			got[w] = env.meta
			r.opt.ReleaseEnv(env)
		}(w)
	}
	start.Done()
	done.Wait()
	want := r.opt.metaFor(tpl)
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if got[w] != want {
			t.Errorf("worker %d saw metadata %p, the optimizer keeps %p", w, got[w], want)
		}
	}
}
