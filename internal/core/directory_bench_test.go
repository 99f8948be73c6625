package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/pqotest"
)

// directoryFixture returns n distinct template names in scattered order
// and one SCR to attach under each.
func directoryFixture(tb testing.TB, n int) ([]string, *core.SCR) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	names := make([]string, n)
	for i, j := range rng.Perm(n) {
		names[i] = fmt.Sprintf("tpl_%05d", j)
	}
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		tb.Fatal(err)
	}
	scr, err := core.New(eng, core.WithLambda(2))
	if err != nil {
		tb.Fatal(err)
	}
	return names, scr
}

// TestDirectoryLookupAllocFree pins the lookups the /v1/plan handler
// makes, present and absent names alike, at zero allocations.
func TestDirectoryLookupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	names, scr := directoryFixture(t, 90)
	dir := core.NewDirectory()
	for _, name := range names {
		if err := dir.AttachValue(name, scr, &name); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		name := names[i%len(names)]
		i++
		if _, ok := dir.Lookup(name); !ok {
			t.Fatalf("%q not found", name)
		}
		if _, ok := dir.Value(name); !ok {
			t.Fatalf("%q has no value", name)
		}
		if _, ok := dir.Lookup("absent"); ok {
			t.Fatal("absent name resolved")
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup and Value allocate %.1f times per call set, want 0", allocs)
	}
}

// BenchmarkDirectoryAttach attaches n distinct names in scattered order
// to an empty Directory, one publication per name.
func BenchmarkDirectoryAttach(b *testing.B) {
	for _, n := range []int{90, 1000, 5000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			names, scr := directoryFixture(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir := core.NewDirectory()
				for _, name := range names {
					if err := dir.Attach(name, scr); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
