package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/pqotest"
)

// TestDirectoryMatchesSortedReference drives a Directory through random
// Attach/Detach sequences — duplicates, detaches of absent names, and
// re-attaches after detach included — and checks every published state
// against a map plus sort: Names, Len, Lookup and Value of present and
// absent names, Values in name order, the duplicate error, and a version
// that moves by exactly one per publication.
func TestDirectoryMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	eng, err := pqotest.RandomEngine(rng, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	scrs := make([]*SCR, 5)
	for i := range scrs {
		scrs[i] = mustSCR(t, eng, WithLambda(2))
	}
	dir := NewDirectory()
	refSCR := map[string]*SCR{}
	refVal := map[string]any{}
	version := dir.snap.Load().version
	const names = 40
	for step := 0; step < 4000; step++ {
		name := fmt.Sprintf("t%02d", rng.Intn(names))
		_, had := refSCR[name]
		if rng.Intn(3) < 2 {
			s := scrs[rng.Intn(len(scrs))]
			var v any
			var err error
			if rng.Intn(2) == 0 {
				err = dir.Attach(name, s)
			} else {
				v = step
				err = dir.AttachValue(name, s, v)
			}
			if had != (err != nil) {
				t.Fatalf("step %d: attach %q with it attached=%v returned %v", step, name, had, err)
			}
			if !had {
				refSCR[name], refVal[name] = s, v
				version++
			}
		} else {
			if got := dir.Detach(name); got != had {
				t.Fatalf("step %d: Detach(%q) = %v, want %v", step, name, got, had)
			}
			if had {
				delete(refSCR, name)
				delete(refVal, name)
				version++
			}
		}
		if got := dir.snap.Load().version; got != version {
			t.Fatalf("step %d: version %d, want %d", step, got, version)
		}

		want := make([]string, 0, len(refSCR))
		for n := range refSCR {
			want = append(want, n)
		}
		sort.Strings(want)
		if got := dir.Names(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Names() = %v, want %v", step, got, want)
		}
		if dir.Len() != len(want) {
			t.Fatalf("step %d: Len() = %d, want %d", step, dir.Len(), len(want))
		}
		vals := dir.Values()
		if len(vals) != len(want) {
			t.Fatalf("step %d: %d values for %d names", step, len(vals), len(want))
		}
		for i, n := range want {
			if vals[i] != refVal[n] {
				t.Fatalf("step %d: Values()[%d] = %v, want %q's %v", step, i, vals[i], n, refVal[n])
			}
		}
		for i := 0; i < names; i++ {
			n := fmt.Sprintf("t%02d", i)
			s, ok := dir.Lookup(n)
			v, vok := dir.Value(n)
			wantS, wantOK := refSCR[n]
			if ok != wantOK || vok != wantOK || s != wantS || v != refVal[n] {
				t.Fatalf("step %d: %q resolves to (%p, %v, %v, %v), want (%p, %v, %v)",
					step, n, s, ok, v, vok, wantS, wantOK, refVal[n])
			}
		}
	}
}
