package stats

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// evaluationCatalogs returns the four evaluation databases at the scales
// the experiment suite builds them with.
func evaluationCatalogs() []*catalog.Catalog {
	return []*catalog.Catalog{
		catalog.NewTPCH(0.1), catalog.NewTPCDS(0.1), catalog.NewRD1(), catalog.NewRD2(),
	}
}

// builtHistogram is the sort-based reference for table.column's
// histogram: BuildHistogram over the generator's sorted sample, which the
// store's first-read build by selection must equal.
func builtHistogram(t *testing.T, cat *catalog.Catalog, gen *datagen.Generator, key string) *Histogram {
	t.Helper()
	table, column, _ := strings.Cut(key, ".")
	n := DefaultSampleSize
	if rows := cat.Table(table).Rows; int64(n) > rows {
		n = int(rows)
	}
	vals, err := gen.ColumnSample(table, column, n)
	if err != nil {
		t.Fatal(err)
	}
	return mustHist(t, vals, DefaultBuckets)
}

// unread reports whether c's histogram has not been built yet. Tests call
// it only while no other goroutine reads the store.
func unread(c *cell) bool { return c.build != nil }

// TestOnDemandHistogramsMatchBuilt checks that on-demand histograms equal
// the ones built straight from each column's sample, and that concurrent
// first readers share one build: every column of the four evaluation
// catalogs is read from 4 goroutines, each in its own shuffled order.
func TestOnDemandHistogramsMatchBuilt(t *testing.T) {
	const readers = 4
	for i, cat := range evaluationCatalogs() {
		gen := datagen.New(cat, int64(100+i))
		st := Build(cat, gen)
		cols := st.Columns()
		got := make([][]*Histogram, readers)
		var wg sync.WaitGroup
		for r := range got {
			order := rand.New(rand.NewSource(int64(r))).Perm(len(cols))
			got[r] = make([]*Histogram, len(cols))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range order {
					table, column, _ := strings.Cut(cols[j], ".")
					if r%2 == 1 {
						// Odd readers reach some columns first through the
						// error-returning API.
						if _, err := st.SelectivityLE(table, column, 0); err != nil {
							t.Error(err)
						}
					}
					got[r][j] = st.Histogram(table, column)
				}
			}()
		}
		wg.Wait()
		for j, key := range cols {
			h := got[0][j]
			for r := 1; r < readers; r++ {
				if got[r][j] != h {
					t.Fatalf("%s %s: readers 0 and %d got different histograms", cat.Name, key, r)
				}
			}
			want := builtHistogram(t, cat, gen, key)
			if !slices.Equal(h.bounds, want.bounds) || !slices.Equal(h.cum, want.cum) || h.total != want.total {
				t.Errorf("%s %s: on-demand histogram differs from the built one", cat.Name, key)
			}
		}
	}
}

// TestBuildSamplesNothing pins the laziness: building a store over the
// TPC-DS catalog allocates less than one column sample would.
func TestBuildSamplesNothing(t *testing.T) {
	cat := catalog.NewTPCDS(0.1)
	gen := datagen.New(cat, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := Build(cat, gen)
	runtime.ReadMemStats(&after)
	const oneSample = DefaultSampleSize * 8 // bytes of one float64 column sample
	if n := after.TotalAlloc - before.TotalAlloc; n >= oneSample {
		t.Errorf("Build allocated %d bytes over %d columns, want < %d (one sample)",
			n, len(st.Columns()), oneSample)
	}
}

// TestEpochsOverUnreadColumns checks the epoch bookkeeping on a store
// nothing has read: a delta shares every other column's cell unread and
// keeps its birth, and a resampled store (what engine.System.ResampleStats
// builds) moves every column's birth without building any histogram.
func TestEpochsOverUnreadColumns(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	st := Build(cat, datagen.New(cat, 11))
	const delta = "orders.o_orderdate"
	next, err := st.Apply([]HistogramDelta{{Table: "orders", Column: "o_orderdate", Values: seq(500)}})
	if err != nil {
		t.Fatal(err)
	}
	if c := next.cells[delta]; unread(c) || c.h == nil {
		t.Fatalf("delta column %s is not installed as a built cell", delta)
	}
	others := slices.DeleteFunc(st.Columns(), func(k string) bool { return k == delta })
	for _, k := range others {
		if next.cells[k] != st.cells[k] {
			t.Errorf("Apply did not share %s's cell", k)
		}
		if !unread(next.cells[k]) {
			t.Errorf("Apply read %s", k)
		}
	}

	e := (&Epoch{ID: 1, Store: st}).Next(next) // epoch 2: the delta
	for _, k := range others {
		if b, ok := e.born[k]; ok {
			t.Errorf("untouched %s born at %d, want 1", k, b)
		}
		if !unread(next.cells[k]) {
			t.Errorf("Epoch.Next read %s", k)
		}
	}
	if got := e.CostEpoch(others); got != 1 {
		t.Errorf("footprint without the delta: cost epoch %d, want 1", got)
	}
	if got := e.CostEpoch([]string{delta}); got != 2 {
		t.Errorf("delta column: cost epoch %d, want 2", got)
	}

	resampled := Build(cat, datagen.New(cat, 12))
	e = e.Next(resampled) // epoch 3: every column resampled
	for _, k := range resampled.Columns() {
		if got := e.CostEpoch([]string{k}); got != 3 {
			t.Errorf("resampled %s: cost epoch %d, want 3", k, got)
		}
		if !unread(resampled.cells[k]) {
			t.Errorf("resample advance built %s", k)
		}
	}
}

// TestFirstReadFailureIsReturned checks that a column whose first-read
// build fails reports the failure, wrapped with the column's name, from
// every read, instead of passing for a column without a histogram.
func TestFirstReadFailureIsReturned(t *testing.T) {
	boom := errors.New("boom")
	builds := 0
	st := &Store{cells: map[string]*cell{"t.c": {build: func() (*Histogram, error) {
		builds++
		return nil, boom
	}}}}
	for i := 0; i < 2; i++ {
		_, err := st.SelectivityLE("t", "c", 0)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "t.c") {
			t.Errorf("read %d: err = %v, want boom wrapped with t.c", i, err)
		}
	}
	if builds != 1 {
		t.Errorf("failed build ran %d times, want 1", builds)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("Histogram returned instead of panicking on a failed build")
		}
	}()
	st.Histogram("t", "c")
}
