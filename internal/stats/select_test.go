package stats

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// sameHistogram reports whether a and b are equal bit for bit: the same
// bound bits (so −0 differs from +0), the same cumulative fractions, the
// same total.
func sameHistogram(a, b *Histogram) bool {
	if a.total != b.total || len(a.bounds) != len(b.bounds) || !slices.Equal(a.cum, b.cum) {
		return false
	}
	for i := range a.bounds {
		if math.Float64bits(a.bounds[i]) != math.Float64bits(b.bounds[i]) {
			return false
		}
	}
	return true
}

// checkSelection builds vals' histogram with sel and with the sort-based
// reference, and fails unless both agree bit for bit or both reject. It
// also fails if sel's build modified vals.
func checkSelection(t *testing.T, sel selector, vals []float64, buckets int) {
	t.Helper()
	orig := slices.Clone(vals)
	got, gotErr := sel.histogram(vals, buckets)
	for i := range vals {
		if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("selection build modified its sample at %d", i)
		}
	}
	ref := slices.Clone(vals)
	slices.Sort(ref)
	want, wantErr := BuildHistogram(ref, buckets)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("n=%d buckets=%d: selection err %v, reference err %v", len(vals), buckets, gotErr, wantErr)
	case gotErr == nil && !sameHistogram(got, want):
		t.Fatalf("n=%d buckets=%d: selection histogram differs from the sorted reference\n got bounds %v cum %v\nwant bounds %v cum %v",
			len(vals), buckets, got.bounds, got.cum, want.bounds, want.cum)
	}
}

// tinySelector bins even a handful of values, so short samples reach
// every level of the selection build.
var tinySelector = selector{depth: 1, leaf: 2, levels: 3}

// TestSelectionMatchesSortedCatalogs checks the acceptance property on
// real data: for every column of the four evaluation catalogs, at two
// seeds, the selection build over the generator's unsorted draw equals
// the histogram built from the sorted sample bit for bit.
func TestSelectionMatchesSortedCatalogs(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		for _, cat := range evaluationCatalogs() {
			gen := datagen.New(cat, seed)
			for _, key := range Build(cat, gen).Columns() {
				table, column, _ := strings.Cut(key, ".")
				n := DefaultSampleSize
				if rows := cat.Table(table).Rows; int64(n) > rows {
					n = int(rows)
				}
				draw, err := gen.ColumnDraw(table, column, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sampleHistogram(draw, DefaultBuckets)
				if err != nil {
					t.Fatal(err)
				}
				if want := builtHistogram(t, cat, gen, key); !sameHistogram(got, want) {
					t.Errorf("seed %d %s %s: selection histogram differs from the sorted build", seed, cat.Name, key)
				}
			}
		}
	}
}

// selectionCorpus is the adversarial sample set shared by the unit test
// and the fuzz target's seed corpus: signed zeros, NaN, infinities,
// subnormals, ties, far-apart clusters, ranges whose width overflows, and
// values crowding one end of the range geometrically.
func selectionCorpus() [][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	sub := math.SmallestNonzeroFloat64
	ramp := func(n int, f func(i int) float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	return [][]float64{
		{0, math.Copysign(0, -1), 1, 2, 3, 0, math.Copysign(0, -1)},
		{3, 1, nan, 2, 5, 4},
		{nan, nan, nan},
		{1, inf, 2, -inf, 3},
		{-inf, -inf, 0, 1},
		{sub, 2 * sub, 0, 3 * sub, sub, 5 * sub, 4 * sub},
		{sub, 1e-300, 1, 2, sub},
		ramp(40, func(int) float64 { return 42 }),
		ramp(64, func(i int) float64 { return float64(i%2)*1e9 + float64(i%7) }),
		ramp(50, func(i int) float64 { return math.MaxFloat64 * float64(1-2*(i%2)) / float64(1+i%5) }),
		ramp(60, func(i int) float64 { return math.Ldexp(1, i*17-500) }),
		ramp(33, func(i int) float64 { return 1 + float64(i%3)*math.Nextafter(1, 2) - float64(i%3) }),
		ramp(100, func(i int) float64 { return float64((i * 37) % 100) }),
		ramp(90, func(i int) float64 { return float64(i % 4) }),
	}
}

// TestSelectionEdgeSamples runs the selection build over selectionCorpus
// at several bucket counts and binning shapes.
func TestSelectionEdgeSamples(t *testing.T) {
	for _, vals := range selectionCorpus() {
		for _, buckets := range []int{-1, 0, 1, 2, 3, 7, 200} {
			for _, sel := range []selector{tinySelector, {depth: 2, leaf: 8, levels: 1}, defaultSelector} {
				checkSelection(t, sel, vals, buckets)
			}
		}
	}
	checkSelection(t, tinySelector, nil, 10)
}

// FuzzHistogram checks that for any sample and bucket count the
// selection build equals BuildHistogram over a sorted copy bit for bit,
// or both reject. The sample arrives as little-endian float64 bits, so
// every value the type can hold is reachable; shape picks the binning.
func FuzzHistogram(f *testing.F) {
	for i, vals := range selectionCorpus() {
		f.Add(floatBytes(vals), 200, uint8(i))
		f.Add(floatBytes(vals), 3, uint8(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, buckets int, shape uint8) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		sel := selector{depth: 1 + int(shape%4), leaf: 1 + int(shape/4%8), levels: 1 + int(shape/32%4)}
		checkSelection(t, sel, vals, buckets%512)
	})
}

// floatBytes encodes vals as FuzzHistogram reads them.
func floatBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// TestApplyRejectsNonFinite checks that a delta carrying a NaN or an
// infinity is refused with an error naming its column, before anything
// is installed: the receiver and its histograms stay as they were.
func TestApplyRejectsNonFinite(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	st := Build(cat, datagen.New(cat, 3))
	before := st.Histogram("orders", "o_orderdate")
	for _, vals := range [][]float64{
		{1, math.NaN(), 3},
		{math.Inf(1), 2, 3},
		{1, 2, math.Inf(-1)},
	} {
		next, err := st.Apply([]HistogramDelta{
			{Table: "lineitem", Column: "l_shipdate", Values: seq(10)},
			{Table: "orders", Column: "o_orderdate", Values: vals},
		})
		if err == nil || next != nil {
			t.Fatalf("Apply(%v) = %v, %v; want a rejection", vals, next, err)
		}
		if !strings.Contains(err.Error(), "orders.o_orderdate") {
			t.Errorf("Apply(%v) error %q does not name the column", vals, err)
		}
	}
	if st.Histogram("orders", "o_orderdate") != before {
		t.Error("a rejected delta changed the receiver's histogram")
	}
}

// BenchmarkColumnHistogram measures one column's first read — drawing the
// 20,000-value sample and building its histogram by selection, the cost a
// store defers from Build to the column's first reader — for a TPC-H
// column of each sampler distribution.
func BenchmarkColumnHistogram(b *testing.B) {
	cat := catalog.NewTPCH(0.1)
	gen := datagen.New(cat, 1)
	for _, c := range []struct{ dist, table, column string }{
		{"sequential", "lineitem", "l_orderkey"},
		{"uniform", "lineitem", "l_shipdate"},
		{"normal", "lineitem", "l_receiptdate"},
		{"zipf", "lineitem", "l_partkey"},
	} {
		b.Run(c.dist, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := Build(cat, gen)
				b.StartTimer()
				if st.Histogram(c.table, c.column) == nil {
					b.Fatalf("missing %s.%s", c.table, c.column)
				}
			}
		})
	}
}
