package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

func mustHist(t *testing.T, vals []float64, buckets int) *Histogram {
	t.Helper()
	h, err := BuildHistogram(vals, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestBuildHistogramErrors(t *testing.T) {
	if _, err := BuildHistogram(nil, 10); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := BuildHistogram([]float64{1, 2}, 0); err == nil {
		t.Error("zero buckets should fail")
	}
	if _, err := BuildHistogram([]float64{2, 1}, 2); err == nil {
		t.Error("unsorted sample should fail")
	}
}

func TestBucketsClampedToSampleSize(t *testing.T) {
	h := mustHist(t, []float64{1, 2, 3}, 100)
	if h.Buckets() > 3 {
		t.Errorf("Buckets() = %d, want <= 3", h.Buckets())
	}
}

func TestSelectivityLEUniform(t *testing.T) {
	h := mustHist(t, seq(10000), 100)
	cases := []struct{ v, want float64 }{
		{-1, MinSelectivity}, // below domain clamps to floor
		{0, MinSelectivity},
		{2499.5, 0.25},
		{4999.5, 0.50},
		{7499.5, 0.75},
		{9999, 1.0},
		{20000, 1.0},
	}
	for _, c := range cases {
		got := h.SelectivityLE(c.v)
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("SelectivityLE(%v) = %v, want ~%v", c.v, got, c.want)
		}
	}
}

func TestSelectivityGEComplementsLE(t *testing.T) {
	h := mustHist(t, seq(5000), 50)
	for _, v := range []float64{100, 1234, 2500, 4000} {
		le := h.SelectivityLE(v)
		ge := h.SelectivityGE(v)
		if math.Abs(le+ge-1) > 0.01 {
			t.Errorf("LE(%v)+GE(%v) = %v, want ~1", v, v, le+ge)
		}
	}
}

func TestSelectivityRange(t *testing.T) {
	h := mustHist(t, seq(10000), 100)
	got := h.SelectivityRange(2500, 7500)
	if math.Abs(got-0.5) > 0.02 {
		t.Errorf("SelectivityRange(2500,7500) = %v, want ~0.5", got)
	}
	if got := h.SelectivityRange(7500, 2500); got != MinSelectivity {
		t.Errorf("inverted range = %v, want floor", got)
	}
}

func TestSelectivityMonotone(t *testing.T) {
	h := mustHist(t, seq(1000), 20)
	prev := 0.0
	for v := -10.0; v <= 1010; v += 7 {
		s := h.SelectivityLE(v)
		if s < prev-1e-12 {
			t.Fatalf("SelectivityLE not monotone at v=%v: %v < %v", v, s, prev)
		}
		prev = s
	}
}

func TestValueAtFractionInvertsLE(t *testing.T) {
	// Build from a skewed sample to exercise non-uniform buckets.
	vals := make([]float64, 20000)
	for i := range vals {
		u := float64(i) / float64(len(vals))
		vals[i] = math.Pow(u, 3) * 1000 // cubic skew towards 0
	}
	sort.Float64s(vals)
	h := mustHist(t, vals, 200)
	for _, f := range []float64{0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		v := h.ValueAtFraction(f)
		got := h.SelectivityLE(v)
		if math.Abs(got-f) > 0.02 {
			t.Errorf("round-trip: ValueAtFraction(%v)=%v, SelectivityLE=%v", f, v, got)
		}
	}
}

func TestValueAtFractionEdges(t *testing.T) {
	h := mustHist(t, seq(100), 10)
	if v := h.ValueAtFraction(0); v != h.Min() {
		t.Errorf("ValueAtFraction(0) = %v, want Min %v", v, h.Min())
	}
	if v := h.ValueAtFraction(1); v != h.Max() {
		t.Errorf("ValueAtFraction(1) = %v, want Max %v", v, h.Max())
	}
	if v := h.ValueAtFraction(-3); v != h.Min() {
		t.Errorf("ValueAtFraction(-3) = %v, want Min", v)
	}
	if v := h.ValueAtFraction(7); v != h.Max() {
		t.Errorf("ValueAtFraction(7) = %v, want Max", v)
	}
}

func TestConstantColumn(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 42
	}
	h := mustHist(t, vals, 10)
	if got := h.SelectivityLE(42); got != 1 {
		t.Errorf("SelectivityLE(42) on constant column = %v, want 1", got)
	}
	if got := h.SelectivityLE(41); got != MinSelectivity {
		t.Errorf("SelectivityLE(41) on constant column = %v, want floor", got)
	}
}

// Property: selectivities are always within [MinSelectivity, 1] and LE is
// monotone in v for arbitrary sorted samples.
func TestHistogramProperties(t *testing.T) {
	f := func(raw []float64, vq float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1e6))
			}
		}
		if len(vals) == 0 {
			return true
		}
		sort.Float64s(vals)
		h, err := BuildHistogram(vals, 16)
		if err != nil {
			return false
		}
		if math.IsNaN(vq) || math.IsInf(vq, 0) {
			vq = 0
		}
		s := h.SelectivityLE(vq)
		if s < MinSelectivity || s > 1 {
			return false
		}
		s2 := h.SelectivityLE(vq + 1)
		return s2+1e-12 >= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStoreBuildAndLookup(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	gen := datagen.New(cat, 11)
	st := Build(cat, gen)
	if st.Histogram("lineitem", "l_shipdate") == nil {
		t.Fatal("missing histogram for lineitem.l_shipdate")
	}
	if st.Histogram("lineitem", "nope") != nil {
		t.Error("unexpected histogram for bogus column")
	}
	sel, err := st.SelectivityLE("lineitem", "l_shipdate", 1278)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sel-0.5) > 0.06 {
		t.Errorf("mid-domain uniform LE selectivity = %v, want ~0.5", sel)
	}
	if _, err := st.SelectivityLE("x", "y", 0); err == nil {
		t.Error("SelectivityLE on missing histogram should fail")
	}
	if _, err := st.SelectivityGE("x", "y", 0); err == nil {
		t.Error("SelectivityGE on missing histogram should fail")
	}
}

func TestStoreValueForSelectivity(t *testing.T) {
	cat := catalog.NewTPCH(0.05)
	gen := datagen.New(cat, 11)
	st := Build(cat, gen)
	for _, target := range []float64{0.01, 0.1, 0.5, 0.9} {
		v, err := st.ValueForSelectivityLE("orders", "o_totalprice", target)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := st.SelectivityLE("orders", "o_totalprice", v)
		if math.Abs(got-target) > 0.03 {
			t.Errorf("LE target %v: value %v gives selectivity %v", target, v, got)
		}
		vg, err := st.ValueForSelectivityGE("orders", "o_totalprice", target)
		if err != nil {
			t.Fatal(err)
		}
		gotG, _ := st.SelectivityGE("orders", "o_totalprice", vg)
		if math.Abs(gotG-target) > 0.03 {
			t.Errorf("GE target %v: value %v gives selectivity %v", target, vg, gotG)
		}
	}
	if _, err := st.ValueForSelectivityLE("x", "y", 0.5); err == nil {
		t.Error("missing histogram should fail")
	}
	if _, err := st.ValueForSelectivityGE("x", "y", 0.5); err == nil {
		t.Error("missing histogram should fail")
	}
}

func TestClampSelectivity(t *testing.T) {
	if got := ClampSelectivity(-1); got != MinSelectivity {
		t.Errorf("ClampSelectivity(-1) = %v", got)
	}
	if got := ClampSelectivity(2); got != 1 {
		t.Errorf("ClampSelectivity(2) = %v", got)
	}
	if got := ClampSelectivity(0.5); got != 0.5 {
		t.Errorf("ClampSelectivity(0.5) = %v", got)
	}
}
