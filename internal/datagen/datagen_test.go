package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
)

func TestRowsDeterministic(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	g1 := New(cat, 42)
	g2 := New(cat, 42)
	r1, err := g1.Rows("orders", 500)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g2.Rows("orders", 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j, r1[i][j], r2[i][j])
			}
		}
	}
}

func TestRowsDifferentSeedsDiffer(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	r1, _ := New(cat, 1).Rows("orders", 200)
	r2, _ := New(cat, 2).Rows("orders", 200)
	same := true
	for i := range r1 {
		for j := range r1[i] {
			if r1[i][j] != r2[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical rows")
	}
}

func TestRowsErrors(t *testing.T) {
	cat := catalog.NewTPCH(0.01)
	g := New(cat, 1)
	if _, err := g.Rows("nope", 10); err == nil {
		t.Error("Rows(nope) should fail")
	}
	if _, err := g.Rows("orders", 0); err == nil {
		t.Error("Rows(n=0) should fail")
	}
	if _, err := g.ColumnSample("nope", "x", 10); err == nil {
		t.Error("ColumnSample(nope) should fail")
	}
	if _, err := g.ColumnSample("orders", "nope", 10); err == nil {
		t.Error("ColumnSample(orders.nope) should fail")
	}
	if _, err := g.ColumnSample("orders", "o_orderdate", -1); err == nil {
		t.Error("ColumnSample(n<0) should fail")
	}
}

func TestRowsClampedToTableCardinality(t *testing.T) {
	cat := catalog.NewTPCH(1)
	g := New(cat, 1)
	rows, err := g.Rows("nation", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 25 {
		t.Errorf("got %d nation rows, want 25 (clamped)", len(rows))
	}
}

func TestValuesWithinDomain(t *testing.T) {
	cat := catalog.NewTPCDS(0.01)
	g := New(cat, 7)
	for _, tab := range cat.Tables() {
		rows, err := g.Rows(tab.Name, 300)
		if err != nil {
			t.Fatalf("Rows(%s): %v", tab.Name, err)
		}
		for _, row := range rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s: row width %d, want %d", tab.Name, len(row), len(tab.Columns))
			}
			for ci, v := range row {
				col := tab.Columns[ci]
				if v < col.Min || v > col.Max {
					t.Fatalf("%s.%s: value %v outside [%v,%v]", tab.Name, col.Name, v, col.Min, col.Max)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s.%s: non-finite value", tab.Name, col.Name)
				}
			}
		}
	}
}

func TestColumnSampleSorted(t *testing.T) {
	cat := catalog.NewTPCH(0.1)
	g := New(cat, 3)
	vals, err := g.ColumnSample("lineitem", "l_extendedprice", 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] > vals[i] {
			t.Fatalf("sample not sorted at %d: %v > %v", i, vals[i-1], vals[i])
		}
	}
}

func TestZipfSkewsTowardsMin(t *testing.T) {
	cat := catalog.NewTPCH(0.1)
	g := New(cat, 3)
	// l_partkey is Zipf-distributed; the mass should concentrate near Min.
	vals, err := g.ColumnSample("lineitem", "l_partkey", 5000)
	if err != nil {
		t.Fatal(err)
	}
	col := cat.Table("lineitem").Column("l_partkey")
	mid := (col.Min + col.Max) / 2
	below := 0
	for _, v := range vals {
		if v < mid {
			below++
		}
	}
	if frac := float64(below) / float64(len(vals)); frac < 0.8 {
		t.Errorf("zipf column: only %.2f of mass below midpoint, want >= 0.8", frac)
	}
}

func TestUniformRoughlyFlat(t *testing.T) {
	cat := catalog.NewTPCH(0.1)
	g := New(cat, 3)
	vals, err := g.ColumnSample("lineitem", "l_shipdate", 10000)
	if err != nil {
		t.Fatal(err)
	}
	col := cat.Table("lineitem").Column("l_shipdate")
	// Count mass in each quartile; each should hold 15-35%.
	quart := [4]int{}
	span := col.Max - col.Min
	for _, v := range vals {
		q := int((v - col.Min) / span * 4)
		if q > 3 {
			q = 3
		}
		quart[q]++
	}
	for i, c := range quart {
		frac := float64(c) / float64(len(vals))
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("uniform column quartile %d holds %.2f of mass", i, frac)
		}
	}
}

func TestNormalClustersAroundMean(t *testing.T) {
	cat := catalog.NewTPCDS(0.1)
	g := New(cat, 3)
	vals, err := g.ColumnSample("customer", "c_birth_year", 5000)
	if err != nil {
		t.Fatal(err)
	}
	col := cat.Table("customer").Column("c_birth_year")
	mean := (col.Min + col.Max) / 2
	span := col.Max - col.Min
	central := 0
	for _, v := range vals {
		if math.Abs(v-mean) < span/4 {
			central++
		}
	}
	if frac := float64(central) / float64(len(vals)); frac < 0.6 {
		t.Errorf("normal column: only %.2f of mass within central half-width, want >= 0.6", frac)
	}
}

// Property: for any (seed, n>0), all generated sample values stay inside the
// column domain and output length equals the request.
func TestColumnSampleProperty(t *testing.T) {
	cat := catalog.NewRD1()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		g := New(cat, seed)
		vals, err := g.ColumnSample("accounts", "accounts_amount", n)
		if err != nil || len(vals) != n {
			return false
		}
		col := cat.Table("accounts").Column("accounts_amount")
		for _, v := range vals {
			if v < col.Min || v > col.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInt63nMatchesRand checks that the uniform sampler's index drawer
// draws exactly what rand.Rand.Int63n draws from the same source, for
// powers of two, small and large divisors and the 1<<20 limit, and that
// its remainder equals % at the edges of its domain.
func TestInt63nMatchesRand(t *testing.T) {
	ns := []int64{1, 2, 3, 7, 12, 1000, 1023, 2405, 2557, 73049, 1<<20 - 1, 1 << 20, 1<<62 + 1, 1<<63 - 1}
	pick := rand.New(rand.NewSource(5))
	for len(ns) < 64 {
		ns = append(ns, 1+pick.Int63n(1<<20))
	}
	for _, n := range ns {
		d := newInt63n(n)
		want, got := rand.New(rand.NewSource(n)), rand.New(rand.NewSource(n))
		for i := 0; i < 2000; i++ {
			if w, g := want.Int63n(n), d.draw(got); w != g {
				t.Fatalf("n=%d draw %d: int63n %d, rand.Int63n %d", n, i, g, w)
			}
		}
		for _, v := range []uint64{0, 1, uint64(n) - 1, uint64(n), uint64(n) + 1, 1<<63 - 1, 1<<63 - uint64(n)} {
			if g, w := d.rem(v), v%uint64(n); g != w {
				t.Fatalf("n=%d: rem(%d) = %d, want %d", n, v, g, w)
			}
		}
	}
}

// TestSeqSamplerMatchesMod checks the sequential sampler's shortcut
// against math.Mod on both sides of the span.
func TestSeqSamplerMatchesMod(t *testing.T) {
	for _, s := range []seqSampler{{0, 100}, {-3.5, 7.25}, {1e6, 1e6 + 0.1}, {0, 1.5e5}} {
		for i := 0; i < 1000; i++ {
			want := s.min + math.Mod(float64(i), s.max-s.min)
			if got := s.next(nil, i); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v row %d: %v, want %v", s, i, got, want)
			}
		}
	}
}
