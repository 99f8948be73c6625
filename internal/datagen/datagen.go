// Package datagen deterministically generates synthetic rows for the tables
// described by package catalog.
//
// The generator serves two consumers: package stats builds equi-depth
// histograms from generated column samples, and package exec materializes
// (scaled-down) tables for the execution experiment (Table 3 of the paper).
// Determinism matters: the same (catalog, table, seed) always yields the
// same rows, so experiments are reproducible run to run.
package datagen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/catalog"
)

// Row is one generated tuple; Row[i] is the value of table column i.
type Row []float64

// Generator produces rows for the tables of one catalog.
type Generator struct {
	cat  *catalog.Catalog
	seed int64
}

// New returns a Generator for cat. Seed determines all generated values.
func New(cat *catalog.Catalog, seed int64) *Generator {
	return &Generator{cat: cat, seed: seed}
}

// tableSeed derives a per-table seed so tables are independent of each other
// and of the order in which they are generated.
func (g *Generator) tableSeed(table string) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(table) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h ^ g.seed
}

// Rows generates n rows for the named table. If n exceeds the table's base
// cardinality, it is clamped. It returns an error for unknown tables or
// non-positive n.
func (g *Generator) Rows(table string, n int) ([]Row, error) {
	t := g.cat.Table(table)
	if t == nil {
		return nil, fmt.Errorf("datagen: unknown table %q in catalog %s", table, g.cat.Name)
	}
	if n <= 0 {
		return nil, fmt.Errorf("datagen: non-positive row request %d for table %s", n, table)
	}
	if int64(n) > t.Rows {
		n = int(t.Rows)
	}
	rng := rand.New(rand.NewSource(g.tableSeed(table)))
	rows := make([]Row, n)
	samplers := make([]sampler, len(t.Columns))
	for i := range t.Columns {
		samplers[i] = newSampler(&t.Columns[i], rng)
	}
	for r := 0; r < n; r++ {
		row := make(Row, len(t.Columns))
		for ci := range t.Columns {
			row[ci] = samplers[ci].next(rng, r)
		}
		rows[r] = row
	}
	return rows, nil
}

// ColumnSample generates n values drawn from the named column's
// distribution, sorted ascending: ColumnDraw's values in order.
func (g *Generator) ColumnSample(table, column string, n int) ([]float64, error) {
	vals, err := g.ColumnDraw(table, column, n)
	if err != nil {
		return nil, err
	}
	sort.Float64s(vals)
	return vals, nil
}

// ColumnDraw generates n values drawn from the named column's
// distribution, in the order they were drawn. It is the input to histogram
// construction, which needs no more order than its bounds' ranks.
func (g *Generator) ColumnDraw(table, column string, n int) ([]float64, error) {
	t := g.cat.Table(table)
	if t == nil {
		return nil, fmt.Errorf("datagen: unknown table %q in catalog %s", table, g.cat.Name)
	}
	col := t.Column(column)
	if col == nil {
		return nil, fmt.Errorf("datagen: unknown column %s.%s", table, column)
	}
	if n <= 0 {
		return nil, fmt.Errorf("datagen: non-positive sample request %d for %s.%s", n, table, column)
	}
	rng := rand.New(rand.NewSource(g.tableSeed(table + "." + column)))
	s := newSampler(col, rng)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.next(rng, i)
	}
	return vals, nil
}

// sampler draws values for one column.
type sampler interface {
	next(rng *rand.Rand, rowIdx int) float64
}

func newSampler(col *catalog.Column, rng *rand.Rand) sampler {
	switch col.Dist {
	case catalog.Sequential:
		return &seqSampler{min: col.Min, max: col.Max}
	case catalog.Uniform:
		return newUniformSampler(col)
	case catalog.Normal:
		return &normalSampler{min: col.Min, max: col.Max}
	case catalog.Zipf:
		return newZipfSampler(col, rng)
	default:
		return newUniformSampler(col)
	}
}

type seqSampler struct{ min, max float64 }

func (s *seqSampler) next(_ *rand.Rand, rowIdx int) float64 {
	span := s.max - s.min
	if span <= 0 {
		return s.min
	}
	x := float64(rowIdx)
	if x < span {
		// math.Mod(x, span) is x itself here; skip its software loop.
		return s.min + x
	}
	return s.min + math.Mod(x, span)
}

// uniformSampler draws uniformly from [min, max]: from its distinct values
// when there are at most 1<<20 of them, else continuously.
type uniformSampler struct {
	min, max float64
	discrete bool
	step     float64 // gap between neighbouring distinct values
	pick     int63n  // draws a distinct value's index
}

func newUniformSampler(col *catalog.Column) *uniformSampler {
	s := &uniformSampler{min: col.Min, max: col.Max}
	if col.Distinct > 1 && col.Distinct <= 1<<20 {
		s.discrete = true
		s.step = (s.max - s.min) / float64(col.Distinct-1)
		s.pick = newInt63n(col.Distinct)
	}
	return s
}

func (s *uniformSampler) next(rng *rand.Rand, _ int) float64 {
	if s.discrete {
		return s.min + s.step*float64(s.pick.draw(rng))
	}
	return s.min + rng.Float64()*(s.max-s.min)
}

// int63n draws exactly what rand.Rand.Int63n(n) draws from the same
// source — the same Int63 values, the same rejections, the same result —
// with the divisions by n done once, up front: the rejection bound is
// precomputed, and v % n is taken by a multiply with the reciprocal m =
// ⌊(2⁶⁴−1)/n⌋. For v < 2⁶³, q = ⌊v·m/2⁶⁴⌋ is ⌊v/n⌋ or one less, so
// v − q·n is the remainder or the remainder plus n.
type int63n struct {
	n   uint64
	max int64
	m   uint64
}

// newInt63n returns the drawer for n > 0.
func newInt63n(n int64) int63n {
	return int63n{n: uint64(n), max: int64((1 << 63) - 1 - (1<<63)%uint64(n)), m: ^uint64(0) / uint64(n)}
}

func (d int63n) draw(rng *rand.Rand) int64 {
	if d.n&(d.n-1) == 0 {
		return rng.Int63() & int64(d.n-1)
	}
	v := rng.Int63()
	for v > d.max {
		v = rng.Int63()
	}
	return int64(d.rem(uint64(v)))
}

// rem returns v % n for v < 2⁶³.
func (d int63n) rem(v uint64) uint64 {
	q, _ := bits.Mul64(v, d.m)
	r := v - q*d.n
	if r >= d.n {
		r -= d.n
	}
	return r
}

type normalSampler struct{ min, max float64 }

func (s *normalSampler) next(rng *rand.Rand, _ int) float64 {
	mean := (s.min + s.max) / 2
	// 3-sigma spans half the domain, so ~99.7% of draws land inside.
	sigma := (s.max - s.min) / 6
	v := rng.NormFloat64()*sigma + mean
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// zipfSampler maps Zipf ranks onto the column domain: rank 0 (most frequent)
// maps near Min, so small values dominate — matching the skewed TPC-H
// generator the paper uses. Values are jittered uniformly within a rank's
// sub-range so the resulting distribution is continuous (no point masses),
// which keeps histogram selectivity inversion well-defined.
type zipfSampler struct {
	z        *rand.Zipf
	min, max float64
	buckets  uint64
}

func newZipfSampler(col *catalog.Column, rng *rand.Rand) *zipfSampler {
	skew := col.Skew
	if skew <= 1.0 {
		// rand.Zipf requires s > 1; compress milder skews into (1, 2].
		skew = 1.0 + math.Max(skew, 0.01)
	}
	buckets := uint64(col.Distinct)
	if buckets < 2 {
		buckets = 2
	}
	if buckets > 1<<16 {
		buckets = 1 << 16
	}
	return &zipfSampler{
		z:       rand.NewZipf(rng, skew, 1, buckets-1),
		min:     col.Min,
		max:     col.Max,
		buckets: buckets,
	}
}

func (s *zipfSampler) next(rng *rand.Rand, _ int) float64 {
	rank := s.z.Uint64()
	frac := (float64(rank) + rng.Float64()) / float64(s.buckets)
	return s.min + frac*(s.max-s.min)
}
