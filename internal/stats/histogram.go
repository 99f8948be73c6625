// Package stats provides per-column statistics — equi-depth histograms and
// distinct counts — and the selectivity-estimation API the optimizer and the
// PQO techniques depend on.
//
// The paper's techniques operate entirely on selectivity vectors: the
// selectivities of a query instance's parameterized predicates. This package
// supplies the "compute selectivity vector" engine requirement of §4.2: an
// efficient mapping from predicate parameter values to selectivities, backed
// by histograms built from generated data.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is an equi-depth (equi-height) histogram over a numeric column.
// Each of the b buckets holds the same number of sample values; bucket
// boundaries adapt to the data distribution, so skewed columns get fine
// resolution where their mass is.
type Histogram struct {
	// bounds has len = buckets+1; bucket i spans [bounds[i], bounds[i+1]).
	bounds []float64
	// cum is the cumulative-fraction prefix array, precomputed at build
	// time: cum[i] is the exact fraction of sample values <= bounds[i].
	// With it, an estimate is one sort.Search over bounds plus a linear
	// interpolation between cum[i] and cum[i+1] — no per-bucket
	// accumulation, and point masses (duplicate boundary values) carry
	// their true cumulative weight instead of the uniform-depth
	// approximation i/buckets.
	cum []float64
	// total is the number of sample values the histogram was built from.
	total int
}

// BuildHistogram constructs an equi-depth histogram with the given number of
// buckets from an ascending-sorted sample. It returns an error if the sample
// is empty, unsorted, or buckets is non-positive.
func BuildHistogram(sorted []float64, buckets int) (*Histogram, error) {
	if len(sorted) == 0 {
		return nil, fmt.Errorf("stats: empty sample")
	}
	if buckets <= 0 {
		return nil, fmt.Errorf("stats: non-positive bucket count %d", buckets)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			return nil, fmt.Errorf("stats: sample not sorted at index %d", i)
		}
	}
	ranks := boundRanks(len(sorted), buckets)
	at := make([]float64, len(ranks))
	le := make([]int, len(ranks))
	for i, r := range ranks {
		at[i] = sorted[r]
		le[i] = upperBound(sorted, at[i])
	}
	return newHistogram(len(sorted), at, le), nil
}

// boundRanks returns the sample rank (0-based, ascending) of each bound
// of an equi-depth histogram over n values: buckets+1 ranks, buckets
// clamped to n, each bucket perBucket = n/buckets ranks deep, and the
// last bound at the maximum, rank n-1.
func boundRanks(n, buckets int) []int {
	if buckets > n {
		buckets = n
	}
	ranks := make([]int, buckets+1)
	perBucket := float64(n) / float64(buckets)
	for i := range ranks {
		ranks[i] = min(int(float64(i)*perBucket), n-1)
	}
	// The last bound must cover the maximum sample value.
	ranks[buckets] = n - 1
	return ranks
}

// newHistogram returns the histogram of an n-value sample whose bounds
// are at, where le[i] is the number of sample values <= at[i]. The
// cumulative fraction at each bound is that count, not the equi-depth
// ideal i/buckets — the two differ exactly where duplicates pile up on a
// boundary, which is where the uniform approximation was worst.
func newHistogram(n int, at []float64, le []int) *Histogram {
	h := &Histogram{bounds: at, cum: make([]float64, len(at)), total: n}
	for i, c := range le {
		h.cum[i] = float64(c) / float64(n)
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) - 1 }

// Min returns the smallest value covered by the histogram.
func (h *Histogram) Min() float64 { return h.bounds[0] }

// Max returns the largest value covered by the histogram.
func (h *Histogram) Max() float64 { return h.bounds[len(h.bounds)-1] }

// SelectivityLE estimates the fraction of values <= v, interpolating
// linearly within the containing bucket. The result is clamped to
// [minSelectivity, 1] so downstream cost ratios stay finite. A NaN
// predicate value carries no information; the conservative floor is
// returned so the multiplicative G/L factors downstream stay finite.
func (h *Histogram) SelectivityLE(v float64) float64 {
	if math.IsNaN(v) {
		return minSelectivity
	}
	return clampSel(h.fractionBelow(v))
}

// SelectivityGE estimates the fraction of values >= v; NaN gets the
// conservative floor, as in SelectivityLE.
func (h *Histogram) SelectivityGE(v float64) float64 {
	if math.IsNaN(v) {
		return minSelectivity
	}
	return clampSel(1 - h.fractionBelow(v))
}

// SelectivityRange estimates the fraction of values in [lo, hi]. An empty
// range (hi < lo) and NaN endpoints both floor to minSelectivity.
func (h *Histogram) SelectivityRange(lo, hi float64) float64 {
	if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
		return minSelectivity
	}
	return clampSel(h.fractionBelow(hi) - h.fractionBelow(lo))
}

// fractionBelow returns the unclamped estimated fraction of values <= v:
// one sort.Search over the bounds, then linear interpolation between the
// precomputed cumulative fractions at the containing bucket's endpoints.
func (h *Histogram) fractionBelow(v float64) float64 {
	n := h.Buckets()
	if v < h.bounds[0] {
		return 0
	}
	if v >= h.bounds[n] {
		return 1
	}
	// Find the first bound strictly greater than v; buckets 0..j-2 lie
	// entirely at or below v and bucket j-1 contains v. Using the strict
	// upper bound makes duplicate boundary values (point masses) count
	// fully towards "<= v" — an exact bound hit returns cum[i] exactly.
	j := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] > v })
	i := j - 1
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	lo, hi := h.bounds[i], h.bounds[i+1]
	if hi > lo {
		return h.cum[i] + (v-lo)/(hi-lo)*(h.cum[i+1]-h.cum[i])
	}
	return h.cum[i+1]
}

// ValueAtFraction returns the value v such that approximately a fraction f
// of the column is <= v. It is the inverse of SelectivityLE and is used by
// the workload generator to construct query instances with target
// selectivities. f is clamped to [0, 1].
func (h *Histogram) ValueAtFraction(f float64) float64 {
	if f <= 0 {
		return h.bounds[0]
	}
	if f >= 1 {
		return h.bounds[len(h.bounds)-1]
	}
	n := float64(h.Buckets())
	pos := f * n
	i := int(pos)
	if i >= h.Buckets() {
		i = h.Buckets() - 1
	}
	frac := pos - float64(i)
	lo, hi := h.bounds[i], h.bounds[i+1]
	return lo + frac*(hi-lo)
}

// minSelectivity is the floor applied to all selectivity estimates. A zero
// selectivity would make the paper's multiplicative factors (alpha ratios,
// G and L) undefined; commercial optimizers apply a similar floor.
const minSelectivity = 1e-6

func clampSel(s float64) float64 {
	if s < minSelectivity {
		return minSelectivity
	}
	if s > 1 {
		return 1
	}
	return s
}

// ClampSelectivity exposes the estimation floor/ceiling applied by this
// package so other packages (e.g. the workload generator) can normalize
// target selectivities consistently.
func ClampSelectivity(s float64) float64 { return clampSel(s) }

// MinSelectivity is the smallest selectivity this package will ever report.
const MinSelectivity = minSelectivity
