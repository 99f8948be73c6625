package stats

import (
	"math"
	"slices"
	"sort"
)

// Building a histogram by selection.
//
// An equi-depth histogram reads a sample at only buckets+1 ranks, and each
// bound's cumulative fraction is a count of values <= the bound. Neither
// needs the whole sample in order. sampleHistogram bins the sample by value
// range into a few thousand bins (one counting pass and prefix sums), then
// orders only the bins that hold a bound rank. A bound is the value at its
// rank inside its bin, and its count of values <= it is the number of
// values in the earlier bins plus an upper-bound search inside its own
// ordered bin. A bin that is still large is binned again the same way.
//
// The result is bit for bit the histogram BuildHistogram builds from a
// sorted copy of the sample. Binning is monotone — v <= w puts v in the
// same bin as w or an earlier one, because subtracting the minimum,
// scaling by a positive factor and truncating are each monotone in
// floating point — so every value of an earlier bin is < every value of a
// later one, and a rank's value is the same float64 as in the sorted
// sample. The one place a sorted sample's bits depend on the sort's own
// order is among values that compare equal but differ in bits: −0 and +0,
// or NaNs. A sample holding −0 or a NaN, or one whose range is empty,
// infinite or too narrow to scale, is sorted instead.

const (
	// selectMinSample is the smallest sample sampleHistogram bins; a
	// smaller one is sorted. At 256 values the two cost the same (about
	// 11 µs on a 2 vCPU Xeon); at 512 binning is 1.2–1.5× faster, at
	// 1,024 3.5×.
	selectMinSample = 512
	// selectBinDepth is the mean number of values per bin.
	selectBinDepth = 4
	// selectLeaf is the largest bin that is sorted rather than binned
	// again.
	selectLeaf = 256
	// selectLevels bounds how many times a bin is binned again before it
	// is sorted whatever its size, so a sample whose values crowd one end
	// of its range geometrically costs at most a few passes more than a
	// sort.
	selectLevels = 4
)

// negZero is the bit pattern of −0.
const negZero = 1 << 63

// selector is the binning's shape: mean bin depth, the size at which a
// bin is sorted, and the number of levels. Tests shrink it so that small
// samples reach every path.
type selector struct {
	depth, leaf, levels int
}

var defaultSelector = selector{depth: selectBinDepth, leaf: selectLeaf, levels: selectLevels}

// sampleHistogram builds the equi-depth histogram of an unsorted sample,
// equal bit for bit to BuildHistogram of the sorted sample (and failing
// where that fails). It does not modify vals.
func sampleHistogram(vals []float64, buckets int) (*Histogram, error) {
	if len(vals) < selectMinSample {
		return sortedHistogram(vals, buckets)
	}
	return defaultSelector.histogram(vals, buckets)
}

// sortedHistogram is BuildHistogram over a sorted copy of vals.
func sortedHistogram(vals []float64, buckets int) (*Histogram, error) {
	s := slices.Clone(vals)
	sort.Float64s(s)
	return BuildHistogram(s, buckets)
}

// histogram is sampleHistogram with sel's binning, whatever the sample's
// size.
func (sel selector) histogram(vals []float64, buckets int) (*Histogram, error) {
	n := len(vals)
	if n == 0 || buckets <= 0 || n > math.MaxInt32 {
		return sortedHistogram(vals, buckets)
	}
	ranks := boundRanks(n, buckets)
	at := make([]float64, len(ranks))
	le := make([]int, len(ranks))
	if !sel.binRanks(vals, ranks, at, le, sel.levels) {
		return sortedHistogram(vals, buckets)
	}
	return newHistogram(n, at, le), nil
}

// binRanks sets at[i] to the value of rank ranks[i] (ascending, 0-based)
// in seg and le[i] to the number of seg's values <= at[i], by binning seg
// at most levels deep. It reads seg without modifying it. It returns
// false, having written nothing, when seg is no larger than a leaf,
// levels is 0, seg holds a NaN or a −0, or seg's range is empty or too
// wide or narrow to scale; the caller then sorts.
func (sel selector) binRanks(seg []float64, ranks []int, at []float64, le []int, levels int) bool {
	if levels == 0 || len(seg) <= sel.leaf {
		return false
	}
	lo, hi := seg[0], seg[0]
	for _, v := range seg {
		if v != v || math.Float64bits(v) == negZero {
			return false
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// The bin of v is its offset from lo scaled to [0, nbins]: hi lands in
	// bin nbins itself, or in nbins-1 by rounding, so there are nbins+1.
	nbins := max(len(seg)/sel.depth, 2)
	width := hi - lo
	scale := float64(nbins) / width
	if !(width > 0) || math.IsInf(width, 0) || math.IsInf(scale, 0) {
		return false
	}
	bin := func(v float64) int { return int((v - lo) * scale) }
	nbins++
	// start[b] is the number of values in bins before b; start[nbins] is
	// len(seg).
	start := make([]int32, nbins+1)
	for _, v := range seg {
		start[bin(v)+1]++
	}
	for b := 1; b <= nbins; b++ {
		start[b] += start[b-1]
	}
	// Mark each rank's bin, and give the marked bins consecutive places in
	// one gather buffer: next[b] is where bin b's next value goes, or -1
	// for a bin no rank falls in.
	next := make([]int32, nbins)
	for b := range next {
		next[b] = -1
	}
	gathered := int32(0)
	rankBin := make([]int, len(ranks))
	b := 0
	for i, r := range ranks {
		for int(start[b+1]) <= r {
			b++
		}
		rankBin[i] = b
		if next[b] < 0 {
			next[b] = gathered
			gathered += start[b+1] - start[b]
		}
	}
	buf := make([]float64, gathered)
	for _, v := range seg {
		k := bin(v)
		if p := next[k]; p >= 0 {
			buf[p] = v
			next[k] = p + 1
		}
	}
	// Each marked bin's values now end at next[b]. Resolve the ranks bin
	// by bin, inside the bin (local holds their ranks there), then offset
	// their counts by the values of the earlier bins.
	local := make([]int, len(ranks))
	for i := 0; i < len(ranks); {
		b := rankBin[i]
		j := i
		for ; j < len(ranks) && rankBin[j] == b; j++ {
			local[j] = ranks[j] - int(start[b])
		}
		sub := buf[next[b]-(start[b+1]-start[b]) : next[b]]
		if !sel.binRanks(sub, local[i:j], at[i:j], le[i:j], levels-1) {
			sortRanks(sub, local[i:j], at[i:j], le[i:j])
		}
		for k := i; k < j; k++ {
			le[k] += int(start[b])
		}
		i = j
	}
	return true
}

// sortRanks is binRanks by sorting seg in place.
func sortRanks(seg []float64, ranks []int, at []float64, le []int) {
	slices.Sort(seg)
	for i, r := range ranks {
		at[i] = seg[r]
		le[i] = upperBound(seg, at[i])
	}
}

// upperBound returns the number of values of the ascending s that are <= v.
func upperBound(s []float64, v float64) int {
	return sort.Search(len(s), func(k int) bool { return s[k] > v })
}
