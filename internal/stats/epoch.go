package stats

import (
	"fmt"
	"math"
	"sort"
)

// Epoch is one generation of the statistics lifecycle: a monotonically
// increasing id paired with the immutable Store that was current while the
// id was. Costs, G/L factors and recost results are all deterministic in
// (plan, sv, statistics), so an epoch id is a complete validity token for
// any derived cost: two values computed under the same epoch are mutually
// consistent, and a value tagged with an older epoch is stale — not wrong,
// just answered against the previous statistics generation. A cost reads
// only some histograms, so the finer token is the cost epoch of those
// histograms (CostEpoch): it moves only when one of them is replaced.
//
// Epochs are immutable after construction. The optimizer publishes the
// current epoch through an atomic pointer (memo.Optimizer.Epoch), so a
// reader always observes a consistent (id, store) pair even while an
// AdvanceEpoch is in flight. This package deliberately records no wall
// clock — stats feed cost derivation, which must be deterministic; the
// serving layer timestamps epoch advances instead.
type Epoch struct {
	// ID is the monotonic generation number, starting at 1 for the store
	// an optimizer was constructed with. ID 0 is reserved for engines
	// without an epoch lifecycle ("epoch-less"), so a zero value never
	// collides with a real generation.
	ID uint64
	// Store is the statistics snapshot of this generation.
	Store *Store
	// born maps a "table.column" key to the id of the epoch that installed
	// the column's current cell. Columns absent from the map were
	// born at epoch 1, so the first epoch needs no map at all.
	born map[string]uint64
}

// Next returns the epoch that follows e with st as its store. A column
// whose cell is unchanged keeps its birth epoch; every other column is
// born at the new id. Store.Apply shares the cells a delta does not name,
// so a delta moves exactly the columns it names, while a resampled store
// moves every column — conservative, never stale. Cells compare whether or
// not their histograms have been built, so Next builds nothing.
func (e *Epoch) Next(st *Store) *Epoch {
	next := &Epoch{ID: e.ID + 1, Store: st}
	for k, c := range st.cells {
		born := next.ID
		if e.Store != nil && e.Store.cells[k] == c {
			born = e.born[k]
		}
		if born > 1 {
			if next.born == nil {
				next.born = make(map[string]uint64)
			}
			next.born[k] = born
		}
	}
	return next
}

// CostEpoch returns the cost epoch of a footprint — a list of
// "table.column" keys whose histograms some derived cost reads: the id of
// the newest epoch that installed a new histogram for any of them, or 1
// when none changed since the first epoch (or the footprint is empty).
// Costs derived from the footprint are bit-identical across all epochs
// sharing a cost epoch, so it can tag them in place of the epoch id.
func (e *Epoch) CostEpoch(footprint []string) uint64 {
	ce := uint64(1)
	for _, k := range footprint {
		if b := e.born[k]; b > ce {
			ce = b
		}
	}
	return ce
}

// HistogramDelta replaces the histogram of one column: the raw sample
// values, which must be finite and need not be sorted, are built into an
// equi-depth histogram with DefaultBuckets resolution (or Buckets when
// positive). It is the unit of
// an incremental statistics update — the online alternative to rebuilding
// a full Store.
type HistogramDelta struct {
	Table   string    `json:"table"`
	Column  string    `json:"column"`
	Values  []float64 `json:"values"`
	Buckets int       `json:"buckets,omitempty"`
}

// Apply derives a new Store from s with the given histogram deltas
// applied. The receiver is not modified: the cells a delta does not name
// are shared, built or not, so a delta touching one column copies only
// the map, never the per-column data, and reads nothing. Each delta's
// histogram is installed as an already-built cell. Every delta must name a
// column the store holds — a delta cannot invent columns the catalog does
// not know — and carry only finite values: a NaN or an infinity would
// become a histogram bound that every estimate then reads.
func (s *Store) Apply(deltas []HistogramDelta) (*Store, error) {
	if len(deltas) == 0 {
		return nil, fmt.Errorf("stats: empty delta")
	}
	next := &Store{cells: make(map[string]*cell, len(s.cells))}
	for k, c := range s.cells {
		next.cells[k] = c
	}
	for _, d := range deltas {
		key := d.Table + "." + d.Column
		if _, ok := s.cells[key]; !ok {
			return nil, fmt.Errorf("stats: delta for unknown column %s", key)
		}
		if len(d.Values) == 0 {
			return nil, fmt.Errorf("stats: delta for %s has no values", key)
		}
		for i, v := range d.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stats: delta for %s has non-finite value %v at index %d", key, v, i)
			}
		}
		buckets := d.Buckets
		if buckets <= 0 {
			buckets = DefaultBuckets
		}
		h, err := sampleHistogram(d.Values, buckets)
		if err != nil {
			return nil, fmt.Errorf("stats: delta for %s: %w", key, err)
		}
		next.cells[key] = builtCell(h)
	}
	return next, nil
}

// Columns lists every "table.column" key the store holds, read or not,
// sorted for deterministic output.
func (s *Store) Columns() []string {
	keys := make([]string, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
