package stats

import (
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/datagen"
)

// Store holds the histograms for every (table, column) of a catalog and
// answers selectivity queries. It is the statistics module a database
// engine's optimizer consults during logical property derivation.
//
// A column's histogram is built on its first read: Build only records how
// to sample each column, and Histogram, SelectivityLE/GE and
// ValueForSelectivityLE/GE sample and bucket the column the first time
// they touch it (sampleHistogram: by selection, without sorting the
// sample). Parameterized predicates take their selectivities
// from the request's sVector, so most columns are never read at all. The
// result does not depend on when or in which order columns are read:
// datagen seeds each column's sample from its own "table.column" name.
type Store struct {
	cells map[string]*cell // key: "table.column"
}

// cell is one column's histogram slot. Stores derived by Apply share the
// cells a delta does not name, so a histogram built through one store is
// built for all of them, and Epoch.Next can tell an untouched column by
// its cell even when nothing has read it yet.
type cell struct {
	once  sync.Once
	build func() (*Histogram, error) // nil once run
	h     *Histogram
	err   error
}

// builtCell returns a cell that already holds h.
func builtCell(h *Histogram) *cell {
	c := &cell{h: h}
	c.once.Do(func() {})
	return c
}

// histogram returns the cell's histogram, building it on the first call.
// Concurrent first readers wait for the one build.
func (c *cell) histogram() (*Histogram, error) {
	c.once.Do(func() {
		c.h, c.err = c.build()
		c.build = nil
	})
	return c.h, c.err
}

// DefaultSampleSize is the number of values sampled per column when building
// a histogram; DefaultBuckets is the histogram resolution. 200 equi-depth
// buckets give ~0.5% selectivity resolution, comparable to SQL Server's
// 200-step histograms.
const (
	DefaultSampleSize = 20000
	DefaultBuckets    = 200
)

// Build constructs a statistics store for every column of every table in
// cat, sampling values with gen. It samples nothing itself: each column's
// histogram is built from gen on the column's first read.
func Build(cat *catalog.Catalog, gen *datagen.Generator) *Store {
	s := &Store{cells: make(map[string]*cell)}
	for _, t := range cat.Tables() {
		sample := DefaultSampleSize
		if int64(sample) > t.Rows {
			sample = int(t.Rows)
		}
		for _, col := range t.Columns {
			table, column := t.Name, col.Name
			s.cells[table+"."+column] = &cell{build: func() (*Histogram, error) {
				vals, err := gen.ColumnDraw(table, column, sample)
				if err != nil {
					return nil, err
				}
				return sampleHistogram(vals, DefaultBuckets)
			}}
		}
	}
	return s
}

// lookup returns the histogram for table.column, building it on the first
// read. An absent column and a failed build are both errors.
func (s *Store) lookup(table, column string) (*Histogram, error) {
	key := table + "." + column
	c := s.cells[key]
	if c == nil {
		return nil, fmt.Errorf("stats: no histogram for %s", key)
	}
	h, err := c.histogram()
	if err != nil {
		return nil, fmt.Errorf("stats: histogram for %s: %w", key, err)
	}
	return h, nil
}

// Histogram returns the histogram for table.column, or nil if absent. It
// panics if the column's first-read build fails, which a validated
// catalog rules out; the selectivity methods return that error instead.
func (s *Store) Histogram(table, column string) *Histogram {
	if s.cells[table+"."+column] == nil {
		return nil
	}
	h, err := s.lookup(table, column)
	if err != nil {
		panic(err)
	}
	return h
}

// SelectivityLE estimates the selectivity of the predicate column <= v.
func (s *Store) SelectivityLE(table, column string, v float64) (float64, error) {
	h, err := s.lookup(table, column)
	if err != nil {
		return 0, err
	}
	return h.SelectivityLE(v), nil
}

// SelectivityGE estimates the selectivity of the predicate column >= v.
func (s *Store) SelectivityGE(table, column string, v float64) (float64, error) {
	h, err := s.lookup(table, column)
	if err != nil {
		return 0, err
	}
	return h.SelectivityGE(v), nil
}

// ValueForSelectivityLE returns a parameter value v such that the predicate
// column <= v has approximately the requested selectivity.
func (s *Store) ValueForSelectivityLE(table, column string, sel float64) (float64, error) {
	h, err := s.lookup(table, column)
	if err != nil {
		return 0, err
	}
	return h.ValueAtFraction(sel), nil
}

// ValueForSelectivityGE returns a parameter value v such that the predicate
// column >= v has approximately the requested selectivity.
func (s *Store) ValueForSelectivityGE(table, column string, sel float64) (float64, error) {
	h, err := s.lookup(table, column)
	if err != nil {
		return 0, err
	}
	return h.ValueAtFraction(1 - sel), nil
}
