package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Directory is an RCU directory of per-template write domains: each
// attached SCR owns one template's plan cache (and its own writer mutex
// and snapshot pointer), and the directory publishes an immutable name →
// SCR mapping through a single atomic pointer. Lookups on the serving
// path are lock-free and never observe a torn directory — every name in
// a published dirSnapshot resolves to a valid *SCR from one publication.
//
// A publication copies the previous snapshot with one slot inserted or
// removed at its binary-search position, so attaching n templates costs
// O(n) copying each and never re-sorts.
//
// The directory mutex orders Attach/Detach only; it is never taken by
// Lookup or any per-domain operation, so mutating one template's
// cache republishes only that template's snapshot and touches nothing
// shared.
type Directory struct {
	mu   sync.Mutex
	snap atomic.Pointer[dirSnapshot]
}

// dirSnapshot is one immutable published directory state: names sorted
// ascending, scrs and vals parallel to names. Readers binary-search names
// and index the others — all three slices are frozen at publication.
type dirSnapshot struct {
	version int64
	names   []string
	scrs    []*SCR
	vals    []any
}

// NewDirectory returns an empty directory with an initial (version 1)
// published snapshot.
func NewDirectory() *Directory {
	d := &Directory{}
	d.snap.Store(&dirSnapshot{version: 1})
	return d
}

// find returns name's slot in the snapshot: its index if present, else
// the index it would be inserted at.
func (snap *dirSnapshot) find(name string) (int, bool) {
	return slices.BinarySearch(snap.names, name)
}

// Attach registers s as the write domain for template name. Attaching a
// name twice is an error: a template's cache identity must be stable for
// its lifetime (detach first to replace it).
func (d *Directory) Attach(name string, s *SCR) error {
	return d.AttachValue(name, s, nil)
}

// AttachValue is Attach that also publishes v beside s: a value of the
// caller's, read back with Value and Values from the same snapshot as
// the SCR.
func (d *Directory) AttachValue(name string, s *SCR, v any) error {
	if s == nil {
		return fmt.Errorf("core: attach %q: nil SCR", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.snap.Load()
	i, dup := prev.find(name)
	if dup {
		return fmt.Errorf("core: template %q already attached", name)
	}
	d.snap.Store(&dirSnapshot{
		version: prev.version + 1,
		names:   insertAt(prev.names, i, name),
		scrs:    insertAt(prev.scrs, i, s),
		vals:    insertAt(prev.vals, i, v),
	})
	return nil
}

// Detach removes template name's domain from the directory, reporting
// whether it was attached. In-flight readers holding the previous
// snapshot still resolve the name until they re-load.
func (d *Directory) Detach(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.snap.Load()
	i, ok := prev.find(name)
	if !ok {
		return false
	}
	d.snap.Store(&dirSnapshot{
		version: prev.version + 1,
		names:   slices.Delete(slices.Clone(prev.names), i, i+1),
		scrs:    slices.Delete(slices.Clone(prev.scrs), i, i+1),
		vals:    slices.Delete(slices.Clone(prev.vals), i, i+1),
	})
	return true
}

// insertAt returns a new slice holding s with v inserted at index i.
func insertAt[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// Lookup resolves a template name to its SCR lock-free: one snapshot
// load and a binary search over the published name list.
func (d *Directory) Lookup(name string) (*SCR, bool) {
	snap := d.snap.Load()
	if i, ok := snap.find(name); ok {
		return snap.scrs[i], true
	}
	return nil, false
}

// Value resolves a template name to the value attached with it, as
// Lookup does its SCR. A name attached by Attach resolves to nil.
func (d *Directory) Value(name string) (any, bool) {
	snap := d.snap.Load()
	if i, ok := snap.find(name); ok {
		return snap.vals[i], true
	}
	return nil, false
}

// Values returns the attached values in name order. The slice is the
// published snapshot's own, shared by every reader: callers must not
// modify it.
func (d *Directory) Values() []any { return d.snap.Load().vals }

// Names returns the attached template names in ascending order.
func (d *Directory) Names() []string {
	snap := d.snap.Load()
	out := make([]string, len(snap.names))
	copy(out, snap.names)
	return out
}

// Len reports the number of attached domains.
func (d *Directory) Len() int { return len(d.snap.Load().names) }

// Revalidate starts one revalidation run per attached epoch-capable
// domain, all fed through a single shared pool of `workers` goroutines.
// Domains are interleaved in decreasing aggregate-usage order (hottest
// lag first) with cheapest-first ordering within each domain — the
// cross-domain half of the revalidation scheduling the single-SCR
// Revalidate cannot do. Domains whose engine has no epoch lifecycle are
// skipped. The returned handles are keyed by template name; each
// completes independently as its own domain's lag drains.
func (d *Directory) Revalidate(ctx context.Context, workers int) map[string]*Revalidation {
	snap := d.snap.Load()
	out := make(map[string]*Revalidation, len(snap.names))
	jobs := make([]*revalJob, 0, len(snap.names))
	for i, name := range snap.names {
		j, ok := snap.scrs[i].prepareReval(ctx)
		if !ok {
			continue
		}
		out[name] = j.r
		jobs = append(jobs, j)
	}
	runReval(jobs, workers)
	return out
}
