package core

import (
	"context"
	"fmt"
	"sort"
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
// The directory mutex orders Attach/Detach only; it is never taken by
// Lookup or any per-domain operation, so mutating one template's
// cache republishes only that template's snapshot and touches nothing
// shared.
type Directory struct {
	mu      sync.Mutex
	domains map[string]*SCR
	snap    atomic.Pointer[dirSnapshot]
}

// dirSnapshot is one immutable published directory state: names sorted
// ascending, scrs parallel to names. Readers binary-search names and
// index scrs — both slices are frozen at publication.
type dirSnapshot struct {
	version int64
	names   []string
	scrs    []*SCR
}

// NewDirectory returns an empty directory with an initial (version 1)
// published snapshot.
func NewDirectory() *Directory {
	d := &Directory{domains: make(map[string]*SCR)}
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
	return d
}

// publishLocked rebuilds and publishes the directory snapshot from the
// domains map. Callers hold d.mu.
func (d *Directory) publishLocked() {
	next := &dirSnapshot{
		version: 1,
		names:   make([]string, 0, len(d.domains)),
		scrs:    make([]*SCR, 0, len(d.domains)),
	}
	if prev := d.snap.Load(); prev != nil {
		next.version = prev.version + 1
	}
	for name := range d.domains {
		next.names = append(next.names, name)
	}
	sort.Strings(next.names)
	for _, name := range next.names {
		next.scrs = append(next.scrs, d.domains[name])
	}
	d.snap.Store(next)
}

// Attach registers s as the write domain for template name. Attaching a
// name twice is an error: a template's cache identity must be stable for
// its lifetime (detach first to replace it).
func (d *Directory) Attach(name string, s *SCR) error {
	if s == nil {
		return fmt.Errorf("core: attach %q: nil SCR", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.domains[name]; dup {
		return fmt.Errorf("core: template %q already attached", name)
	}
	d.domains[name] = s
	d.publishLocked()
	return nil
}

// Detach removes template name's domain from the directory, reporting
// whether it was attached. In-flight readers holding the previous
// snapshot still resolve the name until they re-load.
func (d *Directory) Detach(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.domains[name]; !ok {
		return false
	}
	delete(d.domains, name)
	d.publishLocked()
	return true
}

// Lookup resolves a template name to its SCR lock-free: one snapshot
// load and a binary search over the published name list.
func (d *Directory) Lookup(name string) (*SCR, bool) {
	snap := d.snap.Load()
	i := sort.SearchStrings(snap.names, name)
	if i < len(snap.names) && snap.names[i] == name {
		return snap.scrs[i], true
	}
	return nil, false
}

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
