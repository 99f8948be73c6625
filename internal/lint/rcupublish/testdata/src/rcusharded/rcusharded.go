// Package rcusharded seeds a regression for the sharded RCU write path: a
// mini write-domain whose unlock publishes every critical section through
// flushLocked, and a method of another type that stores straight into a
// foreign domain's master state, bypassing its mutex and publication.
package rcusharded

import (
	"sync"
	"sync/atomic"
)

type entry struct {
	key  string
	cost float64
}

type snapshot struct {
	entries []*entry
	version uint64
}

type domain struct {
	mu      sync.Mutex
	entries []*entry
	dirty   bool
	snap    atomic.Pointer[snapshot]
}

// flushLocked rebuilds the snapshot from the master state — entries and
// the dirty flag are what the analyzer learns as master here.
func (d *domain) flushLocked() {
	es := make([]*entry, len(d.entries))
	copy(es, d.entries)
	v := uint64(1)
	if prev := d.snap.Load(); prev != nil {
		v = prev.version + 1
	}
	d.dirty = false
	d.snap.Store(&snapshot{entries: es, version: v})
}

// unlock publishes the critical section and releases the mutex.
func (d *domain) unlock() {
	d.flushLocked()
	d.mu.Unlock()
}

// Add mutates its own master state under its own mutex: compliant.
func (d *domain) Add(e *entry) {
	d.mu.Lock()
	defer d.unlock()
	d.entries = append(d.entries, e)
	d.dirty = true
}

// registry maps names to domains; its methods must never reach into a
// domain's master state directly.
type registry struct {
	domains map[string]*domain
}

// Purge is the seeded cross-domain store: it empties another domain's
// entry list without holding that domain's mutex or publishing.
func (r *registry) Purge(name string) {
	d := r.domains[name]
	d.entries = nil // want `cross-domain store to domain\.entries`
	d.dirty = true  // want `cross-domain store to domain\.dirty`
}
