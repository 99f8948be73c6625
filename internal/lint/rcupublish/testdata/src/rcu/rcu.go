// Package rcu models the SCR's RCU publication discipline for the
// rcupublish analyzer: master state guarded by a writer mutex, rebuilt
// into an immutable snapshot by flushLocked when a critical section ends
// and published through an atomic pointer that readers load exactly once
// per operation.
package rcu

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
	index   map[string]*entry
	version uint64
}

type Cache struct {
	mu      sync.Mutex
	entries []*entry
	index   map[string]*entry
	snap    atomic.Pointer[snapshot]
}

func New() *Cache {
	c := &Cache{index: map[string]*entry{}}
	c.snap.Store(&snapshot{index: map[string]*entry{}})
	return c
}

// flushLocked rebuilds the immutable snapshot from the master state.
// The caller holds mu. The fields read here (entries, index) are what the
// analyzer learns to treat as master state.
func (c *Cache) flushLocked() {
	es := make([]*entry, len(c.entries))
	copy(es, c.entries)
	idx := make(map[string]*entry, len(c.index))
	for k, v := range c.index {
		idx[k] = v
	}
	c.snap.Store(&snapshot{entries: es, index: idx, version: c.snap.Load().version + 1})
}

// unlock ends every critical section with a publication.
func (c *Cache) unlock() {
	c.flushLocked()
	c.mu.Unlock()
}

// Add mutates under the mutex; unlock publishes: compliant.
func (c *Cache) Add(e *entry) {
	c.mu.Lock()
	defer c.unlock()
	c.entries = append(c.entries, e)
	c.index[e.key] = e
}

// Get is the read path: one load, reads only. Compliant.
func (c *Cache) Get(key string) *entry {
	return c.snap.Load().index[key]
}

// Double loads the snapshot pointer twice in one operation: a writer may
// publish between the loads and the two reads disagree.
func (c *Cache) Double(key string) bool {
	n := len(c.snap.Load().entries)
	_, ok := c.snap.Load().index[key] // want `snapshot pointer loaded 2 times in one operation`
	return ok && n > 0
}

// Mixed double-loads transitively: once directly, once through Get.
func (c *Cache) Mixed(key string) *entry {
	if c.snap.Load().version == 0 {
		return nil
	}
	return c.Get(key) // want `snapshot pointer loaded 2 times in one operation`
}

// Probe re-checks the version after the read on purpose: the second load
// is an intentional second-chance check, recorded as such.
func (c *Cache) Probe(key string) *entry {
	s := c.snap.Load()
	e := s.index[key]
	if c.snap.Load().version != s.version { //lint:allow rcupublish second-chance version re-check is intentional
		return nil
	}
	return e
}

// Resort is a write section that reads the published version before
// unlock republishes: the load inside flushLocked is writer-side and does
// not count against it.
func (c *Cache) Resort() uint64 {
	c.mu.Lock()
	defer c.unlock()
	return c.snap.Load().version
}
