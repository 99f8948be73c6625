package engine

import (
	"sync"
	"sync/atomic"
)

// recostKey identifies one (plan, instance, statistics generation) recost
// result: the plan's structural fingerprint (precomputed by plan.New, so
// keying allocates nothing), the selectivity vector's hash, and the cost
// epoch the cost was derived under. Keying by cost epoch makes a stats
// advance invalidation-free and exact: entries of a template whose
// footprint changed can never satisfy lookups made under the new
// generation and age out under the shard-capacity sweep, while entries of
// every other template keep hitting.
type recostKey struct {
	fp    string
	svh   uint64
	epoch uint64
}

// recostEntry stores the result together with the exact vector it was
// computed for, so a (vanishingly unlikely) hash collision degrades to a
// miss instead of returning a wrong cost.
type recostEntry struct {
	cost float64
	sv   []float64
}

const (
	// recostShards spreads the cache over independently locked maps so
	// concurrent Process calls on different goroutines rarely contend.
	recostShards = 16
	// recostShardCap bounds each shard; a full shard is cleared wholesale
	// (costs were cheap to derive, so crude eviction beats LRU bookkeeping).
	recostShardCap = 2048
)

type recostShard struct {
	mu sync.RWMutex
	m  map[recostKey]recostEntry
}

// recostCache memoizes Recost results per engine. Recost is deterministic
// in (plan, sv, footprint histograms), so an entry stays valid for as long
// as its cost epoch is current. hits and misses count lookups for
// RecostCacheCounters.
type recostCache struct {
	shards [recostShards]recostShard
	hits   atomic.Int64
	misses atomic.Int64
}

func (c *recostCache) shardFor(k recostKey) *recostShard {
	// Mix the plan fingerprint into the shard choice (FNV-1a, allocation
	// free). Under per-template write domains many templates recost
	// distinct plan sets at similar vectors concurrently; sharding on the
	// vector hash alone funnels those templates onto the same shard locks,
	// while fingerprint mixing gives each (plan, vector) pair an
	// independent shard and keeps cross-template contention flat.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.fp); i++ {
		h ^= uint64(k.fp[i])
		h *= 1099511628211
	}
	return &c.shards[(h^k.svh)&(recostShards-1)]
}

func svEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup reads one entry under the shard's read lock.
func (s *recostShard) lookup(k recostKey) (recostEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.m[k]
	return e, ok
}

// get returns the cached cost for (fp, sv), verifying the stored vector.
func (c *recostCache) get(k recostKey, sv []float64) (float64, bool) {
	e, ok := c.shardFor(k).lookup(k)
	if ok && svEqual(e.sv, sv) {
		c.hits.Add(1)
		return e.cost, true
	}
	c.misses.Add(1)
	return 0, false
}

// put stores a result, copying sv so callers may reuse their buffer.
//
//lint:allow hotalloc admission path after a computed recost, dominated by the recost itself
func (c *recostCache) put(k recostKey, sv []float64, cost float64) {
	s := c.shardFor(k)
	svCopy := append([]float64(nil), sv...)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[recostKey]recostEntry, 64)
	} else if len(s.m) >= recostShardCap {
		clear(s.m)
	}
	s.m[k] = recostEntry{cost: cost, sv: svCopy}
	s.mu.Unlock()
}

func (c *recostCache) counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
