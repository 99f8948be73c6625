package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// flightGroup deduplicates concurrent optimizer calls for byte-identical
// selectivity vectors (a minimal singleflight, keyed by svKey). The first
// caller for a key becomes the leader and runs fn to completion; callers
// arriving while the flight is open wait for the leader's result instead of
// paying their own optimizer call. Waiters abandon the wait when their
// context is cancelled — the leader is never interrupted, so the cache is
// still populated for future instances.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	dec  *Decision
	err  error
}

// Do runs fn once per concurrent burst of callers with the same key. The
// second return value reports whether the result was shared from another
// caller's flight rather than produced by this one.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() (*Decision, error)) (*Decision, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		//lint:allow lockdiscipline singleflight must release before blocking on the leader's done channel
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.dec, true, c.err
		case <-ctx.Done():
			return nil, true, cancelled(ctx.Err())
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// The flight must be torn down even if fn panics: a leaked entry would
	// strand every waiter (and every future caller for this key) on a done
	// channel that never closes. The panic is converted into an error both
	// the leader and the waiters observe — Process's degraded-fallback path
	// turns it into a served plan when enabled.
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.dec, c.err = nil, fmt.Errorf("%w: flight leader: %v", ErrOptimizerPanic, r)
			}
			// Remove the flight before signalling completion: a caller
			// that misses the flight entirely re-checks the cache (which
			// the leader has already populated) before opening a new one,
			// so the burst still performs exactly one optimizer call.
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.dec, c.err = fn()
	}()
	return c.dec, false, c.err
}

// svKey encodes a selectivity vector into a byte-exact map key.
func svKey(sv []float64) string {
	var buf [16 * 8]byte // built on the stack for up to 16 dimensions
	b := buf[:0]
	for _, v := range sv {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// cancelled wraps a context error so it matches both ErrCancelled and the
// original context sentinel.
func cancelled(err error) error {
	return fmt.Errorf("%w: %w", ErrCancelled, err)
}
