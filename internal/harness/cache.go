package harness

import (
	"sync"

	"laxgpu/internal/metrics"
)

// runCache is a concurrency-safe memo of simulation summaries with
// in-flight deduplication: concurrent requests for the same cell share one
// simulation instead of racing to run it twice. One mutex guards the map —
// a full paper grid is a few hundred entries whose fills take tens of
// milliseconds each, and the lock is never held while a simulation runs.
// Entries are immutable once their done channel closes. Failed runs
// (including context cancellations) are evicted rather than cached, so a
// cancelled sweep never poisons a later one.
type runCache struct {
	mu sync.Mutex
	m  map[runKey]*cacheEntry
}

// cacheEntry is one memoized (or in-flight) simulation. sum and err are
// written exactly once, before done closes; waiters read them only after
// <-done.
type cacheEntry struct {
	done chan struct{}
	sum  metrics.Summary
	err  error
}

func newRunCache() *runCache { return &runCache{m: make(map[runKey]*cacheEntry)} }

// do returns the memoized summary for k, running fn to produce it if no
// run is cached or in flight. Exactly one caller executes fn per missing
// key; the rest block until it finishes and share the result.
func (c *runCache) do(k runKey, fn func() (metrics.Summary, error)) (metrics.Summary, error) {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.mu.Unlock()
		<-e.done
		return e.sum, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.m[k] = e
	c.mu.Unlock()

	e.sum, e.err = fn()
	if e.err != nil {
		c.mu.Lock()
		delete(c.m, k)
		c.mu.Unlock()
	}
	close(e.done)
	return e.sum, e.err
}

// cached reports whether k has a completed, successful run in the cache.
func (c *runCache) cached(k runKey) bool {
	c.mu.Lock()
	e, ok := c.m[k]
	c.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}
