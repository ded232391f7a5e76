package window

import (
	"sync"

	"cocosketch/internal/flowkey"
	"cocosketch/internal/query"
)

// The result cache exploits immutability: a sealed epoch never
// changes, so a result computed for a CONCRETE window [from, to) stays
// correct forever — resolve canonicalizes every range (open-ended ones
// re-resolve to a new concrete window at each seal), which means the
// cache needs no invalidation on seal for closed windows and gets
// open-window invalidation for free through the changed key.
//
// The one event that can poison it is ring EVICTION: once an epoch
// falls out of the ring, a window reaching it must answer ErrEvicted
// (the uncached behavior), so serving the stale cached answer would
// diverge from cache-off. invalidateEvicted sweeps those entries and
// records the eviction floor; put re-checks the floor under the same
// mutex, closing the race where a slow reader resolved a span before
// the eviction and tries to cache its result after the sweep.

// op distinguishes the cached operation kinds.
type op uint8

const (
	// opQuery caches single partial-key subset sums (uint64).
	opQuery op = iota
	// opGroup caches GroupBy tables (map[flowkey.FiveTuple]uint64).
	opGroup
	// opTop caches the ranked rows one Top call returned
	// ([]sketch.Entry[flowkey.FiveTuple]).
	opTop
)

// cacheKey identifies one cached result: operation, canonical window,
// grouping mask, (for opQuery) the masked partial key and (for opTop)
// the row limit, 0 meaning every row.
type cacheKey struct {
	op       op
	from, to uint64
	mask     flowkey.Mask
	partial  flowkey.FiveTuple
	limit    int
}

// engineKey identifies one cached merged window engine.
type engineKey struct {
	from, to uint64
}

// cache is the bounded (operation, window) result cache plus the
// merged-engine cache. A limit of 0 disables both. Safe for concurrent
// use.
type cache struct {
	mu      sync.Mutex
	limit   int
	results map[cacheKey]any
	engines map[engineKey]*query.Engine
	// evictedThrough mirrors the ring's eviction floor so put can
	// reject entries for windows that became unservable while the
	// caller was computing them.
	evictedThrough uint64
	evicted        bool
}

// newCache returns a cache bounded to limit entries per map (disabled
// when limit <= 0).
func newCache(limit int) *cache {
	if limit < 0 {
		limit = 0
	}
	return &cache{
		limit:   limit,
		results: make(map[cacheKey]any),
		engines: make(map[engineKey]*query.Engine),
	}
}

// setLimit rebounds the cache to n entries per map (0 disables) and
// clears current contents; the eviction floor survives so a disabled-
// then-reenabled cache still refuses unservable windows.
func (c *cache) setLimit(n int) {
	if n < 0 {
		n = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.results = make(map[cacheKey]any)
	c.engines = make(map[engineKey]*query.Engine)
}

// get returns the cached result for key, if present.
func (c *cache) get(key cacheKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit == 0 {
		return nil, false
	}
	v, ok := c.results[key]
	return v, ok
}

// put stores a result unless caching is disabled or the window has
// been evicted since the caller resolved it.
func (c *cache) put(key cacheKey, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit == 0 {
		return
	}
	if c.evicted && key.from <= c.evictedThrough {
		return
	}
	if len(c.results) >= c.limit {
		c.dropOneResult()
	}
	c.results[key] = v
}

// getEngine returns the cached merged engine for a concrete window.
func (c *cache) getEngine(from, to uint64) (*query.Engine, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit == 0 {
		return nil, false
	}
	eng, ok := c.engines[engineKey{from, to}]
	return eng, ok
}

// putEngine stores a merged engine under the same eviction guard as
// put.
func (c *cache) putEngine(from, to uint64, eng *query.Engine) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.limit == 0 {
		return
	}
	if c.evicted && from <= c.evictedThrough {
		return
	}
	if len(c.engines) >= c.limit {
		for k := range c.engines {
			delete(c.engines, k)
			break
		}
	}
	c.engines[engineKey{from, to}] = eng
}

// dropOneResult makes room by discarding an arbitrary entry (cache
// contents never affect answers, only speed, so any victim is
// correct). Caller holds c.mu.
func (c *cache) dropOneResult() {
	for k := range c.results {
		delete(c.results, k)
		return
	}
}

// invalidateEvicted removes every entry whose window starts at or
// below the new eviction floor and raises the floor. Idempotent:
// re-running with the same (or a lower) floor finds nothing left to
// remove. Returns the number of entries dropped.
func (c *cache) invalidateEvicted(through uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.evicted || through > c.evictedThrough {
		c.evictedThrough, c.evicted = through, true
	}
	var dropped uint64
	for k := range c.results {
		if k.from <= c.evictedThrough {
			delete(c.results, k)
			dropped++
		}
	}
	for k := range c.engines {
		if k.from <= c.evictedThrough {
			delete(c.engines, k)
			dropped++
		}
	}
	return dropped
}

// Len reports the current number of cached results and engines (test
// hook).
func (c *cache) Len() (results, engines int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results), len(c.engines)
}

// CacheLen reports how many results and merged engines the ring
// currently caches (primarily for tests and diagnostics).
func (r *Ring) CacheLen() (results, engines int) { return r.cache.Len() }
