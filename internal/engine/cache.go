package engine

import (
	"context"
	"sync"
	"time"
)

// prepEntry is one cached prepared session. refs counts the in-flight users
// (builders and solvers); an entry evicted while referenced is closed by the
// last release instead of under a running solve.
type prepEntry struct {
	key      string
	ready    chan struct{} // closed once prep/err are set
	prep     *Prepared
	err      error
	refs     int
	lastUsed time.Time
	evicted  bool
}

// prepCache is an LRU-with-TTL cache of prepared solver sessions keyed by
// the canonical preparation hash (matrix content + the configuration's prep
// identity). Concurrent acquires of the same key share a single build
// (duplicate suppression): latecomers block on the entry's ready channel.
type prepCache struct {
	mu      sync.Mutex
	max     int
	ttl     time.Duration
	entries map[string]*prepEntry
	hits    int64
	misses  int64
}

func newPrepCache(max int, ttl time.Duration) *prepCache {
	return &prepCache{max: max, ttl: ttl, entries: map[string]*prepEntry{}}
}

// acquire returns the cached prepared session for key, building it with
// build on a miss. A caller that joins another caller's in-flight build
// waits context-aware: cancelling ctx releases the waiter immediately (the
// build itself keeps running under its builder's context). The returned
// release function MUST be called once the caller is done solving with the
// session; the session must not be used after release. Failed builds are
// not cached.
func (c *prepCache) acquire(ctx context.Context, key string, build func() (*Prepared, error)) (*Prepared, func(), error) {
	if c.max < 0 {
		// Caching disabled: the caller gets a private session and release
		// tears it down.
		prep, err := build()
		if err != nil {
			return nil, nil, err
		}
		return prep, prep.Close, nil
	}
	now := time.Now()
	c.mu.Lock()
	c.sweepLocked(now)
	ent, ok := c.entries[key]
	if ok {
		ent.refs++
		ent.lastUsed = now
		c.hits++
		c.mu.Unlock()
		select {
		case <-ent.ready:
		case <-ctx.Done():
			c.release(ent)
			return nil, nil, context.Cause(ctx)
		}
		if ent.err != nil {
			c.release(ent)
			return nil, nil, ent.err
		}
		return ent.prep, func() { c.release(ent) }, nil
	}
	ent = &prepEntry{key: key, ready: make(chan struct{}), refs: 1, lastUsed: now}
	c.entries[key] = ent
	c.misses++
	c.mu.Unlock()

	prep, err := build()

	c.mu.Lock()
	ent.prep, ent.err = prep, err
	close(ent.ready)
	if err != nil {
		// Do not cache the failure; waiters observe ent.err and release.
		delete(c.entries, key)
		ent.evicted = true
		c.mu.Unlock()
		c.release(ent)
		return nil, nil, err
	}
	ent.lastUsed = time.Now()
	c.evictOverLimitLocked()
	c.mu.Unlock()
	return prep, func() { c.release(ent) }, nil
}

// release drops one reference and closes the session if it has been evicted
// and this was the last user.
func (c *prepCache) release(ent *prepEntry) {
	c.mu.Lock()
	ent.refs--
	ent.lastUsed = time.Now()
	closeNow := ent.evicted && ent.refs == 0 && ent.prep != nil
	c.mu.Unlock()
	if closeNow {
		ent.prep.Close()
	}
}

// sweep evicts idle entries past the TTL. Safe to call from a janitor.
func (c *prepCache) sweep(now time.Time) {
	c.mu.Lock()
	c.sweepLocked(now)
	c.mu.Unlock()
}

// sweepLocked evicts unreferenced entries whose idle time exceeds the TTL.
func (c *prepCache) sweepLocked(now time.Time) {
	if c.ttl <= 0 {
		return
	}
	for key, ent := range c.entries {
		if ent.refs == 0 && now.Sub(ent.lastUsed) > c.ttl {
			c.removeLocked(key, ent)
		}
	}
}

// evictOverLimitLocked enforces the size cap, evicting the least recently
// used unreferenced entries first. Entries with in-flight users are never
// evicted for size, so the cache can transiently exceed max under load.
func (c *prepCache) evictOverLimitLocked() {
	if c.max <= 0 {
		return
	}
	for len(c.entries) > c.max {
		var lru *prepEntry
		var lruKey string
		for key, ent := range c.entries {
			if ent.refs > 0 {
				continue
			}
			if lru == nil || ent.lastUsed.Before(lru.lastUsed) {
				lru, lruKey = ent, key
			}
		}
		if lru == nil {
			return // everything is in use
		}
		c.removeLocked(lruKey, lru)
	}
}

// removeLocked evicts one entry. Unreferenced built entries are closed
// asynchronously (Close waits for in-flight solves, of which an
// unreferenced entry has none, so this is near-instant; the goroutine keeps
// the cache lock out of it).
func (c *prepCache) removeLocked(key string, ent *prepEntry) {
	delete(c.entries, key)
	ent.evicted = true
	if ent.refs == 0 && ent.prep != nil {
		go ent.prep.Close()
	}
}

// closeAll evicts everything; referenced sessions close on last release.
func (c *prepCache) closeAll() {
	c.mu.Lock()
	for key, ent := range c.entries {
		c.removeLocked(key, ent)
	}
	c.mu.Unlock()
}

// PrepCacheStats is a point-in-time snapshot of the prepared-session cache.
type PrepCacheStats struct {
	// Size is the number of cached sessions.
	Size int `json:"size"`
	// Hits and Misses count acquires served from cache vs built.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (c *prepCache) stats() PrepCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PrepCacheStats{Size: len(c.entries), Hits: c.hits, Misses: c.misses}
}
