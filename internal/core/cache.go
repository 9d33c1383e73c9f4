package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"speakql/internal/faultinject"
	"speakql/internal/obs"
	"speakql/internal/trieindex"
)

// SearchLRU is a bounded least-recently-used memo cache for structure
// searches, implementing structure.SearchCache. The key is the masked
// transcript plus k — the searcher's entire input — so a hit returns the
// exact Results and Stats the trie walk would have produced. Both dictation
// sessions and the Table 2 train/test sweeps repeat masked shapes heavily,
// so even a small cache absorbs most of the search latency.
//
// Entries never go stale: a trieindex.Index is immutable once built, and a
// cache serves one index (see structure.SetSearchCache).
//
// Safe for concurrent use. Hit/miss/eviction counts are kept locally (for
// HitRate and the bench JSON) and mirrored into the obs default registry
// (cache.search_hits / _misses / _evictions), which GET /api/stats serves.
type SearchLRU struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type lruEntry struct {
	key string
	res []trieindex.Result
	st  trieindex.Stats
}

// NewSearchLRU returns a cache bounded to max entries (min 1).
func NewSearchLRU(max int) *SearchLRU {
	if max < 1 {
		max = 1
	}
	return &SearchLRU{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element, max),
	}
}

// Get returns the memoized results for key, marking the entry most recently
// used. The returned slice is shared — callers must not mutate it.
//
// An injected cache fault (faultinject.StageCache) degrades gracefully: an
// injected error reads as a miss, so the search simply runs — a flaky
// cache backend must never fail a correction.
func (c *SearchLRU) Get(key string) ([]trieindex.Result, trieindex.Stats, bool) {
	if err := faultinject.Fire(faultinject.StageCache); err != nil {
		c.misses.Add(1)
		obs.Add("cache.search_misses", 1)
		obs.Add("cache.injected_misses", 1)
		return nil, trieindex.Stats{}, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		obs.Add("cache.search_misses", 1)
		return nil, trieindex.Stats{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*lruEntry)
	res, st := e.res, e.st
	c.mu.Unlock()
	c.hits.Add(1)
	obs.Add("cache.search_hits", 1)
	return res, st, true
}

// Put memoizes one search, evicting the least recently used entry when
// full. Re-putting an existing key refreshes its value and recency.
func (c *SearchLRU) Put(key string, rs []trieindex.Result, st trieindex.Stats) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		e.res, e.st = rs, st
		c.mu.Unlock()
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, res: rs, st: st})
	var evicted bool
	if c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*lruEntry).key)
		evicted = true
	}
	c.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		obs.Add("cache.search_evictions", 1)
	}
}

// Len returns the current entry count.
func (c *SearchLRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Purge drops every entry (counters are retained).
func (c *SearchLRU) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
}

// CacheStats is a point-in-time view of the cache's effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

// HitRate is hits / (hits + misses), 0 when unused.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats snapshots the counters.
func (c *SearchLRU) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.max,
	}
}
