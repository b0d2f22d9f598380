package planner

import (
	"container/list"
	"sync"
)

// lru is the planner's seed-keyed result cache. Keys are canonical
// identities plus the campaign seed (cacheKey) — single-scenario and
// fleet keys share the one namespace, with disjoint prefixes keeping
// the families apart — and values are the corresponding finished
// results (see simulated). Simulations are pure functions of
// their key, so entries never go stale; capacity is the only reason to
// evict, and least-recently-used is the right victim because planning
// sessions revisit the scenarios they are deciding between.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached result and refreshes its recency.
func (c *lru) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Add inserts or refreshes an entry and reports whether a victim was
// evicted to make room.
func (c *lru) Add(key string, val any) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	victim := c.order.Back()
	c.order.Remove(victim)
	delete(c.items, victim.Value.(*lruEntry).key)
	return true
}

// Len reports the number of cached entries.
func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
