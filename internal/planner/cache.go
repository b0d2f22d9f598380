package planner

import (
	"container/list"
	"sync"
)

// results is the planner's one table of simulation results. Keys are
// canonical identities plus the campaign seed (cacheKey) — single-scenario
// and fleet keys share the one namespace, with disjoint prefixes
// keeping the families apart — and each key has at most one entry:
// in flight while its leader simulates, then cached on success or
// deleted on failure. Simulations are pure functions of their key, so
// cached entries never go stale; capacity is the only reason to evict,
// and least-recently-used is the right victim because planning
// sessions revisit the scenarios they are deciding between.
type results struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // cached entries, front = most recently used
	entries map[string]*result
}

// result is one key's entry. val and err are final once done is
// closed; el is nil while the entry is in flight.
type result struct {
	key  string
	done chan struct{}
	val  any
	err  error
	el   *list.Element
}

func newResults(capacity int) *results {
	return &results{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*result, capacity),
	}
}

// claim returns key's entry. A cached entry is a hit and becomes the
// most recent; an in-flight entry is for the caller to follow; an
// absent key gets a new in-flight entry, which the caller leads and
// must finish.
func (t *results) claim(key string) (r *result, hit, lead bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r, ok := t.entries[key]; ok {
		if r.el == nil {
			return r, false, false
		}
		t.order.MoveToFront(r.el)
		return r, true, false
	}
	r = &result{key: key, done: make(chan struct{})}
	t.entries[key] = r
	return r, false, true
}

// finish ends r's flight with the leader's outcome and wakes its
// followers. A success is cached as the most recent entry, evicting
// the least recent past capacity; a failure is deleted, so the next
// caller leads again.
func (t *results) finish(r *result, val any, err error) (evicted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r.val, r.err = val, err
	close(r.done)
	if err != nil {
		delete(t.entries, r.key)
		return false
	}
	r.el = t.order.PushFront(r)
	if t.order.Len() <= t.cap {
		return false
	}
	victim := t.order.Remove(t.order.Back()).(*result)
	delete(t.entries, victim.key)
	return true
}

// Len reports the number of cached entries.
func (t *results) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}
