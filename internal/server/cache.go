package server

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded least-recently-used map from byte-string keys
// to values, bounded to max entries; max <= 0 disables it (get always
// misses, put is a no-op). The server runs two: completed responses
// keyed by the result-cache key, and encoded response bodies keyed by
// the raw request bytes. The type knows only LRU mechanics — which
// responses may be stored and how a hit is presented are decided at the
// call sites (Server.cachedFor, Server.storeResult and the wire
// helpers in wire.go).
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element
}

// lruEntry is one stored value with its key (needed for eviction).
type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns a cache bounded to max entries.
func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value stored under key, marking it most recently
// used. The string(key) conversion in the map probe does not allocate
// (the compiler recognizes the lookup pattern), so a hit costs zero
// allocations.
func (c *lru[V]) get(key []byte) (V, bool) {
	var zero V
	if c.max <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores v under a copy of key, evicting the least recently used
// entry past capacity. Storing an existing key replaces its value and
// refreshes its position. Stored values must be immutable.
func (c *lru[V]) put(key []byte, v V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return
	}
	k := string(key)
	c.items[k] = c.order.PushFront(&lruEntry[V]{key: k, val: v})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry[V]).key)
	}
}

// len reports the current entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
