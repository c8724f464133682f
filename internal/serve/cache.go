package serve

import (
	"container/list"
	"sync"
)

// lruCache is a bounded string-keyed LRU — the shared mechanism behind
// the server's tier-1 result cache (canonical request key → encoded job
// result) and its per-seed key-pool index. When the cap is exceeded, the
// least recently used entry is dropped.
type lruCache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached value for a key (the zero value on a miss) and
// marks it most recently used.
func (c *lruCache[V]) get(key string) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry[V]).val
}

// put stores a value, evicting the least recently used entry when over
// capacity. Storing an existing key refreshes its value and recency.
func (c *lruCache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry[V]).val = val
		return
	}
	c.insertLocked(key, val)
}

// getOrPut returns the value for key, storing (and returning) the one
// minted by mk on a miss. mk runs under the cache lock — keep it cheap.
func (c *lruCache[V]) getOrPut(key string, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).val
	}
	val := mk()
	c.insertLocked(key, val)
	return val
}

func (c *lruCache[V]) insertLocked(key string, val V) {
	c.entries[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
	}
}

// len reports the resident entry count.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
