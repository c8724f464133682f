// Package lru is the one bounded least-recently-used map of the
// repository: the result cache of the study daemon, the process-wide
// Device RSA key store, the matrix scheduler's cell cache, the Device RSA
// private-key memo, the manifest and RSA key parse memos, and the OTT
// title store all hold their entries in it. It is stdlib-only. Hit and
// miss counting stays with the callers that report it.
package lru

import (
	"container/list"
	"sync"
)

// WarmSeeds is the number of world seeds every process-wide warm tier
// keyed by seed is sized for: the Device RSA key store, the manifest
// and RSA key parse memos, and the OTT title store. The test process
// with the most distinct seeds, internal/wideleak's, uses 35
// (internal/fleet 30, internal/serve 19; the study daemon under
// perfbench uses 1), so 64 holds any one of them without eviction.
const WarmSeeds = 64

// Cache is a mutex-guarded LRU of at most a fixed number of entries.
// Past the bound, the least recently used entry is dropped. It is safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // of *entry[K, V]; front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most capacity entries. A
// capacity <= 0 stores nothing: every Get misses.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		cap:     max(capacity, 0),
		entries: make(map[K]*list.Element),
		order:   list.New(),
	}
}

// Get returns the value stored for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key as the most recently used entry, replacing
// any value key had, and evicts past the bound.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[K, V]).val = val
		return
	}
	c.insertLocked(key, val)
}

// GetOrPut returns the value for key, storing (and returning) the one
// mk makes on a miss. mk runs under the cache lock: keep it cheap.
func (c *Cache[K, V]) GetOrPut(key K, mk func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	val := mk()
	c.insertLocked(key, val)
	return val
}

func (c *Cache[K, V]) insertLocked(key K, val V) {
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[K, V]).key)
	}
}

// Len reports the resident entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
