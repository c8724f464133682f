package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestCache_LRU pins the eviction policy: past the bound the least
// recently used entry goes, a Get promotes, and a re-Put refreshes
// recency without growing the cache.
func TestCache_LRU(t *testing.T) {
	c := New[string, int](2)
	c.Put("k1", 1)
	c.Put("k2", 2)
	if v, ok := c.Get("k1"); !ok || v != 1 { // promotes k1; k2 becomes the victim
		t.Fatalf("Get(k1) = %d, %v", v, ok)
	}
	c.Put("k3", 3)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("k2 survived eviction; LRU order ignored")
	}
	if v, _ := c.Get("k1"); v != 1 {
		t.Error("k1 evicted")
	}
	if v, _ := c.Get("k3"); v != 3 {
		t.Error("k3 evicted")
	}

	c.Put("k1", 10) // replaces the value and refreshes recency
	if c.Len() != 2 {
		t.Errorf("re-Put grew the cache to %d", c.Len())
	}
	if v, _ := c.Get("k1"); v != 10 {
		t.Errorf("re-Put kept the old value: %d", v)
	}
	c.Put("k4", 4)
	if _, ok := c.Get("k3"); ok {
		t.Error("k3 should have been the victim after k1 was refreshed")
	}
}

// The bound holds after bound + k distinct keys, and the newest bound
// keys are the ones resident.
func TestCache_Bound(t *testing.T) {
	const bound, extra = 8, 5
	c := New[int, int](bound)
	for i := 0; i < bound+extra; i++ {
		c.Put(i, i)
		if n := c.Len(); n > bound {
			t.Fatalf("after %d puts the cache holds %d entries, bound %d", i+1, n, bound)
		}
	}
	for i := 0; i < bound+extra; i++ {
		if _, ok := c.Get(i); ok != (i >= extra) {
			t.Errorf("key %d resident = %v, want %v", i, ok, i >= extra)
		}
	}
}

// A capacity of zero or less stores nothing.
func TestCache_ZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		c.Put("k", 1)
		if got := c.GetOrPut("j", func() int { return 2 }); got != 2 {
			t.Errorf("capacity %d: GetOrPut = %d, want the made value 2", capacity, got)
		}
		if _, ok := c.Get("k"); ok || c.Len() != 0 {
			t.Errorf("capacity %d: cache holds %d entries, want 0", capacity, c.Len())
		}
	}
}

// GetOrPut makes a value once per resident key.
func TestCache_GetOrPut(t *testing.T) {
	c := New[string, int](4)
	made := 0
	mk := func() int { made++; return made }
	if a, b := c.GetOrPut("k", mk), c.GetOrPut("k", mk); a != 1 || b != 1 || made != 1 {
		t.Errorf("GetOrPut = %d, %d after %d makes; want 1, 1 after 1", a, b, made)
	}
}

// Concurrent gets, puts and get-or-puts keep the bound and return only
// stored values; run under the race detector by make race.
func TestCache_Concurrent(t *testing.T) {
	const bound, workers, keys = 16, 4, 64
	c := New[string, string](bound)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprint((i*7 + w) % keys)
				switch i % 3 {
				case 0:
					c.Put(k, "v"+k)
				case 1:
					if v, ok := c.Get(k); ok && v != "v"+k {
						t.Errorf("Get(%s) = %q", k, v)
					}
				default:
					if v := c.GetOrPut(k, func() string { return "v" + k }); v != "v"+k {
						t.Errorf("GetOrPut(%s) = %q", k, v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n > bound {
		t.Errorf("cache holds %d entries, bound %d", n, bound)
	}
}
