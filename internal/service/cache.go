package service

import (
	"container/list"
	"sync"
)

// Cache is an LRU mapping canonical request keys to encoded result
// payloads, bounded by total payload bytes (not entries) so a handful of
// giant panel results cannot claim the memory budget a thousand small run
// results were sized for. It is the daemon's hot path: a repeated request
// costs one map lookup instead of a simulation, and because the stored
// bytes are the canonical encoding of a deterministic result, every hit is
// bit-identical to the original computation. When the server runs with a
// data directory, this cache is the read-through/write-through memory tier
// over the disk store in internal/store.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	key string
	val []byte
}

// NewCache builds a cache bounded to maxBytes of payload (minimum 1).
func NewCache(maxBytes int64) *Cache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &Cache{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the payload stored under key, marking it most recently used.
func (c *Cache) Get(key string) ([]byte, bool) { return c.get(key, true) }

func (c *Cache) get(key string, countMiss bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores the payload under key, evicting least recently used entries
// until the cache fits its byte budget again (the entry just stored is
// never evicted, even if it alone exceeds the budget). The caller must not
// mutate val afterwards.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total payload bytes resident in the cache.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
