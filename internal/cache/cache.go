// Package cache implements the set-associative SRAM cache model used for
// every on-chip lookup structure in the simulator: the CPU cache hierarchy
// (L1/L2/L3), the fingerprint caches of the dedup schemes, ESD's EFIT
// cache, the AMT hot-entry cache, and the encryption-counter cache.
//
// The cache is generic over its value type and supports three replacement
// policies:
//
//   - LRU: least-recently-used, for ordinary caches;
//   - FIFO: insertion order, as a cheap baseline for ablations;
//   - LRCU: the paper's Least-Reference-Count-Used policy (§III-D), which
//     evicts the entry with the lowest reference count (ties broken by
//     recency) so that hot fingerprints survive, plus a periodic DecayAll
//     "regular refresh" that subtracts a fixed value from every count.
//
// Storage is struct-of-arrays: the keys of one set are contiguous (64
// bytes for the standard 8-way geometry — one cache line), with values
// and replacement metadata in parallel flat arrays. The simulator probes
// these caches several times per simulated line, and the caches are large
// enough to live in DRAM, so the tag scan touching one line instead of a
// 450-byte entry block is a measurable share of write-path throughput.
package cache

import (
	"fmt"
	"math/bits"
)

// Policy selects the replacement policy.
type Policy int

// Supported replacement policies.
const (
	LRU Policy = iota
	FIFO
	LRCU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case LRCU:
		return "lrcu"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
}

// HitRate returns hits / (hits + misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative cache mapping uint64 keys to values of type V.
// It is not safe for concurrent use.
//
// Way i of set s lives at flat index s*ways+i across the parallel arrays.
// A way is live iff its last is non-zero: every insert and hit stores a
// tick of at least 1, and clearSlot zeroes it.
type Cache[V any] struct {
	keys   []uint64
	vals   []V
	last   []uint64 // tick of last touch (LRU ordering; 0 = free way)
	born   []uint64 // tick of insertion (FIFO ordering; nil under LRU, LRCU)
	ref    []int32  // reference count (LRCU ordering)
	ways   int
	nsets  uint64
	policy Policy
	tick   uint64
	len    int

	// Stats only grows: Clear keeps it, so it counts over the cache's
	// whole life, crashes included.
	Stats Stats
}

// New creates a cache with the given total entry capacity, associativity
// and policy. ways <= 0 or ways >= capacity yields a fully-associative
// cache. Capacity is rounded down to a multiple of the way count and must
// be at least 1.
func New[V any](capacity, ways int, policy Policy) *Cache[V] {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	if ways <= 0 || ways >= capacity {
		ways = capacity
	}
	numSets := capacity / ways
	if numSets < 1 {
		numSets = 1
	}
	n := numSets * ways
	c := &Cache[V]{
		keys:   make([]uint64, n),
		vals:   make([]V, n),
		last:   make([]uint64, n),
		ref:    make([]int32, n),
		ways:   ways,
		nsets:  uint64(numSets),
		policy: policy,
	}
	if policy == FIFO {
		c.born = make([]uint64, n)
	}
	return c
}

// Capacity returns the total number of entries the cache can hold.
func (c *Cache[V]) Capacity() int { return len(c.keys) }

// Len returns the number of valid entries.
func (c *Cache[V]) Len() int { return c.len }

// Policy returns the replacement policy.
func (c *Cache[V]) Policy() Policy { return c.policy }

// mix is a splitmix64-style finalizer, decorrelating set indices from
// low-order key bits (fingerprints and line addresses both need this).
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// setBase returns the flat index of the first way of key's set.
// Multiply-shift range reduction (Lemire) maps the mixed key uniformly
// onto [0, nsets) with one multiply: the set count comes from
// capacity/ways and is rarely a power of two, so the obvious `%` would
// cost a 64-bit hardware division on every probe of every cache.
func (c *Cache[V]) setBase(key uint64) int {
	hi, _ := bits.Mul64(mix(key), c.nsets)
	return int(hi) * c.ways
}

// find returns the flat index of key within its set, or -1.
func (c *Cache[V]) find(key uint64) int {
	base := c.setBase(key)
	for i := base; i < base+c.ways; i++ {
		if c.keys[i] == key && c.last[i] != 0 {
			return i
		}
	}
	return -1
}

// Get looks up key, counting a hit or miss and refreshing recency (and,
// under LRCU, the reference count is NOT bumped by Get — only Touch and
// Put bump it, mirroring the paper where the count tracks duplicate
// writes, not probes).
func (c *Cache[V]) Get(key uint64) (V, bool) {
	if i := c.find(key); i >= 0 {
		c.tick++
		c.last[i] = c.tick
		c.Stats.Hits++
		return c.vals[i], true
	}
	c.Stats.Misses++
	var zero V
	return zero, false
}

// GetRef is Get plus the entry's current reference count, in one tag scan.
// The ESD dup path needs both the mapped value and the referH saturation
// check; fusing them avoids a second probe for every duplicate write.
func (c *Cache[V]) GetRef(key uint64) (V, int, bool) {
	if i := c.find(key); i >= 0 {
		c.tick++
		c.last[i] = c.tick
		c.Stats.Hits++
		return c.vals[i], int(c.ref[i]), true
	}
	c.Stats.Misses++
	var zero V
	return zero, 0, false
}

// Peek looks up key without updating recency or statistics.
func (c *Cache[V]) Peek(key uint64) (V, bool) {
	if i := c.find(key); i >= 0 {
		return c.vals[i], true
	}
	var zero V
	return zero, false
}

// Prefetch reads key's set the way a probe and the update after it will —
// the tag, value and recency lines and, under LRCU, the reference
// counts — without scanning it or changing anything: no
// statistic or recency tick moves. A batch calls it for
// every op before deciding any, so the sets' host cache misses overlap
// instead of stalling op by op; with no scan there is no branch on a load
// still in flight to stall on. It returns the set's first value slot and
// a word folding the rest; neither is a lookup result (Peek is), but a
// caller that keeps both keeps the compiler from dropping the loads.
func (c *Cache[V]) Prefetch(key uint64) (V, uint64) {
	base := c.setBase(key)
	sum := c.keys[base] + c.last[base]
	if c.policy == LRCU {
		sum += uint64(c.ref[base])
	}
	return c.vals[base], sum
}

// Contains reports whether key is cached, without side effects.
func (c *Cache[V]) Contains(key uint64) bool {
	return c.find(key) >= 0
}

// Touch bumps the reference count (saturating at refMax if refMax > 0)
// and recency of key. It reports whether the key was present.
func (c *Cache[V]) Touch(key uint64, refMax int) bool {
	if i := c.find(key); i >= 0 {
		c.tick++
		c.last[i] = c.tick
		if refMax <= 0 || c.ref[i] < int32(refMax) {
			c.ref[i]++
		}
		return true
	}
	return false
}

// Ref returns the reference count of key (0 if absent).
func (c *Cache[V]) Ref(key uint64) int {
	if i := c.find(key); i >= 0 {
		return int(c.ref[i])
	}
	return 0
}

// Evicted describes an entry displaced by Put.
type Evicted[V any] struct {
	Key   uint64
	Value V
	Ref   int
}

// Put inserts or updates key. If an existing entry is updated, its value is
// replaced and recency refreshed (reference count unchanged). On insertion
// into a full set, the policy victim is evicted and returned.
func (c *Cache[V]) Put(key uint64, value V) (ev Evicted[V], evicted bool) {
	return c.PutWithRef(key, value, 1)
}

// PutWithRef inserts key with an explicit initial reference count, which
// matters for LRCU: a fingerprint re-inserted after tracking in NVMM may
// re-enter hot.
func (c *Cache[V]) PutWithRef(key uint64, value V, ref int) (ev Evicted[V], evicted bool) {
	base := c.setBase(key)
	c.tick++
	// One pass finds the existing entry, the first free way, and — under
	// LRU, the policy of the per-write AMT cache — the eviction victim, so
	// a full-set insert does not rescan the set's recency line. The victim
	// is used only when the set is full, when every way it compares is
	// live.
	free := -1
	lru := base
	for i := base; i < base+c.ways; i++ {
		if c.last[i] == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if c.keys[i] == key {
			c.vals[i] = value
			c.last[i] = c.tick
			return ev, false
		}
		if c.last[i] < c.last[lru] {
			lru = i
		}
	}
	c.Stats.Inserts++
	i := free
	if i < 0 {
		// Evict the policy victim.
		i = lru
		if c.policy != LRU {
			i = c.victim(base)
		}
		ev = Evicted[V]{Key: c.keys[i], Value: c.vals[i], Ref: int(c.ref[i])}
		evicted = true
		c.Stats.Evictions++
	} else {
		c.len++
	}
	c.keys[i] = key
	c.vals[i] = value
	c.last[i] = c.tick
	// Every policy's entry starts at its own count: GetRef, Touch and Ref
	// read it under all three, and an evicted way still holds its victim's.
	c.ref[i] = int32(ref)
	if c.born != nil {
		c.born[i] = c.tick
	}
	return ev, evicted
}

// victim returns the flat index of the replacement victim in the full set
// starting at base.
func (c *Cache[V]) victim(base int) int {
	v := base
	switch c.policy {
	case FIFO:
		for i := base + 1; i < base+c.ways; i++ {
			if c.born[i] < c.born[v] {
				v = i
			}
		}
	case LRCU:
		// Lowest reference count first — the paper prioritizes evicting
		// refcount-1 fingerprints so hot ones stay — recency breaks ties.
		for i := base + 1; i < base+c.ways; i++ {
			if c.ref[i] < c.ref[v] ||
				(c.ref[i] == c.ref[v] && c.last[i] < c.last[v]) {
				v = i
			}
		}
	default: // LRU
		for i := base + 1; i < base+c.ways; i++ {
			if c.last[i] < c.last[v] {
				v = i
			}
		}
	}
	return v
}

// Delete removes key, reporting whether it was present.
func (c *Cache[V]) Delete(key uint64) bool {
	_, ok := c.Pop(key)
	return ok
}

// Pop removes key and returns the value it held, in one tag scan — the
// delete-then-reinsert idiom (ESD re-pointing an EFIT entry) otherwise
// probes the set twice just to learn what it evicted.
func (c *Cache[V]) Pop(key uint64) (V, bool) {
	if i := c.find(key); i >= 0 {
		v := c.vals[i]
		c.clearSlot(i)
		c.len--
		return v, true
	}
	var zero V
	return zero, false
}

func (c *Cache[V]) clearSlot(i int) {
	var zero V
	c.keys[i] = 0
	c.vals[i] = zero
	c.last[i] = 0
	c.ref[i] = 0
	if c.born != nil {
		c.born[i] = 0
	}
}

// DecayAll subtracts delta from every entry's reference count (floor 0).
// This is the paper's "regular refresh" (§III-D) that keeps LRCU counts
// from staleness; entries decayed to 0 become prime eviction victims.
func (c *Cache[V]) DecayAll(delta int) {
	d := int32(delta)
	// Only slots with a positive count change; skipping the rest keeps the
	// sweep read-mostly (no stores re-dirtying lines full of zero counts,
	// no touch of the recency array — cleared slots hold ref 0).
	for i := range c.ref {
		if r := c.ref[i]; r > 0 {
			r -= d
			if r < 0 {
				r = 0
			}
			c.ref[i] = r
		}
	}
}

// Range calls fn for every valid entry until fn returns false. Iteration
// order is unspecified but deterministic.
func (c *Cache[V]) Range(fn func(key uint64, value V, ref int) bool) {
	for i := range c.keys {
		if c.last[i] != 0 {
			if !fn(c.keys[i], c.vals[i], int(c.ref[i])) {
				return
			}
		}
	}
}

// Clear removes all entries. It keeps the statistics (see Stats).
func (c *Cache[V]) Clear() {
	for i := range c.keys {
		if c.last[i] != 0 {
			c.clearSlot(i)
		}
	}
	c.len = 0
	c.tick = 0
}
