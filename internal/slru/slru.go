// Package slru is a weighted segmented LRU, the recency discipline shared
// by the service's compiled-program cache and the per-program profile
// store.
package slru

import (
	"container/list"
	"errors"
)

// Cache is a segmented LRU keyed by K. Every admission lands in the
// probationary segment; a hit promotes the entry to the protected segment.
// Eviction drains the probationary tail first, so a storm of one-shot keys
// can only flush probation: entries that have demonstrated reuse stay
// resident. The protected segment is capped at ProtectedShare of each
// budget; overflow demotes its LRU entries back to probation (most
// recently used side), where they must earn another hit to return.
//
// Each entry carries a weight, and eviction runs while the cache exceeds
// the entry-count cap or the total weight budget. One heavy entry can
// displace many light ones, but never itself: the entry just admitted
// always stays, even when it alone exceeds the budget.
//
// A Cache is not safe for concurrent use; its owner holds a lock around
// every call.
type Cache[K comparable, V any] struct {
	max, maxWeight int // caps; 0 = unlimited
	weight         int
	protWeight     int
	// probation and protected are the recency lists (front = most recently
	// used) of *entry values; index covers both.
	probation, protected list.List
	index                map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key       K
	val       V
	weight    int
	protected bool // which segment the entry lives in
}

// ProtectedShare is the fraction of each budget (entries and weight) the
// protected segment may hold — the classic SLRU ~80/20 split.
const ProtectedShare = 0.8

// New returns an empty cache capped at max entries and maxWeight total
// weight; a zero cap is unlimited.
func New[K comparable, V any](max, maxWeight int) *Cache[K, V] {
	return &Cache[K, V]{max: max, maxWeight: maxWeight, index: make(map[K]*list.Element)}
}

// over reports whether n exceeds share of budget (never, for an unlimited
// budget).
func over(n, budget int, share float64) bool {
	return budget > 0 && n > max(int(share*float64(budget)), 1)
}

// Get returns the value for k. A hit in probation promotes the entry to
// the protected segment; a protected hit refreshes its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.index[k]
	if !ok {
		var zero V
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if e.protected {
		c.protected.MoveToFront(el)
		return e.val, true
	}
	c.probation.Remove(el)
	e.protected = true
	c.index[k] = c.protected.PushFront(e)
	c.protWeight += e.weight
	c.demoteOverflow()
	return e.val, true
}

// Peek returns the value for k without touching recency or segment state.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	if el, ok := c.index[k]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// demoteOverflow moves protected LRU entries back to probation while the
// protected segment is over its share of either cap. A lone protected
// entry is never demoted: with nothing to make room for, the churn would
// only strip its protection.
func (c *Cache[K, V]) demoteOverflow() {
	for c.protected.Len() > 1 &&
		(over(c.protected.Len(), c.max, ProtectedShare) || over(c.protWeight, c.maxWeight, ProtectedShare)) {
		el := c.protected.Back()
		c.protected.Remove(el)
		e := el.Value.(*entry[K, V])
		e.protected = false
		c.protWeight -= e.weight
		c.index[e.key] = c.probation.PushFront(e)
	}
}

// Add inserts k with value v and weight w, or refreshes an existing
// entry's value and weight in place (same segment, renewed recency). A new
// entry evicts while the cache is over a cap — probationary tail first,
// protected tail only when probation holds nothing but the new entry.
// Returns the number of evictions.
func (c *Cache[K, V]) Add(k K, v V, w int) int {
	if el, ok := c.index[k]; ok {
		e := el.Value.(*entry[K, V])
		c.weight += w - e.weight
		if e.protected {
			c.protWeight += w - e.weight
			c.protected.MoveToFront(el)
		} else {
			c.probation.MoveToFront(el)
		}
		e.val, e.weight = v, w
		c.demoteOverflow()
		return 0
	}
	newEl := c.probation.PushFront(&entry[K, V]{key: k, val: v, weight: w})
	c.index[k] = newEl
	c.weight += w
	evicted := 0
	for c.Len() > 1 && (over(c.Len(), c.max, 1) || over(c.weight, c.maxWeight, 1)) {
		victim := c.probation.Back()
		if victim == newEl {
			victim = c.protected.Back()
		}
		c.evict(victim)
		evicted++
	}
	return evicted
}

// evict removes one element from whichever segment holds it.
func (c *Cache[K, V]) evict(el *list.Element) {
	e := el.Value.(*entry[K, V])
	if e.protected {
		c.protected.Remove(el)
		c.protWeight -= e.weight
	} else {
		c.probation.Remove(el)
	}
	delete(c.index, e.key)
	c.weight -= e.weight
}

// FlushProbation evicts the whole probationary segment — what a scan
// flood does to a plain LRU — and returns the number of evictions.
func (c *Cache[K, V]) FlushProbation() int {
	n := c.probation.Len()
	for c.probation.Len() > 0 {
		c.evict(c.probation.Back())
	}
	return n
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.probation.Len() + c.protected.Len() }

// Weight reports the summed weight of the entries.
func (c *Cache[K, V]) Weight() int { return c.weight }

// Segments reports the probation and protected entry counts and the
// protected weight.
func (c *Cache[K, V]) Segments() (probation, protected, protWeight int) {
	return c.probation.Len(), c.protected.Len(), c.protWeight
}

// Each calls f on every value in recency order, protected segment first,
// without touching recency, until f returns false.
func (c *Cache[K, V]) Each(f func(V) bool) {
	for _, l := range []*list.List{&c.protected, &c.probation} {
		for el := l.Front(); el != nil; el = el.Next() {
			if !f(el.Value.(*entry[K, V]).val) {
				return
			}
		}
	}
}

// Check re-derives the bookkeeping from scratch and reports the first
// violation: the index must cover exactly the two lists, every entry's
// segment flag must match its list, and the weights must re-add.
func (c *Cache[K, V]) Check() error {
	seen, weight, protWeight := 0, 0, 0
	for _, l := range []*list.List{&c.probation, &c.protected} {
		for el := l.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry[K, V])
			if e.protected != (l == &c.protected) || c.index[e.key] != el {
				return errors.New("slru: entry misfiled in segments or index")
			}
			seen++
			weight += e.weight
			if e.protected {
				protWeight += e.weight
			}
		}
	}
	if seen != len(c.index) || weight != c.weight || protWeight != c.protWeight {
		return errors.New("slru: index size or weights out of sync with the segments")
	}
	return nil
}
