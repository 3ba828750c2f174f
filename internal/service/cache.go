package service

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"psgc"
	"psgc/internal/gclang"
	"psgc/internal/obs"
	"psgc/internal/slru"
)

// cacheKey identifies a compiled program: the hash of its source text plus
// the collector it is linked against.
type cacheKey struct {
	hash [sha256.Size]byte
	col  psgc.Collector
}

func keyFor(src string, col psgc.Collector) cacheKey {
	return cacheKey{hash: sha256.Sum256([]byte(src)), col: col}
}

// SourceHash returns the hex source hash the service reports to clients,
// so repeat submissions can be correlated with cache behavior.
func SourceHash(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// compiledCache is a segmented LRU (internal/slru) of ready-to-run
// compiled programs, each weighted by the AST size of its elaborated λGC
// program (gclang.ProgramSize). A *psgc.Compiled is immutable, so one entry
// may be handed to any number of concurrent workers; the lock only guards
// the bookkeeping.
type compiledCache struct {
	mu  sync.Mutex
	lru *slru.Cache[cacheKey, cached]
}

type cached struct {
	compiled *psgc.Compiled
	// pipeline holds the phase spans of the compile that produced the
	// entry, so traced cache hits can still report what the compile cost.
	pipeline []obs.PhaseSpan
}

func newCompiledCache(max, maxWeight int) *compiledCache {
	return &compiledCache{lru: slru.New[cacheKey, cached](max, maxWeight)}
}

// get returns the cached program and its compile spans for the key,
// promoting a probationary hit to the protected segment.
func (c *compiledCache) get(k cacheKey) (*psgc.Compiled, []obs.PhaseSpan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(k)
	return e.compiled, e.pipeline, ok
}

// peek returns the cached program for the key without touching recency or
// segment state, so fleet peer-export traffic cannot promote entries into
// the protected segment (or keep one-shot programs alive past their turn).
func (c *compiledCache) peek(k cacheKey) (*psgc.Compiled, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Peek(k)
	return e.compiled, ok
}

// add inserts (or refreshes) an entry and returns the number of evictions.
func (c *compiledCache) add(k cacheKey, compiled *psgc.Compiled, pipeline []obs.PhaseSpan) int {
	w := gclang.ProgramSize(compiled.Prog)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Add(k, cached{compiled: compiled, pipeline: pipeline}, w)
}

// storm flushes the entire probationary segment — the cache.evict fault:
// a scan flood arrives and every entry without demonstrated reuse goes.
// Protected entries survive, which is the property the SLRU buys. Returns
// the number of evictions.
func (c *compiledCache) storm() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.FlushProbation()
}

// len reports the number of cached programs.
func (c *compiledCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// totalWeight reports the summed ProgramSize weight of the cached programs.
func (c *compiledCache) totalWeight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Weight()
}

// segments reports (probation entries, protected entries, protected
// weight) for /healthz and the coherence checks in the chaos suite.
func (c *compiledCache) segments() (probation, protected, protWeight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Segments()
}

// coherent re-derives the SLRU invariants from scratch and reports the
// first violation, for the chaos suite.
func (c *compiledCache) coherent() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Check()
}

// flightGroup coalesces concurrent compiles of the same key (singleflight):
// when two requests miss the cache on one (source hash, collector) at the
// same time, only the first runs the pipeline; the rest wait for its
// result. Errors propagate to every waiter but are not retained — the next
// request after the flight lands retries the compile.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[cacheKey]*flightCall
}

type flightCall struct {
	done     chan struct{}
	compiled *psgc.Compiled
	pipeline []obs.PhaseSpan
	err      error
}

// do runs fn once per key among concurrent callers. coalesced reports
// whether this caller waited on another caller's fn instead of running it.
func (g *flightGroup) do(k cacheKey, fn func() (*psgc.Compiled, []obs.PhaseSpan, error)) (c *psgc.Compiled, pipeline []obs.PhaseSpan, err error, coalesced bool) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = map[cacheKey]*flightCall{}
	}
	if call, ok := g.inflight[k]; ok {
		g.mu.Unlock()
		<-call.done
		return call.compiled, call.pipeline, call.err, true
	}
	call := &flightCall{done: make(chan struct{})}
	g.inflight[k] = call
	g.mu.Unlock()

	call.compiled, call.pipeline, call.err = fn()

	g.mu.Lock()
	delete(g.inflight, k)
	g.mu.Unlock()
	close(call.done)
	return call.compiled, call.pipeline, call.err, false
}
