// Content-addressed memoization of the transformation-space
// exploration.
//
// Enumerate is pure: its output depends only on the kernel's content
// and the target architecture, yet before this cache existed it was
// recomputed for every projection request — the daemon re-parses
// skeletons per request, so pointer identity never carries across
// requests, but content identity does. The cache keys entries by the
// kernel's canonical content encoding (skeleton.Kernel.AppendCanonical)
// plus the full architecture value, and stores both the enumerated
// variant set and, lazily, the analytically best variant — so a warm
// request skips the enumeration *and* the per-candidate projection.
//
// Correctness argument: a key hit means the previous kernel had
// byte-identical canonical content, which implies deeply equal
// analysis inputs, which (Enumerate being deterministic) implies
// deeply equal variants. There is no fingerprint truncation anywhere —
// keys are the full encodings — so collisions are impossible rather
// than improbable. The property tests in cache_test.go assert
// memoized == cold across seeded random skeletons, and the golden
// harness pins reports byte-identical with the cache on and off.
package transform

import (
	"fmt"
	"sync"

	"grophecy/internal/gpu"
	"grophecy/internal/metrics"
	"grophecy/internal/perfmodel"
	"grophecy/internal/skeleton"
)

var (
	mCacheHits = metrics.Default.MustCounter("transform_cache_hits_total",
		"enumeration cache hits")
	mCacheMisses = metrics.Default.MustCounter("transform_cache_misses_total",
		"enumeration cache misses")
	mCacheEvictions = metrics.Default.MustCounter("transform_cache_evictions_total",
		"enumeration cache entries evicted at capacity")
)

// maxCacheEntries bounds the cache. An entry is a few KB (typically
// 18-36 variants); the bound keeps a daemon serving many distinct
// skeletons at a few MB of cache, evicted FIFO.
const maxCacheEntries = 512

// entry is one memoized enumeration. variants is immutable after
// insertion — readers receive clones. The best-variant projection is
// filled lazily by Best under mu; racing fills compute identical
// values, so last-write-wins is deterministic.
type entry struct {
	variants []Variant

	mu      sync.Mutex
	bestOK  bool
	bestIdx int
	best    perfmodel.Projection
}

// cache is the package-global memo table. Key strings embed the
// kernel canonical encoding and the architecture rendering.
type cache struct {
	mu      sync.Mutex
	enabled bool
	entries map[string]*entry
	order   []string // FIFO eviction order
	hits    int64
	misses  int64
}

var enumCache = &cache{enabled: true, entries: make(map[string]*entry)}

// keyBufPool recycles key-building buffers across requests.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// cacheKey renders the full (kernel content, architecture) key into
// buf. The architecture is rendered with %#v so any future Arch field
// automatically becomes part of the key instead of silently aliasing
// entries.
func cacheKey(buf []byte, k *skeleton.Kernel, arch gpu.Arch) []byte {
	buf = k.AppendCanonical(buf)
	buf = append(buf, '@')
	return fmt.Appendf(buf, "%#v", arch)
}

// lookup returns the entry for key, or nil.
func (c *cache) lookup(key []byte) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return nil
	}
	e := c.entries[string(key)] // no-copy lookup
	if e != nil {
		c.hits++
		mCacheHits.Inc()
	}
	return e
}

// insert stores a computed entry, evicting the oldest entries at
// capacity. Returns the entry that ends up cached for the key (an
// earlier racing insert wins, keeping best-variant memoization on one
// object).
func (c *cache) insert(key []byte, e *entry) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	mCacheMisses.Inc()
	if !c.enabled {
		return e
	}
	if prev, ok := c.entries[string(key)]; ok {
		return prev
	}
	ks := string(key)
	for len(c.order) >= maxCacheEntries {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		mCacheEvictions.Inc()
	}
	c.entries[ks] = e
	c.order = append(c.order, ks)
	return e
}

// CacheStats is a point-in-time snapshot of the enumeration cache.
type CacheStats struct {
	Hits, Misses int64
	Entries      int
	Enabled      bool
}

// Stats returns the current cache counters.
func Stats() CacheStats {
	enumCache.mu.Lock()
	defer enumCache.mu.Unlock()
	return CacheStats{
		Hits:    enumCache.hits,
		Misses:  enumCache.misses,
		Entries: len(enumCache.entries),
		Enabled: enumCache.enabled,
	}
}

// SetCacheEnabled switches the memoization on or off (it is on by
// default) and reports the previous setting. Disabling also clears
// the cache. Intended for tests proving memoized == cold.
func SetCacheEnabled(on bool) bool {
	enumCache.mu.Lock()
	defer enumCache.mu.Unlock()
	prev := enumCache.enabled
	enumCache.enabled = on
	if !on {
		enumCache.entries = make(map[string]*entry)
		enumCache.order = nil
	}
	return prev
}

// cloneVariants returns a defensive copy: cached variant slices are
// immutable, callers own their return values.
func cloneVariants(vs []Variant) []Variant {
	out := make([]Variant, len(vs))
	copy(out, vs)
	return out
}

// cachedEntry returns the memo entry for (k, arch), computing and
// inserting it on a miss. With the cache disabled it computes a
// transient entry. The returned entry's variants must not be mutated.
func cachedEntry(k *skeleton.Kernel, arch gpu.Arch) (*entry, error) {
	bufp := keyBufPool.Get().(*[]byte)
	key := cacheKey((*bufp)[:0], k, arch)
	if e := enumCache.lookup(key); e != nil {
		*bufp = key[:0]
		keyBufPool.Put(bufp)
		return e, nil
	}
	variants, err := enumerate(k, arch)
	if err != nil {
		*bufp = key[:0]
		keyBufPool.Put(bufp)
		return nil, err
	}
	e := enumCache.insert(key, &entry{variants: variants, bestIdx: -1})
	*bufp = key[:0]
	keyBufPool.Put(bufp)
	return e, nil
}
