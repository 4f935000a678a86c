package transform

// ResetCache drops every cached entry and zeroes the hit/miss
// counters, leaving the enabled flag as is.
func ResetCache() {
	enumCache.mu.Lock()
	defer enumCache.mu.Unlock()
	enumCache.entries = make(map[string]*entry)
	enumCache.order = nil
	enumCache.hits, enumCache.misses = 0, 0
}
