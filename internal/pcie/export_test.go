package pcie

// ResetStats zeroes the usage counters.
func (b *Bus) ResetStats() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats = Stats{}
}
