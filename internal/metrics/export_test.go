package metrics

// BucketCounts returns the per-bucket (non-cumulative) counts, the
// last entry being the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...)
}

// Reset zeroes every instrument's value (registrations stay), so a
// test can start from a clean slate.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.ins {
		switch m := in.(type) {
		case *Counter:
			m.v.Store(0)
		case *Gauge:
			m.Set(0)
		case *Histogram:
			m.mu.Lock()
			for i := range m.counts {
				m.counts[i] = 0
			}
			m.exemplars = nil
			m.sum, m.n = 0, 0
			m.mu.Unlock()
		}
	}
}
