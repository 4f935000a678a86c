package rng

// SetState restores a state previously captured with State.
func (s *Stream) SetState(state uint64) { s.state = state }

// State returns the stream's current internal state. Together with
// SetState it lets a test snapshot a stream at a known point and later
// fast-forward a freshly seeded stream to that exact point.
func (s *Stream) State() uint64 { return s.state }

// Fork returns a new Stream whose seed is derived from this stream.
// Use it to hand independent sub-streams to components without manual
// seed bookkeeping.
func (s *Stream) Fork() *Stream {
	return New(s.Uint64())
}
