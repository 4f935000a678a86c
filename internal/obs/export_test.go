package obs

// AddQuarantined bumps the quarantined-file count for damage found
// after boot.
func (s *SnapshotState) AddQuarantined(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantined += n
}
