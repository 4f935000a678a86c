package gpu

// MaxWarpsPerSM returns the architecture's warp-occupancy ceiling.
func (a Arch) MaxWarpsPerSM() int { return a.MaxThreadsPerSM / a.WarpSize }

// PeakGFLOPS returns the theoretical single-precision peak assuming
// one fused multiply-add per SP per cycle (2 flops).
func (a Arch) PeakGFLOPS() float64 {
	spsPerSM := float64(a.WarpSize) / a.IssueCyclesPerWarpInst
	return float64(a.SMs) * spsPerSM * a.CoreClock * 2 / 1e9
}
