package units

// MiB returns n mebibytes as a byte count.
func MiB(n float64) int64 { return int64(n * float64(MB)) }

// BytesToMB converts a byte count to mebibytes as a float.
func BytesToMB(n int64) float64 { return float64(n) / float64(MB) }
