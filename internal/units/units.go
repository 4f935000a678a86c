// Package units provides byte-size and time helpers shared across the
// GROPHECY++ simulators and models.
//
// All simulator-internal times are plain float64 seconds: the models
// multiply and divide times by sizes and rates constantly, and float64
// seconds avoids the truncation and overflow pitfalls of time.Duration
// arithmetic. Conversion to time.Duration happens only at display
// boundaries.
package units

import (
	"fmt"
	"time"
)

// Byte-size constants, powers of two as used throughout the paper
// (transfer sweeps run over power-of-two sizes from 1 B to 512 MB).
const (
	B  int64 = 1
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
)

// Time unit constants in seconds.
const (
	Nanosecond  = 1e-9
	Microsecond = 1e-6
	Millisecond = 1e-3
	Second      = 1.0
)

// Duration converts a time in seconds to a time.Duration.
func Duration(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// Seconds converts a time.Duration to float64 seconds.
func Seconds(d time.Duration) float64 {
	return d.Seconds()
}

// FormatBytes renders a byte count in the most natural binary unit,
// e.g. "512MB", "2KB", "17B". Sizes that are not whole in the chosen
// unit get one decimal place.
func FormatBytes(n int64) string {
	switch {
	case n >= GB:
		return formatUnit(n, GB, "GB")
	case n >= MB:
		return formatUnit(n, MB, "MB")
	case n >= KB:
		return formatUnit(n, KB, "KB")
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func formatUnit(n, unit int64, suffix string) string {
	if n%unit == 0 {
		return fmt.Sprintf("%d%s", n/unit, suffix)
	}
	return fmt.Sprintf("%.1f%s", float64(n)/float64(unit), suffix)
}

// FormatSeconds renders a time in seconds with an auto-selected unit:
// "1.9ms", "10.3us", "4.0s".
func FormatSeconds(s float64) string {
	abs := s
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1:
		return fmt.Sprintf("%.3gs", s)
	case abs >= Millisecond:
		return fmt.Sprintf("%.3gms", s/Millisecond)
	case abs >= Microsecond:
		return fmt.Sprintf("%.3gus", s/Microsecond)
	default:
		return fmt.Sprintf("%.3gns", s/Nanosecond)
	}
}

// GBps converts a bandwidth in GB/s (decimal gigabytes, as quoted in
// hardware data sheets and the paper) to bytes per second.
func GBps(gb float64) float64 { return gb * 1e9 }
