package stats

import (
	"math"
)

// MeanChecked is Mean with an explicit error for the empty case.
func MeanChecked(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Mean(xs), nil
}

// GeoMean returns the geometric mean of xs. All values must be
// positive; non-positive values yield NaN, mirroring math.Log.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// CV returns the coefficient of variation (stddev/mean), a unitless
// noise measure; 0 if the mean is 0.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}
