// Package stats provides the small statistical toolkit used throughout
// the GROPHECY++ evaluation: means, error magnitudes, linear
// regression, and run summaries.
//
// The paper's headline metric is the "error magnitude": the absolute
// value of the percent difference between a predicted and a measured
// value (§V-A). ErrorMagnitude implements exactly that definition and
// is used by every experiment in internal/experiments.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrMismatchedLengths is returned by functions that require paired
// samples of equal length.
var ErrMismatchedLengths = errors.New("stats: mismatched sample lengths")

// ErrEmpty is returned when an aggregate is requested over no samples.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the smallest element of xs, or +Inf if xs is empty.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf if xs is empty.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs (the mean of the two middle elements
// for even lengths). It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ErrorMagnitude returns the paper's accuracy metric: the absolute
// value of the percent difference between predicted and measured,
// expressed as a fraction (0.08 == 8%). A measured value of zero with
// a nonzero prediction yields +Inf; zero/zero yields 0.
func ErrorMagnitude(predicted, measured float64) float64 {
	if measured == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-measured) / math.Abs(measured)
}

// MeanErrorMagnitude returns the arithmetic mean error magnitude over
// paired predicted/measured samples, as used for the overall model
// validation in §V-A.
func MeanErrorMagnitude(predicted, measured []float64) (float64, error) {
	if len(predicted) != len(measured) {
		return 0, ErrMismatchedLengths
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for i := range predicted {
		sum += ErrorMagnitude(predicted[i], measured[i])
	}
	return sum / float64(len(predicted)), nil
}

// MaxErrorMagnitude returns the largest error magnitude over paired
// samples (the "maximum error" reported for Fig 4).
func MaxErrorMagnitude(predicted, measured []float64) (float64, error) {
	if len(predicted) != len(measured) {
		return 0, ErrMismatchedLengths
	}
	if len(predicted) == 0 {
		return 0, ErrEmpty
	}
	worst := 0.0
	for i := range predicted {
		if e := ErrorMagnitude(predicted[i], measured[i]); e > worst {
			worst = e
		}
	}
	return worst, nil
}

// LinearFit holds the result of an ordinary least squares fit
// y = Intercept + Slope*x.
type LinearFit struct {
	Intercept float64
	Slope     float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// FitLine performs ordinary least squares over paired samples. It is
// the "full regression" ablation against the paper's two-point
// calibration (DESIGN.md §5). At least two points with distinct x are
// required.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, ErrMismatchedLengths
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: degenerate fit, all x equal")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	// R^2 = 1 - SS_res/SS_tot.
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my) * (ys[i] - my)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Intercept: intercept, Slope: slope, R2: r2}, nil
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 {
	return f.Intercept + f.Slope*x
}

// FitMulti solves the ordinary least squares problem y ≈ X·coef for
// an arbitrary feature count: X is one row of feature values per
// observation, and the returned coefficient vector minimizes the sum
// of squared residuals. The solve goes through the normal equations
// (XᵀX)·coef = Xᵀy with Gaussian elimination and partial pivoting —
// the feature counts here are tiny (hardware-fitted prediction
// backends use three), so numerical heroics are unnecessary, but a
// rank-deficient system is still reported as an error rather than
// silently returning garbage.
func FitMulti(rows [][]float64, ys []float64) ([]float64, error) {
	if len(rows) != len(ys) {
		return nil, ErrMismatchedLengths
	}
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	k := len(rows[0])
	if k == 0 {
		return nil, errors.New("stats: FitMulti with zero features")
	}
	if len(rows) < k {
		return nil, errors.New("stats: FitMulti underdetermined, fewer observations than features")
	}
	// Accumulate the normal equations as an augmented [k x k+1] matrix.
	a := make([][]float64, k)
	for i := range a {
		a[i] = make([]float64, k+1)
	}
	for n, row := range rows {
		if len(row) != k {
			return nil, ErrMismatchedLengths
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				a[i][j] += row[i] * row[j]
			}
			a[i][k] += row[i] * ys[n]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		a[col], a[pivot] = a[pivot], a[col]
		if math.Abs(a[col][col]) < 1e-30 {
			return nil, errors.New("stats: degenerate fit, features are linearly dependent")
		}
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= k; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	coef := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		sum := a[i][k]
		for j := i + 1; j < k; j++ {
			sum -= a[i][j] * coef[j]
		}
		coef[i] = sum / a[i][i]
	}
	return coef, nil
}

// Summary aggregates a set of repeated measurements of one quantity.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
	}
}
