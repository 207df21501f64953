// Package stats implements the descriptive and comparative statistics
// used throughout the RowHammer characterization study: percentiles,
// Tukey box-plot statistics, letter-value (boxen) statistics,
// coefficient of variation, confidence intervals, linear regression
// with R², histograms, and the Bhattacharyya coefficient between
// empirical distributions (used by the subarray-similarity analysis,
// Fig. 15).
package stats

import (
	"encoding/json"
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty
// sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (denominator n), or 0
// for fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean) of xs.
// It returns 0 when the mean is 0 (conventional for all-zero samples;
// the study treats columns with zero flips as zero-variation).
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sorted returns a sorted copy of xs.
func Sorted(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	sort.Float64s(out)
	return out
}

// Quantile returns the q-quantile (q in [0,1]) of the *sorted* sample
// using linear interpolation between order statistics (type-7, the
// default of R/numpy, matching the paper's plotting stack).
// It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic(ErrEmpty)
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Percentile returns the p-th percentile (p in [0,100]) of an unsorted
// sample.
func Percentile(xs []float64, p float64) float64 {
	return Quantile(Sorted(xs), p/100)
}

// Median returns the median of an unsorted sample.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// BoxPlot holds Tukey box-plot statistics: quartiles plus whiskers at
// 1.5×IQR, as used by Figs. 7 and 9.
type BoxPlot struct {
	Min, WhiskerLo, Q1, Median, Q3, WhiskerHi, Max float64
	NOutliers                                      int
}

// NewBoxPlot computes box-plot statistics for xs.
func NewBoxPlot(xs []float64) (BoxPlot, error) {
	if len(xs) == 0 {
		return BoxPlot{}, ErrEmpty
	}
	s := Sorted(xs)
	var b BoxPlot
	b.Min = s[0]
	b.Max = s[len(s)-1]
	b.Q1 = Quantile(s, 0.25)
	b.Median = Quantile(s, 0.5)
	b.Q3 = Quantile(s, 0.75)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.WhiskerLo = b.Max
	b.WhiskerHi = b.Min
	for _, x := range s {
		if x >= loFence && x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x <= hiFence && x > b.WhiskerHi {
			b.WhiskerHi = x
		}
		if x < loFence || x > hiFence {
			b.NOutliers++
		}
	}
	return b, nil
}

// LetterValues holds letter-value ("boxen") plot statistics as used by
// Figs. 8 and 10: successive octile/hexadecile boxes out to the
// outlier fraction.
type LetterValues struct {
	Median float64
	// Boxes[k] is the pair (lower, upper) at depth k: k=0 is the
	// quartile box, k=1 the octile box, and so on.
	Boxes [][2]float64
	// Outliers are the extreme values beyond the last box.
	Outliers []float64
}

// NewLetterValues computes letter-value statistics, emitting boxes
// while each tail still contains at least minTail observations
// (Hofmann et al. use a rule tied to outlier proportion; minTail=5 is a
// practical equivalent for our sample sizes).
func NewLetterValues(xs []float64, minTail int) (LetterValues, error) {
	if len(xs) == 0 {
		return LetterValues{}, ErrEmpty
	}
	if minTail < 1 {
		minTail = 1
	}
	s := Sorted(xs)
	lv := LetterValues{Median: Quantile(s, 0.5)}
	n := len(s)
	tail := 0.25
	for {
		if float64(n)*tail < float64(minTail) {
			break
		}
		lo := Quantile(s, tail)
		hi := Quantile(s, 1-tail)
		lv.Boxes = append(lv.Boxes, [2]float64{lo, hi})
		tail /= 2
	}
	if len(lv.Boxes) > 0 {
		last := lv.Boxes[len(lv.Boxes)-1]
		for _, x := range s {
			if x < last[0] || x > last[1] {
				lv.Outliers = append(lv.Outliers, x)
			}
		}
	}
	return lv, nil
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval (normal approximation, as in Fig. 4's error
// bars).
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	// Sample (n-1) standard deviation for the CI.
	m := mean
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	sd := math.Sqrt(s / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n))
}

// LinearFit holds an ordinary-least-squares fit y = Slope*x + Intercept
// with its coefficient of determination (R²), as annotated in Fig. 14.
type LinearFit struct {
	Slope, Intercept, R2 float64
	N                    int
}

// Linear fits y = a*x + b by least squares. It returns an error when
// fewer than two points are given or x has zero variance.
func Linear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, errors.New("stats: mismatched sample lengths")
	}
	n := len(x)
	if n < 2 {
		return LinearFit{}, errors.New("stats: need at least two points")
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: x has zero variance")
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy == 0 {
		fit.R2 = 1
	} else {
		ssRes := 0.0
		for i := range x {
			r := y[i] - (fit.Slope*x[i] + fit.Intercept)
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/syy
	}
	return fit, nil
}

// Histogram counts xs into nBins equal-width bins over [lo, hi].
// Values outside the range are clamped into the edge bins (the study's
// 2-D histograms saturate CV at 1.0 the same way).
func Histogram(xs []float64, lo, hi float64, nBins int) []int {
	if nBins <= 0 {
		panic("stats: non-positive bin count")
	}
	counts := make([]int, nBins)
	if hi <= lo {
		panic("stats: invalid histogram range")
	}
	w := (hi - lo) / float64(nBins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	return counts
}

// Histogram2D bins paired samples (x into nx bins over [xlo,xhi], y
// into ny bins over [ylo,yhi]), clamping out-of-range values into edge
// bins. The result is indexed [yi][xi].
func Histogram2D(x, y []float64, xlo, xhi float64, nx int, ylo, yhi float64, ny int) [][]int {
	if len(x) != len(y) {
		panic("stats: mismatched 2-D histogram samples")
	}
	if nx <= 0 || ny <= 0 || xhi <= xlo || yhi <= ylo {
		panic("stats: invalid 2-D histogram configuration")
	}
	grid := make([][]int, ny)
	for i := range grid {
		grid[i] = make([]int, nx)
	}
	wx := (xhi - xlo) / float64(nx)
	wy := (yhi - ylo) / float64(ny)
	clamp := func(b, n int) int {
		if b < 0 {
			return 0
		}
		if b >= n {
			return n - 1
		}
		return b
	}
	for i := range x {
		xi := clamp(int((x[i]-xlo)/wx), nx)
		yi := clamp(int((y[i]-ylo)/wy), ny)
		grid[yi][xi]++
	}
	return grid
}

// BhattacharyyaCoefficient returns the Bhattacharyya coefficient
// BC = sum sqrt(p q) in [0, 1] over a shared binning. The paper's
// Fig. 15 normalizes BD(Sa,Sb) by BD(Sa,Sa); since a discrete self-
// distance is 0, the implementable equivalent is to normalize the
// *coefficient*: BDnorm = BC(Sa,Sb)/BC(Sa,Sa) = BC(Sa,Sb), which is
// 1.0 for identical distributions and decreases with dissimilarity,
// matching the figure's semantics.
func BhattacharyyaCoefficient(a, b []float64, nBins int) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic(ErrEmpty)
	}
	lo := math.Min(Min(a), Min(b))
	hi := math.Max(Max(a), Max(b))
	if hi == lo {
		return 1
	}
	ha := Histogram(a, lo, hi, nBins)
	hb := Histogram(b, lo, hi, nBins)
	bc := 0.0
	na, nb := float64(len(a)), float64(len(b))
	for i := range ha {
		bc += math.Sqrt(float64(ha[i]) / na * float64(hb[i]) / nb)
	}
	if bc > 1 {
		bc = 1
	}
	return bc
}

// Summary holds the descriptive statistics the fleet campaign engine
// reports for a metric population. It is computed from a sorted copy
// of the sample, which makes it independent of the order samples were
// collected in — the property the campaign checkpoint/resume machinery
// relies on for bit-identical aggregates.
type Summary struct {
	N                int
	Mean             float64
	Min              float64
	P25, Median, P75 float64
	P90, P99         float64
	Max              float64
}

// jsonSummary mirrors Summary with every percentile exported; Summary
// keeps short field names for Go callers and this keeps stable JSON
// keys in snake case.
type jsonSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	P25    float64 `json:"p25"`
	Median float64 `json:"p50"`
	P75    float64 `json:"p75"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

// MarshalJSON emits the summary with stable snake-case keys.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonSummary{
		N: s.N, Mean: s.Mean, Min: s.Min, P25: s.P25, Median: s.Median,
		P75: s.P75, P90: s.P90, P99: s.P99, Max: s.Max,
	})
}

// UnmarshalJSON parses the stable snake-case form.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var j jsonSummary
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Summary{
		N: j.N, Mean: j.Mean, Min: j.Min, P25: j.P25, Median: j.Median,
		P75: j.P75, P90: j.P90, P99: j.P99, Max: j.Max,
	}
	return nil
}

// Summarize computes order-independent descriptive statistics of xs.
// The zero Summary is returned for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Sorted(xs)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		Min:    s[0],
		P25:    Quantile(s, 0.25),
		Median: Quantile(s, 0.50),
		P75:    Quantile(s, 0.75),
		P90:    Quantile(s, 0.90),
		P99:    Quantile(s, 0.99),
		Max:    s[len(s)-1],
	}
}

// SummarizeInts summarizes an integer sample — e.g. the per-job
// attempt counts the campaign engine's coverage accounting reports.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// CrossingPercentile returns the percentage of values that are > 0,
// i.e. the percentile at which a sorted-descending curve of the values
// crosses zero — the Px annotation of Fig. 5.
func CrossingPercentile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := 0
	for _, x := range xs {
		if x > 0 {
			pos++
		}
	}
	return 100 * float64(pos) / float64(len(xs))
}

// CumulativeMagnitude returns the sum of absolute values, the paper's
// "cumulative magnitude change" metric from Obsv. 7.
func CumulativeMagnitude(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s
}
