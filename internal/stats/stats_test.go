package stats

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rowhammer/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{10, 10, 10}); got != 0 {
		t.Fatalf("CV of constant = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV with zero mean = %v, want 0", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CV(xs); !almost(got, 2.0/5.0, 1e-12) {
		t.Fatalf("CV = %v, want 0.4", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Min(nil)
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); !almost(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := rng.NewStream(seed)
		xs := make([]float64, 31)
		for i := range xs {
			xs[i] = s.Float64() * 100
		}
		srt := Sorted(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(srt, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := Median(xs); got != 5 {
		t.Fatalf("Median = %v, want 5", got)
	}
	if got := Percentile(xs, 100); got != 9 {
		t.Fatalf("P100 = %v, want 9", got)
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Sorted(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Sorted mutated input: %v", xs)
	}
}

func TestBoxPlotNoOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 8 {
		t.Fatalf("min/max wrong: %+v", b)
	}
	if b.NOutliers != 0 {
		t.Fatalf("unexpected outliers: %+v", b)
	}
	if b.WhiskerLo != 1 || b.WhiskerHi != 8 {
		t.Fatalf("whiskers should reach extremes: %+v", b)
	}
	if !(b.Q1 <= b.Median && b.Median <= b.Q3) {
		t.Fatalf("quartiles out of order: %+v", b)
	}
}

func TestBoxPlotOutlierDetection(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	b, err := NewBoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.NOutliers != 1 {
		t.Fatalf("want 1 outlier, got %d", b.NOutliers)
	}
	if b.WhiskerHi == 100 {
		t.Fatalf("whisker should not reach outlier: %+v", b)
	}
}

func TestBoxPlotEmpty(t *testing.T) {
	if _, err := NewBoxPlot(nil); err == nil {
		t.Fatal("expected error for empty sample")
	}
}

func TestLetterValuesNesting(t *testing.T) {
	s := rng.NewStream(42)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = s.Normal()
	}
	lv, err := NewLetterValues(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lv.Boxes) < 3 {
		t.Fatalf("expected several boxes for n=500, got %d", len(lv.Boxes))
	}
	for i := 1; i < len(lv.Boxes); i++ {
		inner, outer := lv.Boxes[i-1], lv.Boxes[i]
		if outer[0] > inner[0] || outer[1] < inner[1] {
			t.Fatalf("boxes not nested at depth %d: %v inside %v", i, inner, outer)
		}
	}
	for _, o := range lv.Outliers {
		last := lv.Boxes[len(lv.Boxes)-1]
		if o >= last[0] && o <= last[1] {
			t.Fatalf("outlier %v inside last box %v", o, last)
		}
	}
}

func TestLetterValuesEmpty(t *testing.T) {
	if _, err := NewLetterValues(nil, 5); err == nil {
		t.Fatal("expected error")
	}
}

func TestMeanCI95Shrinks(t *testing.T) {
	s := rng.NewStream(7)
	small := make([]float64, 10)
	large := make([]float64, 1000)
	for i := range small {
		small[i] = s.Normal()
	}
	for i := range large {
		large[i] = s.Normal()
	}
	_, hwSmall := MeanCI95(small)
	_, hwLarge := MeanCI95(large)
	if hwLarge >= hwSmall {
		t.Fatalf("CI should shrink with n: %v vs %v", hwSmall, hwLarge)
	}
	if _, hw := MeanCI95([]float64{1}); hw != 0 {
		t.Fatalf("single-sample CI = %v, want 0", hw)
	}
}

func TestLinearPerfectFit(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 2, 1e-12) || !almost(fit.Intercept, 1, 1e-12) || !almost(fit.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestLinearNoisyFitR2(t *testing.T) {
	s := rng.NewStream(3)
	var x, y []float64
	for i := 0; i < 500; i++ {
		xv := float64(i)
		x = append(x, xv)
		y = append(y, 0.5*xv+10+s.NormalMS(0, 20))
	}
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Slope, 0.5, 0.05) {
		t.Fatalf("slope = %v, want ~0.5", fit.Slope)
	}
	if fit.R2 < 0.7 || fit.R2 > 1 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for n<2")
	}
	if _, err := Linear([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for zero x variance")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
}

func TestHistogramClamping(t *testing.T) {
	h := Histogram([]float64{-10, 0.5, 1.5, 2.5, 99}, 0, 3, 3)
	if h[0] != 2 || h[1] != 1 || h[2] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestHistogram2DPlacement(t *testing.T) {
	g := Histogram2D([]float64{0.1, 0.9, 0.5}, []float64{0.1, 0.9, 0.5}, 0, 1, 2, 0, 1, 2)
	if g[0][0] != 1 || g[1][1] != 2 {
		t.Fatalf("grid = %v", g)
	}
}

func TestBhattacharyyaIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if bc := BhattacharyyaCoefficient(xs, xs, 8); !almost(bc, 1, 1e-12) {
		t.Fatalf("self coefficient = %v, want 1", bc)
	}
}

func TestBhattacharyyaDisjoint(t *testing.T) {
	a := []float64{0, 0.1, 0.2}
	b := []float64{10, 10.1, 10.2}
	if bc := BhattacharyyaCoefficient(a, b, 16); bc != 0 {
		t.Fatalf("disjoint coefficient = %v, want 0", bc)
	}
}

func TestBhattacharyyaSimilarityOrdering(t *testing.T) {
	s := rng.NewStream(11)
	base := make([]float64, 2000)
	near := make([]float64, 2000)
	far := make([]float64, 2000)
	for i := range base {
		base[i] = s.Normal()
		near[i] = s.NormalMS(0.2, 1)
		far[i] = s.NormalMS(3, 1)
	}
	bcNear := BhattacharyyaCoefficient(base, near, 32)
	bcFar := BhattacharyyaCoefficient(base, far, 32)
	if !(bcNear > bcFar) {
		t.Fatalf("similarity ordering violated: near=%v far=%v", bcNear, bcFar)
	}
	if bcNear <= 0.8 {
		t.Fatalf("near distributions should have high BC, got %v", bcNear)
	}
}

func TestBhattacharyyaPointMass(t *testing.T) {
	if bc := BhattacharyyaCoefficient([]float64{5, 5}, []float64{5, 5, 5}, 8); bc != 1 {
		t.Fatalf("point-mass coefficient = %v, want 1", bc)
	}
}

func TestCrossingPercentile(t *testing.T) {
	xs := []float64{5, 3, 1, -1, -2, -3, -4, -5, -6, -7}
	if got := CrossingPercentile(xs); got != 30 {
		t.Fatalf("crossing = %v, want 30", got)
	}
	if got := CrossingPercentile(nil); got != 0 {
		t.Fatalf("crossing(nil) = %v", got)
	}
}

func TestCumulativeMagnitude(t *testing.T) {
	if got := CumulativeMagnitude([]float64{-1, 2, -3}); got != 6 {
		t.Fatalf("cumulative magnitude = %v, want 6", got)
	}
}

func TestQuantilePropertyBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, qRaw uint8) bool {
		s := rng.NewStream(seed)
		n := 1 + s.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Float64()
		}
		srt := Sorted(xs)
		q := float64(qRaw) / 255
		v := Quantile(srt, q)
		return v >= srt[0] && v <= srt[n-1]
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeOrderIndependent(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 2, 8, 3, 6, 5}
	ys := []float64{5, 6, 3, 8, 2, 7, 4, 1, 9}
	a, b := Summarize(xs), Summarize(ys)
	if a != b {
		t.Fatalf("summaries differ by sample order: %+v vs %+v", a, b)
	}
	if a.N != 9 || a.Min != 1 || a.Max != 9 || a.Median != 5 || a.Mean != 5 {
		t.Fatalf("unexpected summary %+v", a)
	}
	if a.P25 > a.Median || a.Median > a.P75 || a.P75 > a.P90 || a.P90 > a.P99 {
		t.Fatalf("percentiles not monotone: %+v", a)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); got != (Summary{}) {
		t.Fatalf("empty sample should give zero summary, got %+v", got)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	in := Summarize([]float64{1, 2, 3, 4, 100})
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"n":`, `"mean":`, `"p25":`, `"p50":`, `"p90":`, `"p99":`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("marshalled summary %s missing key %s", b, key)
		}
	}
	var out Summary
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestSummarizeInts(t *testing.T) {
	got := SummarizeInts([]int{3, 1, 2})
	want := Summarize([]float64{1, 2, 3})
	if got != want {
		t.Fatalf("SummarizeInts = %+v, want %+v", got, want)
	}
	if SummarizeInts(nil) != (Summary{}) {
		t.Fatal("empty int sample should give zero summary")
	}
}
