package rowhammer

import (
	"fmt"
	"sort"

	"rowhammer/internal/stats"
)

// Spatial-variation measurements (§7): HCfirst across rows, bit-flip
// counts across columns, and per-subarray HCfirst statistics.

// RowHC pairs a physical row with its measured HCfirst.
type RowHC struct {
	Row     int
	HCfirst int64
	Found   bool
}

// VulnerableHCs extracts the HCfirst values of rows where flips were
// found, sorted descending (Fig. 11's x-axis ordering).
func VulnerableHCs(rows []RowHC) []float64 {
	var hcs []float64
	for _, r := range rows {
		if r.Found {
			hcs = append(hcs, float64(r.HCfirst))
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(hcs)))
	return hcs
}

// RowVariationSummary holds Obsv. 12's headline statistics: how much
// larger the HCfirst of the P1/P5/P10 rows is than the most vulnerable
// row's.
type RowVariationSummary struct {
	MinHC                        float64
	RatioP99, RatioP95, RatioP90 float64
	Vulnerable                   int
}

// SummarizeRowVariation computes Obsv. 12's ratios: the paper reports
// that 99%/95%/90% of rows exhibit HCfirst ≥1.6×/2.0×/2.2× the
// minimum.
func SummarizeRowVariation(rows []RowHC) (RowVariationSummary, error) {
	hcs := VulnerableHCs(rows)
	if len(hcs) == 0 {
		return RowVariationSummary{}, fmt.Errorf("rowhammer: no vulnerable rows")
	}
	minHC := hcs[len(hcs)-1]
	var s RowVariationSummary
	s.MinHC = minHC
	s.Vulnerable = len(hcs)
	// "99% of rows have HCfirst at least r× the min" ⇔ the 1st
	// percentile (ascending) is r×min.
	asc := make([]float64, len(hcs))
	copy(asc, hcs)
	sort.Float64s(asc)
	s.RatioP99 = stats.Quantile(asc, 0.01) / minHC
	s.RatioP95 = stats.Quantile(asc, 0.05) / minHC
	s.RatioP90 = stats.Quantile(asc, 0.10) / minHC
	return s, nil
}

// ColumnAccumulator tallies bit flips per DRAM array column per chip
// (the Fig. 12 heatmap).
type ColumnAccumulator struct {
	geo Geometry
	// Counts[chip][arrayCol]
	Counts [][]int
}

// NewColumnAccumulator returns an accumulator for the geometry.
func NewColumnAccumulator(g Geometry) *ColumnAccumulator {
	a := &ColumnAccumulator{geo: g}
	a.Counts = make([][]int, g.Chips)
	for i := range a.Counts {
		a.Counts[i] = make([]int, g.ChipRowBits())
	}
	return a
}

// Add tallies one row's flips.
func (a *ColumnAccumulator) Add(fs FlipSet) {
	for _, bit := range fs.Bits {
		chip, col, line := a.geo.BitLocation(bit)
		a.Counts[chip][col*a.geo.ChipWidth+line]++
	}
}

// ZeroColumnFraction returns the fraction of (chip, column) positions
// with no flips at all.
func (a *ColumnAccumulator) ZeroColumnFraction() float64 {
	zero, total := 0, 0
	for _, chip := range a.Counts {
		for _, n := range chip {
			total++
			if n == 0 {
				zero++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// HotColumnFraction returns the fraction of columns with more than
// threshold flips.
func (a *ColumnAccumulator) HotColumnFraction(threshold int) float64 {
	hot, total := 0, 0
	for _, chip := range a.Counts {
		for _, n := range chip {
			total++
			if n > threshold {
				hot++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}

// ColumnVariation computes, per array column, the Fig. 13 metrics:
// the column's relative vulnerability (mean BER over chips normalized
// to the max column) and the cross-chip coefficient of variation.
func (a *ColumnAccumulator) ColumnVariation() (relVuln, cv []float64) {
	cols := a.geo.ChipRowBits()
	relVuln = make([]float64, cols)
	cv = make([]float64, cols)
	maxMean := 0.0
	for c := 0; c < cols; c++ {
		var vals []float64
		for chip := 0; chip < a.geo.Chips; chip++ {
			vals = append(vals, float64(a.Counts[chip][c]))
		}
		m := stats.Mean(vals)
		relVuln[c] = m
		cvv := stats.CV(vals)
		if cvv > 1 {
			cvv = 1 // the paper saturates CV at 1.0
		}
		cv[c] = cvv
		if m > maxMean {
			maxMean = m
		}
	}
	if maxMean > 0 {
		for c := range relVuln {
			relVuln[c] /= maxMean
		}
	}
	return relVuln, cv
}

// SubarrayStat summarizes one subarray's HCfirst distribution
// (Fig. 14's per-point data).
type SubarrayStat struct {
	Subarray int
	Min, Avg float64
	HCs      []float64
}

// GroupBySubarray splits per-row HCfirst measurements into per-
// subarray statistics.
func GroupBySubarray(g Geometry, rows []RowHC) []SubarrayStat {
	bySub := make(map[int][]float64)
	for _, r := range rows {
		if !r.Found {
			continue
		}
		bySub[g.SubarrayOf(r.Row)] = append(bySub[g.SubarrayOf(r.Row)], float64(r.HCfirst))
	}
	subs := make([]int, 0, len(bySub))
	for s := range bySub {
		subs = append(subs, s)
	}
	sort.Ints(subs)
	var out []SubarrayStat
	for _, s := range subs {
		hcs := bySub[s]
		out = append(out, SubarrayStat{
			Subarray: s,
			Min:      stats.Min(hcs),
			Avg:      stats.Mean(hcs),
			HCs:      hcs,
		})
	}
	return out
}

// FitSubarrayMinVsAvg fits min = slope×avg + intercept across
// subarray statistics (Fig. 14's regression line).
func FitSubarrayMinVsAvg(subs []SubarrayStat) (stats.LinearFit, error) {
	var x, y []float64
	for _, s := range subs {
		x = append(x, s.Avg)
		y = append(y, s.Min)
	}
	return stats.Linear(x, y)
}

// SubarraySimilarity computes the normalized Bhattacharyya
// coefficient between two subarray HCfirst distributions (Fig. 15):
// 1.0 means identical distributions. The histogram bin count adapts to
// the sample size so small profiles aren't dominated by empty-bin
// noise.
func SubarraySimilarity(a, b SubarrayStat) float64 {
	n := len(a.HCs)
	if len(b.HCs) < n {
		n = len(b.HCs)
	}
	bins := n / 3
	if bins < 3 {
		bins = 3
	}
	if bins > 16 {
		bins = 16
	}
	return stats.BhattacharyyaCoefficient(a.HCs, b.HCs, bins)
}
