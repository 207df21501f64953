package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/stats"
)

// fig11Rows is the per-module victim budget for the row-variation
// profile.
const fig11Rows = 40

// fig11Mfr profiles one manufacturer's row HCfirst distribution.
func fig11Mfr(cfg Config, mfr string) ([][]float64, rh.RowVariationSummary, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, rh.RowVariationSummary{}, err
	}
	rows := sampleRows(cfg, fig11Rows)
	var curves [][]float64
	var all []rh.RowHC
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return nil, rh.RowVariationSummary{}, err
		}
		profile, err := t.RowHCFirstProfileCtx(cfg.Ctx, 0, rows, rh.HCFirstConfig{
			Pattern: pat, MaxHammers: cfg.Scale.MaxHammers,
		}, cfg.Scale.Repetitions)
		if err != nil {
			return nil, rh.RowVariationSummary{}, err
		}
		curves = append(curves, rh.VulnerableHCs(profile))
		all = append(all, profile...)
	}
	summary, err := rh.SummarizeRowVariation(all)
	return curves, summary, err
}

// fig11Shard measures one manufacturer's Fig. 11 profile.
func fig11Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	curves, s, err := fig11Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("min_hc", s.MinHC).Set("ratio_p99", s.RatioP99).
		Set("ratio_p95", s.RatioP95).Set("ratio_p90", s.RatioP90).
		SetInt("vulnerable", int64(s.Vulnerable)).SetInt("modules", int64(len(curves)))
	for mi, curve := range curves {
		a.AddSeries(fmt.Sprintf("%s/curve/m=%02d", mfrKey(mfr), mi), curve)
	}
	return a, nil
}

// renderFig11 prints the Fig. 11 percentile curves and Obsv. 12 ratios.
func renderFig11(out io.Writer, a *artifact.Artifact) error {
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: fig11 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(out, "Mfr. %s: min HCfirst %.0f; P99/P95/P90 ratios %.1fx/%.1fx/%.1fx (%d vulnerable rows)\n",
			mfr, r.V("min_hc"), r.V("ratio_p99"), r.V("ratio_p95"), r.V("ratio_p90"), r.Int("vulnerable"))
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "module\tP1\tP25\tP50\tP75\tP99")
		for mi := 0; mi < int(r.Int("modules")); mi++ {
			curve := a.SeriesPoints(fmt.Sprintf("%s/curve/m=%02d", mfrKey(mfr), mi))
			if len(curve) == 0 {
				continue
			}
			asc := sortedCopy(curve)
			fmt.Fprintf(w, "%s%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n", mfr, mi,
				stats.Quantile(asc, 0.01), stats.Quantile(asc, 0.25), stats.Quantile(asc, 0.5),
				stats.Quantile(asc, 0.75), stats.Quantile(asc, 0.99))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// columnGeometry narrows the column space so column statistics are
// dense at test scale (the paper accumulates over 24K rows; we
// accumulate over a few hundred).
func columnGeometry(g rh.Geometry) rh.Geometry {
	g.ColumnsPerRow = 16
	return g
}

// fig12Rows is the victim budget of the column analyses. Column
// statistics need dense flip counts (the paper accumulates over 24K
// rows), so the budget is independent of the scale's per-region row
// count: victims are spread across the whole bank.
const fig12Rows = 96

// fig12HotThreshold is the "hot column" flip-count cutoff (Obsv. 13).
const fig12HotThreshold = 20

// spreadRows selects up to n victim rows spread uniformly across the
// bank, skipping subarray edges.
func spreadRows(g rh.Geometry, n int) []int {
	var rows []int
	step := g.RowsPerBank / (n + 1)
	if step < 1 {
		step = 1
	}
	for r := step; r < g.RowsPerBank && len(rows) < n; r += step {
		if r%g.SubarrayRows == 0 || r%g.SubarrayRows == g.SubarrayRows-1 {
			continue
		}
		rows = append(rows, r)
	}
	return rows
}

// fig12Mfr accumulates one manufacturer's per-(chip, column) flips.
// cfg must already carry the narrowed column geometry.
func fig12Mfr(cfg Config, mfr string) (*rh.ColumnAccumulator, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	acc := rh.NewColumnAccumulator(cfg.Geometry)
	rows := spreadRows(cfg.Geometry, fig12Rows)
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		// Calibrate the hammer count so every manufacturer
		// accumulates comparably dense counts (the paper gets
		// density from 24K rows; we compensate with hammers).
		hammers := cfg.Scale.Hammers
		for ; hammers < cfg.Scale.MaxHammers; hammers = min64(2*hammers, cfg.Scale.MaxHammers) {
			probe, err := t.Hammer(rh.HammerConfig{
				Bank: 0, VictimPhys: rows[len(rows)/2], Hammers: hammers, Pattern: pat, Trial: 1,
			})
			if err != nil {
				return nil, err
			}
			if probe.Victim.Count() >= 25 {
				break
			}
		}
		for _, row := range rows {
			hr, err := t.Hammer(rh.HammerConfig{
				Bank: 0, VictimPhys: row, Hammers: hammers, Pattern: pat, Trial: 1,
			})
			if err != nil {
				return nil, err
			}
			acc.Add(hr.Victim)
			acc.Add(hr.SingleLo)
			acc.Add(hr.SingleHi)
		}
	}
	return acc, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// fig12Shard measures one manufacturer's column flip summary.
func fig12Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	cfg.Geometry = columnGeometry(cfg.Geometry)
	acc, err := fig12Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	maxFlips := 0
	for _, chip := range acc.Counts {
		for _, n := range chip {
			if n > maxFlips {
				maxFlips = n
			}
		}
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("zero_frac", acc.ZeroColumnFraction()).
		Set("hot_frac", acc.HotColumnFraction(fig12HotThreshold)).
		SetInt("max_flips", int64(maxFlips))
	return a, nil
}

// renderFig12 prints the column heatmap summary from the artifact.
func renderFig12(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "Mfr\tzero-flip columns\t>%d-flip columns\tmax column flips\n", fig12HotThreshold)
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: fig12 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\n", mfr, pct(r.V("zero_frac")), pct(r.V("hot_frac")), r.Int("max_flips"))
	}
	return w.Flush()
}

// fig13Stats holds one manufacturer's Fig. 13 clustering.
type fig13Stats struct {
	hist               [][]int
	zeroFrac, oneFrac  float64
	meanCV, columnSkew float64
}

// fig13FromAcc clusters one accumulator's columns by relative
// vulnerability and cross-chip CV.
func fig13FromAcc(acc *rh.ColumnAccumulator) fig13Stats {
	rel, cv := acc.ColumnVariation()
	// Only vulnerable columns participate (paper plots the
	// population of columns with flips).
	var relV, cvV []float64
	zero, one := 0, 0
	for c := range rel {
		if rel[c] == 0 {
			continue
		}
		relV = append(relV, rel[c])
		cvV = append(cvV, cv[c])
		if cv[c] < 1.0/11 {
			zero++
		}
		if cv[c] >= 10.0/11 {
			one++
		}
	}
	var hist [][]int
	if len(relV) > 0 {
		hist = stats.Histogram2D(cvV, relV, 0, 1.0001, 11, 0, 1.0001, 11)
	}
	// Mean within-chip column skew.
	var chipCVs []float64
	for chip := range acc.Counts {
		var counts []float64
		for _, n := range acc.Counts[chip] {
			counts = append(counts, float64(n))
		}
		chipCVs = append(chipCVs, stats.CV(counts))
	}
	n := float64(max1(len(relV)))
	return fig13Stats{
		hist:       hist,
		zeroFrac:   float64(zero) / n,
		oneFrac:    float64(one) / n,
		meanCV:     stats.Mean(cvV),
		columnSkew: stats.Mean(chipCVs),
	}
}

// fig13Shard measures one manufacturer's Fig. 13 clustering.
func fig13Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	cfg.Geometry = columnGeometry(cfg.Geometry)
	acc, err := fig12Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	s := fig13FromAcc(acc)
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("zero_cv_frac", s.zeroFrac).Set("one_cv_frac", s.oneFrac).
		Set("mean_cv", s.meanCV).Set("column_skew", s.columnSkew)
	for yi, row := range s.hist {
		pts := make([]float64, len(row))
		for xi, n := range row {
			pts[xi] = float64(n)
		}
		a.AddSeries(fmt.Sprintf("%s/hist/y=%02d", mfrKey(mfr), yi), pts)
	}
	return a, nil
}

// renderFig13 prints the Fig. 13 cluster summary from the artifact.
func renderFig13(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tCV≈0 columns (design)\tCV≈1 columns (process)\tmean cross-chip CV\tcolumn skew")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: fig13 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%.2f\n", mfr,
			pct(r.V("zero_cv_frac")), pct(r.V("one_cv_frac")), r.V("mean_cv"), r.V("column_skew"))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The paper's 11×11 bucket grid (rows: relative vulnerability,
	// high to low; columns: CV 0→1), in percent of vulnerable columns.
	for _, mfr := range a.Shards {
		var hist [][]float64
		for yi := 0; ; yi++ {
			row := a.SeriesPoints(fmt.Sprintf("%s/hist/y=%02d", mfrKey(mfr), yi))
			if row == nil {
				break
			}
			hist = append(hist, row)
		}
		if hist == nil {
			continue
		}
		total := 0.0
		for _, row := range hist {
			for _, n := range row {
				total += n
			}
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(out, "\nMfr. %s bucket grid (rows: rel. vulnerability 1.0→0.0; cols: CV 0.0→1.0)\n", mfr)
		hw := tabwriter.NewWriter(out, 2, 4, 1, ' ', 0)
		for yi := len(hist) - 1; yi >= 0; yi-- {
			for xi, n := range hist[yi] {
				if xi > 0 {
					fmt.Fprint(hw, "\t")
				}
				if n == 0 {
					fmt.Fprint(hw, ".")
				} else {
					fmt.Fprintf(hw, "%.1f%%", 100*n/total)
				}
			}
			fmt.Fprintln(hw)
		}
		if err := hw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// subarrayRowBudget is rows profiled per subarray.
const subarrayRowBudget = 10

// profileSubarrays measures per-subarray HCfirst statistics for every
// module of a manufacturer.
func profileSubarrays(cfg Config, mfr string) ([][]rh.SubarrayStat, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	g := cfg.Geometry
	// Sample rows from every subarray.
	var rows []int
	for sub := 0; sub < g.Subarrays(); sub++ {
		base := sub * g.SubarrayRows
		step := g.SubarrayRows / (subarrayRowBudget + 1)
		if step < 1 {
			step = 1
		}
		for k := 1; k <= subarrayRowBudget; k++ {
			r := base + k*step
			if r >= base+g.SubarrayRows-1 {
				break
			}
			rows = append(rows, r)
		}
	}
	var out [][]rh.SubarrayStat
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		profile, err := t.RowHCFirstProfileCtx(cfg.Ctx, 0, rows, rh.HCFirstConfig{
			Pattern: pat, MaxHammers: cfg.Scale.MaxHammers,
		}, cfg.Scale.Repetitions)
		if err != nil {
			return nil, err
		}
		out = append(out, rh.GroupBySubarray(g, profile))
	}
	return out, nil
}

// fig14Mfr pools one manufacturer's subarray stats and fits min vs
// avg.
func fig14Mfr(cfg Config, mfr string) ([]rh.SubarrayStat, stats.LinearFit, error) {
	perModule, err := profileSubarrays(cfg, mfr)
	if err != nil {
		return nil, stats.LinearFit{}, err
	}
	var pooled []rh.SubarrayStat
	for _, subs := range perModule {
		pooled = append(pooled, subs...)
	}
	fit, err := rh.FitSubarrayMinVsAvg(pooled)
	return pooled, fit, err
}

// fig14Shard measures one manufacturer's Fig. 14 regression.
func fig14Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	_, fit, err := fig14Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("slope", fit.Slope).Set("intercept", fit.Intercept).
		Set("r2", fit.R2).SetInt("n", int64(fit.N))
	return a, nil
}

// renderFig14 prints the Fig. 14 regression from the artifact.
func renderFig14(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tfit\tR²\tsubarrays")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: fig14 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\ty=%.2fx%+.0f\t%.2f\t%d\n", mfr,
			r.V("slope"), r.V("intercept"), r.V("r2"), r.Int("n"))
	}
	return w.Flush()
}

// fig15Mfr computes one manufacturer's pairwise subarray similarities.
func fig15Mfr(cfg Config, mfr string) (same, diff []float64, err error) {
	perModule, err := profileSubarrays(cfg, mfr)
	if err != nil {
		return nil, nil, err
	}
	for mi, subsA := range perModule {
		for ai := range subsA {
			for bi := ai + 1; bi < len(subsA); bi++ {
				same = append(same, rh.SubarraySimilarity(subsA[ai], subsA[bi]))
			}
			for mj := mi + 1; mj < len(perModule); mj++ {
				for _, sb := range perModule[mj] {
					diff = append(diff, rh.SubarraySimilarity(subsA[ai], sb))
				}
			}
		}
	}
	return same, diff, nil
}

// fig15P5 is the population summary of Fig. 15 (0 when empty).
func fig15P5(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 5)
}

// fig15Shard measures one manufacturer's similarity populations.
func fig15Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	same, diff, err := fig15Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddSeries(mfrKey(mfr)+"/same", same)
	a.AddSeries(mfrKey(mfr)+"/diff", diff)
	return a, nil
}

// renderFig15 prints the similarity comparison from the artifact.
func renderFig15(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tP5 BDnorm same module\tP5 BDnorm different modules\tpairs (same/diff)")
	for _, mfr := range a.Shards {
		same := a.SeriesPoints(mfrKey(mfr) + "/same")
		diff := a.SeriesPoints(mfrKey(mfr) + "/diff")
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%d/%d\n", mfr, fig15P5(same), fig15P5(diff),
			len(same), len(diff))
	}
	return w.Flush()
}
