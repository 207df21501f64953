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

// tempSweepRows is the per-module victim budget of temperature sweeps.
const tempSweepRows = 24

// runTempSweeps sweeps every module of a manufacturer across the
// study temperatures; singles also reads each test's single-sided
// victims (V±2), which only Fig. 4 reports.
func runTempSweeps(cfg Config, mfr string, singles bool) ([]*rh.TempSweepResult, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	rows := sampleRows(cfg, tempSweepRows)
	var out []*rh.TempSweepResult
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		sweep, err := t.TemperatureSweep(cfg.Ctx, rh.TempSweepConfig{
			Bank:    0,
			Victims: rows,
			// 2x the BER hammer count: the paper picks 150K as "high
			// enough to provide a large number of bit flips in all
			// modules"; the steep-tailed simulated Mfr B needs the
			// doubling for dense per-cell statistics at test scale.
			Hammers:     2 * cfg.Scale.Hammers,
			Pattern:     pat,
			Repetitions: cfg.Scale.Repetitions,
			Singles:     singles,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, sweep)
	}
	return out, nil
}

// mergeClusters sums per-module cluster matrices.
func mergeClusters(sweeps []*rh.TempSweepResult) *rh.TempClusterMatrix {
	var merged *rh.TempClusterMatrix
	for _, s := range sweeps {
		m := s.ClusterByRange()
		if merged == nil {
			merged = m
			continue
		}
		for hi := range m.Counts {
			for lo := range m.Counts[hi] {
				merged.Counts[hi][lo] += m.Counts[hi][lo]
			}
		}
		merged.NoGap += m.NoGap
		merged.OneGap += m.OneGap
		merged.MoreGap += m.MoreGap
		merged.Total += m.Total
	}
	if merged == nil {
		merged = &rh.TempClusterMatrix{Temps: rh.StudyTemps()}
	}
	return merged
}

// clusterMatrix runs the temperature sweeps of one manufacturer and
// merges them into its cluster matrix — the shared compute of Table 3
// and Fig. 3.
func clusterMatrix(cfg Config, mfr string) (*rh.TempClusterMatrix, error) {
	sweeps, err := runTempSweeps(cfg, mfr, false)
	if err != nil {
		return nil, err
	}
	return mergeClusters(sweeps), nil
}

// table3Shard measures one manufacturer's Table 3 statistic.
func table3Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	m, err := clusterMatrix(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).Set("no_gap_frac", m.NoGapFraction())
	return a, nil
}

// renderTable3 prints Table 3 from the artifact.
func renderTable3(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr. A\tMfr. B\tMfr. C\tMfr. D")
	for i, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: table3 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s", pct(r.V("no_gap_frac")))
		if i < len(a.Shards)-1 {
			fmt.Fprint(w, "\t")
		}
	}
	fmt.Fprintln(w)
	return w.Flush()
}

// clusterToArtifact stores a cluster matrix under the shard's key
// prefix: gap counts as row values, temps and per-hi count rows as
// series.
func clusterToArtifact(a *artifact.Artifact, key string, m *rh.TempClusterMatrix) {
	a.AddRow(key).
		SetInt("total", int64(m.Total)).SetInt("no_gap", int64(m.NoGap)).
		SetInt("one_gap", int64(m.OneGap)).SetInt("more_gap", int64(m.MoreGap))
	a.AddSeries(key+"/temps", append([]float64(nil), m.Temps...))
	for hi := range m.Counts {
		row := make([]float64, len(m.Counts[hi]))
		for lo, n := range m.Counts[hi] {
			row[lo] = float64(n)
		}
		a.AddSeries(fmt.Sprintf("%s/counts/hi=%02d", key, hi), row)
	}
}

// clusterFromArtifact rebuilds the cluster matrix stored under key.
func clusterFromArtifact(a *artifact.Artifact, key string) (*rh.TempClusterMatrix, error) {
	r := a.Row(key)
	temps := a.SeriesPoints(key + "/temps")
	if r == nil || temps == nil {
		return nil, fmt.Errorf("exp: artifact missing cluster matrix %q", key)
	}
	m := &rh.TempClusterMatrix{
		Temps:   temps,
		NoGap:   int(r.Int("no_gap")),
		OneGap:  int(r.Int("one_gap")),
		MoreGap: int(r.Int("more_gap")),
		Total:   int(r.Int("total")),
	}
	m.Counts = make([][]int, len(temps))
	for hi := range m.Counts {
		pts := a.SeriesPoints(fmt.Sprintf("%s/counts/hi=%02d", key, hi))
		if pts == nil {
			return nil, fmt.Errorf("exp: artifact missing counts row %d of %q", hi, key)
		}
		m.Counts[hi] = make([]int, len(pts))
		for lo, v := range pts {
			m.Counts[hi][lo] = int(v)
		}
	}
	return m, nil
}

// fig3Shard measures one manufacturer's cluster matrix.
func fig3Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	m, err := clusterMatrix(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	clusterToArtifact(a, mfrKey(mfr), m)
	return a, nil
}

// renderFig3 prints the Fig. 3 matrices from the artifact.
func renderFig3(out io.Writer, a *artifact.Artifact) error {
	for _, mfr := range a.Shards {
		m, err := clusterFromArtifact(a, mfrKey(mfr))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Mfr. %s (vulnerable cells: %d)\n", mfr, m.Total)
		w := tabwriter.NewWriter(out, 2, 4, 1, ' ', 0)
		fmt.Fprint(w, "Hi\\Lo")
		for _, t := range m.Temps {
			fmt.Fprintf(w, "\t%.0f", t)
		}
		fmt.Fprintln(w)
		for hi := range m.Temps {
			fmt.Fprintf(w, "%.0f", m.Temps[hi])
			for lo := 0; lo <= hi; lo++ {
				fmt.Fprintf(w, "\t%s", pct(m.Fraction(lo, hi)))
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(out, "No gaps: %s  1 gap: %s  full range: %s  single temp: %s\n\n",
			pct(m.NoGapFraction()), pct(float64(m.OneGap)/float64(max1(m.Total))),
			pct(m.FullRangeFraction()), pct(m.NarrowRangeFraction()))
	}
	return nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// fig4Point is BER change at one temperature for one victim distance.
type fig4Point struct {
	tempC      float64
	distance   int // 0 or ±2
	meanChange float64
	ci95       float64
}

// fig4Mfr measures one manufacturer's BER-change series.
func fig4Mfr(cfg Config, mfr string) ([]fig4Point, error) {
	sweeps, err := runTempSweeps(cfg, mfr, true)
	if err != nil {
		return nil, err
	}
	var series []fig4Point
	for _, dist := range []int{-2, 0, 2} {
		count := func(hr rh.HammerResult) float64 {
			switch dist {
			case -2:
				return float64(hr.SingleLo.Count())
			case 2:
				return float64(hr.SingleHi.Count())
			default:
				return float64(hr.Victim.Count())
			}
		}
		// Baseline: mean across all samples at 50 °C.
		var base []float64
		for _, s := range sweeps {
			for _, hr := range s.Flips[0] {
				base = append(base, count(hr))
			}
		}
		mean50 := stats.Mean(base)
		if mean50 == 0 {
			continue
		}
		temps := sweeps[0].Temps
		for ti, temp := range temps {
			var changes []float64
			for _, s := range sweeps {
				for _, hr := range s.Flips[ti] {
					changes = append(changes, count(hr)/mean50-1)
				}
			}
			m, ci := stats.MeanCI95(changes)
			series = append(series, fig4Point{tempC: temp, distance: dist, meanChange: m, ci95: ci})
		}
	}
	return series, nil
}

// trendAt returns the mean BER change at the given temperature for
// distance 0, or 0 when absent.
func trendAt(points []fig4Point, tempC float64) float64 {
	for _, p := range points {
		if p.distance == 0 && p.tempC == tempC {
			return p.meanChange
		}
	}
	return 0
}

// fig4Shard measures one manufacturer's Fig. 4 series.
func fig4Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	points, err := fig4Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	for i, p := range points {
		a.AddRow(fmt.Sprintf("%s/p=%03d", mfrKey(mfr), i)).
			SetInt("dist", int64(p.distance)).Set("temp_c", p.tempC).
			Set("mean_change", p.meanChange).Set("ci95", p.ci95)
	}
	return a, nil
}

// renderFig4 prints the Fig. 4 series from the artifact.
func renderFig4(out io.Writer, a *artifact.Artifact) error {
	for _, mfr := range a.Shards {
		fmt.Fprintf(out, "Mfr. %s\n", mfr)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "dist\ttemp\tBER change\t95% CI")
		for _, p := range a.RowsWithPrefix(mfrKey(mfr) + "/p=") {
			fmt.Fprintf(w, "%+d\t%.0f\t%+.1f%%\t±%.1f%%\n",
				p.Int("dist"), p.V("temp_c"), 100*p.V("mean_change"), 100*p.V("ci95"))
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// fig5Rows is the per-module victim budget of the Fig. 5 measurement.
const fig5Rows = 16

// fig5Changes holds one manufacturer's per-row HCfirst changes.
type fig5Changes struct{ c55, c90 []float64 }

// fig5Mfr measures one manufacturer's HCfirst-change distributions.
func fig5Mfr(cfg Config, mfr string) (fig5Changes, error) {
	temps := []float64{50, 55, 90}
	bs, err := benches(cfg, mfr)
	if err != nil {
		return fig5Changes{}, err
	}
	rows := sampleRows(cfg, fig5Rows)
	var c fig5Changes
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return c, err
		}
		hc, err := t.HCFirstAtTemps(cfg.Ctx, 0, rows, temps, rh.HCFirstConfig{
			Pattern:    pat,
			MaxHammers: cfg.Scale.MaxHammers,
		}, cfg.Scale.Repetitions)
		if err != nil {
			return c, err
		}
		for ri := range rows {
			base := hc[0][ri]
			if base <= 0 {
				continue
			}
			if hc[1][ri] > 0 {
				c.c55 = append(c.c55, float64(hc[1][ri]-base)/float64(base))
			}
			if hc[2][ri] > 0 {
				c.c90 = append(c.c90, float64(hc[2][ri]-base)/float64(base))
			}
		}
	}
	return c, nil
}

// fig5Summary derives the crossing percentiles and magnitude ratio of
// one manufacturer's change distributions.
func fig5Summary(c fig5Changes) (cross55, cross90, ratio float64) {
	cross55 = stats.CrossingPercentile(c.c55)
	cross90 = stats.CrossingPercentile(c.c90)
	if m55 := stats.CumulativeMagnitude(c.c55); m55 > 0 {
		// Normalize per-row so unequal sample sizes don't skew.
		ratio = (stats.CumulativeMagnitude(c.c90) / float64(max1(len(c.c90)))) /
			(m55 / float64(max1(len(c.c55))))
	}
	return cross55, cross90, ratio
}

// fig5Shard measures one manufacturer's Fig. 5 distributions.
func fig5Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	c, err := fig5Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	cross55, cross90, ratio := fig5Summary(c)
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		Set("cross55", cross55).Set("cross90", cross90).Set("magnitude_ratio", ratio)
	a.AddSeries(mfrKey(mfr)+"/change55", c.c55)
	a.AddSeries(mfrKey(mfr)+"/change90", c.c90)
	return a, nil
}

// renderFig5 prints the Fig. 5 summary from the artifact.
func renderFig5(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr\tP(HC↑) 50→55\tP(HC↑) 50→90\t|Δ| ratio 90/55\tmedian Δ55\tmedian Δ90")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: fig5 artifact missing shard %s", mfr)
		}
		med := func(xs []float64) float64 {
			if len(xs) == 0 {
				return 0
			}
			return stats.Median(xs)
		}
		fmt.Fprintf(w, "%s\tP%.0f\tP%.0f\t%.1fx\t%+.1f%%\t%+.1f%%\n",
			mfr, r.V("cross55"), r.V("cross90"), r.V("magnitude_ratio"),
			100*med(a.SeriesPoints(mfrKey(mfr)+"/change55")),
			100*med(a.SeriesPoints(mfrKey(mfr)+"/change90")))
	}
	return w.Flush()
}
