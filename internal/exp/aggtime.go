package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
	"rowhammer/internal/stats"
)

// The paper's aggressor-time grids (§6): on-time 34.5→154.5 ns in
// 30 ns steps, off-time 16.5→40.5 ns in 6 ns steps.
var (
	aggOnGridNs  = []float64{34.5, 64.5, 94.5, 124.5, 154.5}
	aggOffGridNs = []float64{16.5, 22.5, 28.5, 34.5, 40.5}
)

// Fig6Result verifies the command timing of the three §6 test types.
type Fig6Result struct {
	// Spacings[test] lists ACT→PRE and PRE→ACT distances measured
	// from the executor trace, for "baseline", "aggressor-on",
	// "aggressor-off".
	OnSpacing, OffSpacing map[string]dram.Picos
}

// fig6Tests names the three §6 test types in print order.
var fig6Tests = []string{"baseline", "aggressor-on", "aggressor-off"}

// Fig6 builds the three §6 command sequences and measures the
// ACT→PRE / PRE→ACT spacings from the executor trace.
func Fig6(cfg Config) (Fig6Result, error) {
	cfg = cfg.normalize()
	res := Fig6Result{
		OnSpacing:  make(map[string]dram.Picos),
		OffSpacing: make(map[string]dram.Picos),
	}
	b, err := rh.NewBench(rh.BenchConfig{Profile: rh.ProfileByName("A"), Seed: cfg.Seed, Geometry: cfg.Geometry})
	if err != nil {
		return res, err
	}
	tm := b.Timing()
	tests := []struct {
		name    string
		on, off dram.Picos
	}{
		{"baseline", tm.TRAS, tm.TRP},
		{"aggressor-on", dram.PicosFromNs(154.5), tm.TRP},
		{"aggressor-off", tm.TRAS, dram.PicosFromNs(40.5)},
	}
	for _, tc := range tests {
		bld := softmc.NewBuilder(tm.TCK)
		// Settle any pending tRP/tRC from the previous sequence.
		bld.Wait(tm.TRC)
		bld.Act(0, 9).Wait(tc.on).Pre(0).Wait(tc.off).
			Act(0, 11).Wait(tc.on).Pre(0).Wait(tc.off).
			Act(0, 9).Wait(tc.on).Pre(0)
		b.Exec.SetTrace(true)
		tr, err := b.Exec.Run(bld.Program())
		if err != nil {
			return res, err
		}
		b.Exec.SetTrace(false)
		// Trace: ACT PRE ACT PRE ACT PRE.
		res.OnSpacing[tc.name] = tr.Trace[1].At - tr.Trace[0].At
		res.OffSpacing[tc.name] = tr.Trace[2].At - tr.Trace[1].At
	}
	return res, nil
}

// fig6Shard measures the command spacings (single shard: one trace).
func fig6Shard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	res, err := Fig6(cfg)
	if err != nil {
		return nil, err
	}
	a := artifact.New(shard)
	for _, name := range fig6Tests {
		a.AddRow("test="+name).Tag("test", name).
			Set("on_ns", res.OnSpacing[name].Nanoseconds()).
			Set("off_ns", res.OffSpacing[name].Nanoseconds())
	}
	return a, nil
}

// renderFig6 prints the measured command spacings from the artifact.
func renderFig6(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "test\ttAggOn (ACT→PRE)\ttAggOff (PRE→ACT)")
	for _, name := range fig6Tests {
		r := a.Row("test=" + name)
		if r == nil {
			return fmt.Errorf("exp: fig6 artifact missing test %s", name)
		}
		fmt.Fprintf(w, "%s\t%.1f ns\t%.1f ns\n", name, r.V("on_ns"), r.V("off_ns"))
	}
	return w.Flush()
}

// aggSweepRows is the per-module victim budget of §6 sweeps.
const aggSweepRows = 12

// aggPoint holds one grid value's per-(module,row) samples for one
// manufacturer.
type aggPoint struct {
	valueNs   float64
	bers, hcs []float64
}

// aggNormalize applies the §6 geometry floor: BER amplification
// factors up to ~10× need cell-count headroom (≥8K-bit rows) that
// narrow test-geometry rows would saturate.
func aggNormalize(cfg Config) Config {
	cfg = cfg.normalize()
	if cfg.Geometry.ColumnsPerRow < 128 {
		cfg.Geometry.ColumnsPerRow = 128
	}
	return cfg
}

// aggSweepMfr runs the §6 measurement of one manufacturer over a
// timing grid; onSweep selects the aggressor-on grid (vs off).
func aggSweepMfr(cfg Config, mfr string, gridNs []float64, onSweep bool) ([]aggPoint, error) {
	bs, err := benches(cfg, mfr)
	if err != nil {
		return nil, err
	}
	rows := sampleRows(cfg, aggSweepRows)
	points := make([]aggPoint, len(gridNs))
	for gi, v := range gridNs {
		points[gi].valueNs = v
	}
	for _, b := range bs {
		t := rh.NewTester(b)
		pat, err := t.ProbeWCDP(cfg.Ctx, rh.MeasureScope{Scale: cfg.Scale})
		if err != nil {
			return nil, err
		}
		for gi, v := range gridNs {
			onNs, offNs := 0.0, 0.0
			if onSweep {
				onNs = v
			} else {
				offNs = v
			}
			for _, row := range rows {
				hr, err := t.BER(rh.HammerConfig{
					Bank: 0, VictimPhys: row, Hammers: cfg.Scale.Hammers,
					AggOnNs: onNs, AggOffNs: offNs, Pattern: pat,
				}, cfg.Scale.Repetitions)
				if err != nil {
					return nil, err
				}
				points[gi].bers = append(points[gi].bers, float64(hr.Victim.Count()))
				hc, err := t.HCFirstMin(rh.HCFirstConfig{
					Bank: 0, VictimPhys: row, MaxHammers: cfg.Scale.MaxHammers,
					AggOnNs: onNs, AggOffNs: offNs, Pattern: pat,
				}, cfg.Scale.Repetitions)
				if err != nil {
					return nil, err
				}
				if hc.Found {
					points[gi].hcs = append(points[gi].hcs, float64(hc.HCfirst))
				}
			}
		}
	}
	return points, nil
}

// meanBERRatio returns mean BER at the last grid point over the first.
func meanBERRatio(pts []aggPoint) float64 {
	base := stats.Mean(pts[0].bers)
	if base == 0 {
		return 0
	}
	return stats.Mean(pts[len(pts)-1].bers) / base
}

// meanHCChange returns the fractional mean HCfirst change from the
// first to the last grid point.
func meanHCChange(pts []aggPoint) float64 {
	base := stats.Mean(pts[0].hcs)
	if base == 0 {
		return 0
	}
	return stats.Mean(pts[len(pts)-1].hcs)/base - 1
}

// aggShard returns the per-manufacturer Compute of one §6 sweep. The
// artifact stores the raw per-grid-point samples; renderers derive the
// box/letter statistics from them.
func aggShard(gridNs []float64, onSweep bool) func(context.Context, Config, string) (*artifact.Artifact, error) {
	return func(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
		cfg = aggNormalize(cfg.WithContext(ctx))
		points, err := aggSweepMfr(cfg, mfr, gridNs, onSweep)
		if err != nil {
			return nil, err
		}
		a := artifact.New(mfr)
		for gi, p := range points {
			key := fmt.Sprintf("%s/g=%02d", mfrKey(mfr), gi)
			a.AddRow(key).Set("value_ns", p.valueNs)
			a.AddSeries(key+"/bers", p.bers)
			a.AddSeries(key+"/hcs", p.hcs)
		}
		return a, nil
	}
}

// aggPoints rebuilds one manufacturer's sweep points from the
// artifact.
func aggPoints(a *artifact.Artifact, mfr string) []aggPoint {
	var points []aggPoint
	for _, r := range a.RowsWithPrefix(mfrKey(mfr) + "/g=") {
		points = append(points, aggPoint{
			valueNs: r.V("value_ns"),
			bers:    a.SeriesPoints(r.Key + "/bers"),
			hcs:     a.SeriesPoints(r.Key + "/hcs"),
		})
	}
	return points
}

// renderAggBER returns the BER-sweep renderer (Figs. 7 and 9).
func renderAggBER(label string) func(io.Writer, *artifact.Artifact) error {
	return func(out io.Writer, a *artifact.Artifact) error {
		for _, mfr := range a.Shards {
			points := aggPoints(a, mfr)
			fmt.Fprintf(out, "Mfr. %s (mean BER ratio last/first: %.1fx)\n", mfr, meanBERRatio(points))
			w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintf(w, "%s\tmin\tQ1\tmedian\tQ3\tmax\tmean\n", label)
			for _, p := range points {
				var box stats.BoxPlot
				if len(p.bers) > 0 {
					box, _ = stats.NewBoxPlot(p.bers)
				}
				fmt.Fprintf(w, "%.1f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.1f\n",
					p.valueNs, box.Min, box.Q1, box.Median, box.Q3, box.Max, stats.Mean(p.bers))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}

// renderAggHC returns the HCfirst-sweep renderer (Figs. 8 and 10).
func renderAggHC(label string) func(io.Writer, *artifact.Artifact) error {
	return func(out io.Writer, a *artifact.Artifact) error {
		for _, mfr := range a.Shards {
			points := aggPoints(a, mfr)
			fmt.Fprintf(out, "Mfr. %s (mean HCfirst change: %+.1f%%)\n", mfr, 100*meanHCChange(points))
			w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
			fmt.Fprintf(w, "%s\tmedian HCfirst\tquartile box\tsamples\n", label)
			for _, p := range points {
				var lv stats.LetterValues
				if len(p.hcs) > 0 {
					lv, _ = stats.NewLetterValues(p.hcs, 2)
				}
				box := "-"
				if len(lv.Boxes) > 0 {
					box = fmt.Sprintf("[%.0f, %.0f]", lv.Boxes[0][0], lv.Boxes[0][1])
				}
				fmt.Fprintf(w, "%.1f\t%.0f\t%s\t%d\n", p.valueNs, lv.Median, box, len(p.hcs))
			}
			if err := w.Flush(); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}
