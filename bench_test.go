// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced-but-representative scale and reports its headline metric(s)
// via b.ReportMetric, so `go test -bench=.` prints a compact
// paper-vs-measured summary. EXPERIMENTS.md records the comparison.
// Per-manufacturer experiments are read from the artifact the
// registry's ComputeAll publishes, so the numbers are the shipped ones.
package rowhammer_test

import (
	"context"
	"fmt"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/exp"
	"rowhammer/internal/stats"
)

// benchConfig is the scale used by the benchmark harness: larger than
// the unit-test scale (stable statistics) but minutes, not hours.
func benchConfig() exp.Config {
	return exp.Config{
		Scale: rh.Scale{
			RowsPerRegion: 12,
			Regions:       3,
			Hammers:       150_000,
			MaxHammers:    512_000,
			Repetitions:   2,
			ModulesPerMfr: 2,
		},
		Seed: 0xbe7c,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 1024, SubarrayRows: 256,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 32,
		},
	}
}

// benchArtifact computes experiment id's merged artifact at the
// benchmark scale.
func benchArtifact(b *testing.B, id string) *artifact.Artifact {
	b.Helper()
	a, err := exp.ByID(id).ComputeAll(context.Background(), benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// mfrRow is the artifact key of one manufacturer's summary row.
func mfrRow(mfr string) string { return "mfr=" + mfr }

// artifactVal returns value name of the row keyed key, failing the
// benchmark when the row or the value is missing (artifact.Row.V
// would read it as 0).
func artifactVal(b *testing.B, a *artifact.Artifact, key, name string) float64 {
	b.Helper()
	r := a.Row(key)
	if r == nil {
		b.Fatalf("%s artifact: no row %q", a.Experiment, key)
	}
	v, ok := r.Values[name]
	if !ok {
		b.Fatalf("%s artifact: row %q has no value %q", a.Experiment, key, name)
	}
	return v
}

// artifactSeries returns the points of the series keyed key, failing
// the benchmark when the series is missing.
func artifactSeries(b *testing.B, a *artifact.Artifact, key string) []float64 {
	b.Helper()
	for _, s := range a.Series {
		if s.Key == key {
			return s.Points
		}
	}
	b.Fatalf("%s artifact: no series %q", a.Experiment, key)
	return nil
}

// aggEndsRatio reads one manufacturer's §6 sweep (fig7–fig10) and
// returns the mean of the named per-grid-point samples (bers or hcs)
// at the last grid point over the first; ok is false when the first
// mean is 0.
func aggEndsRatio(b *testing.B, a *artifact.Artifact, mfr, samples string) (ratio float64, ok bool) {
	b.Helper()
	rows := a.RowsWithPrefix(mfrRow(mfr) + "/g=")
	if len(rows) < 2 {
		b.Fatalf("%s artifact: mfr %s has %d grid points", a.Experiment, mfr, len(rows))
	}
	base := stats.Mean(artifactSeries(b, a, rows[0].Key+"/"+samples))
	if base == 0 {
		return 0, false
	}
	return stats.Mean(artifactSeries(b, a, rows[len(rows)-1].Key+"/"+samples)) / base, true
}

// p5 is Fig. 15's population summary (0 when empty).
func p5(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 5)
}

func BenchmarkTable2Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := exp.Table2()
		b.ReportMetric(float64(res.DDR4Chips), "ddr4-chips")
		b.ReportMetric(float64(res.DDR3Chips), "ddr3-chips")
	}
}

func BenchmarkTable3ContinuousRange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "table3")
		// Paper: 99.1/98.9/98.0/99.2 %.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "no_gap_frac"), "nogap-pct-"+mfr)
		}
	}
}

func BenchmarkFig3TempRangeClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig3")
		// Paper full-range shares: A 14.2, B 17.4, C 9.6, D 29.8 %.
		// Full-range cells span the lowest to the highest temperature:
		// the lo=0 entry of the last hi row of the cluster matrix.
		for _, mfr := range a.Shards {
			temps := artifactSeries(b, a, mfrRow(mfr)+"/temps")
			hiRow := artifactSeries(b, a, fmt.Sprintf("%s/counts/hi=%02d", mfrRow(mfr), len(temps)-1))
			full := 0.0
			if total := artifactVal(b, a, mfrRow(mfr), "total"); total > 0 {
				full = hiRow[0] / total
			}
			b.ReportMetric(100*full, "fullrange-pct-"+mfr)
		}
	}
}

func BenchmarkFig4BERvsTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig4")
		// Paper at 90 °C: A ≈ +50…100%, B ≈ −20%, C ≈ +40%, D ≈ +200%.
		for _, mfr := range a.Shards {
			change, found := 0.0, false
			for _, r := range a.RowsWithPrefix(mfrRow(mfr) + "/p=") {
				if artifactVal(b, a, r.Key, "dist") == 0 && artifactVal(b, a, r.Key, "temp_c") == 90 {
					change, found = artifactVal(b, a, r.Key, "mean_change"), true
					break
				}
			}
			if !found {
				b.Fatalf("fig4 artifact: mfr %s has no distance-0 point at 90 °C", mfr)
			}
			b.ReportMetric(100*change, "ber-change90-pct-"+mfr)
		}
	}
}

func BenchmarkFig5HCFirstTempChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig5")
		// Paper crossings 50→90: A P45, B P67, C P71, D P40;
		// magnitude ratios ≈ 3.8–4.3×.
		for _, mfr := range a.Shards {
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "cross90"), "crossP90-"+mfr)
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "magnitude_ratio"), "magratio-"+mfr)
		}
	}
}

func BenchmarkFig6TimingTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OnSpacing["aggressor-on"].Nanoseconds(), "tAggOn-ns")
		b.ReportMetric(res.OffSpacing["aggressor-off"].Nanoseconds(), "tAggOff-ns")
	}
}

func BenchmarkFig7BERvsAggOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig7")
		// Paper BER ×10.2/3.1/4.4/9.6 at 154.5 ns.
		for _, mfr := range a.Shards {
			ratio, _ := aggEndsRatio(b, a, mfr, "bers")
			b.ReportMetric(ratio, "ber-ratio-"+mfr)
		}
	}
}

func BenchmarkFig8HCFirstVsAggOn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig8")
		// Paper HCfirst −40.0/−28.3/−32.7/−37.3 %.
		for _, mfr := range a.Shards {
			change := 0.0
			if r, ok := aggEndsRatio(b, a, mfr, "hcs"); ok {
				change = r - 1
			}
			b.ReportMetric(100*change, "hc-change-pct-"+mfr)
		}
	}
}

func BenchmarkFig9BERvsAggOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig9")
		// Paper BER ÷6.3/2.9/4.9/5.0 at 40.5 ns.
		for _, mfr := range a.Shards {
			ratio, _ := aggEndsRatio(b, a, mfr, "bers")
			b.ReportMetric(ratio, "ber-ratio-"+mfr)
		}
	}
}

func BenchmarkFig10HCFirstVsAggOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig10")
		// Paper HCfirst +33.8/+24.7/+50.1/+33.7 %.
		for _, mfr := range a.Shards {
			change := 0.0
			if r, ok := aggEndsRatio(b, a, mfr, "hcs"); ok {
				change = r - 1
			}
			b.ReportMetric(100*change, "hc-change-pct-"+mfr)
		}
	}
}

func BenchmarkFig11RowVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig11")
		// Paper (avg across mfrs): P99 ≥1.6×, P95 ≥2.0×, P90 ≥2.2×.
		for _, mfr := range a.Shards {
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "ratio_p95"), "p95-ratio-"+mfr)
		}
	}
}

func BenchmarkFig12ColumnHeatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig12")
		// Paper zero-flip columns: A 27.8%, B ~0%, C 31.1%, D 9.96%.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "zero_frac"), "zerocol-pct-"+mfr)
		}
	}
}

func BenchmarkFig13ColumnClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig13")
		// Paper: B design-dominated (CV≈0 mass 50.9%), A process-
		// dominated (CV≈1 mass 59.8%).
		for _, mfr := range a.Shards {
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "mean_cv"), "mean-crosschip-cv-"+mfr)
		}
	}
}

func BenchmarkFig14SubarrayRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig14")
		// Paper slopes: 0.46/0.41/0.42/0.67.
		for _, mfr := range a.Shards {
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "slope"), "slope-"+mfr)
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "r2"), "r2-"+mfr)
		}
	}
}

func BenchmarkFig15SubarrayBD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "fig15")
		// Paper (Mfr C): P5 same ≈0.975, P5 different ≈0.66.
		for _, mfr := range a.Shards {
			b.ReportMetric(p5(artifactSeries(b, a, mfrRow(mfr)+"/same")), "p5-same-"+mfr)
			b.ReportMetric(p5(artifactSeries(b, a, mfrRow(mfr)+"/diff")), "p5-diff-"+mfr)
		}
	}
}

func BenchmarkAttackImprovement1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "atk1")
		// Paper: informed choice can halve the required hammer count.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "reduction"), "hc-reduction-pct-"+mfr)
		}
	}
}

func BenchmarkAttackImprovement2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Attack2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		// Paper: exact-T cells ≈0.3%, at-or-above ≈90% of vulnerable
		// cells.
		b.ReportMetric(100*res.ExactCellFrac, "exactT-cells-pct")
		b.ReportMetric(100*res.AboveCellFrac, "aboveT-cells-pct")
	}
}

func BenchmarkAttackImprovement3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "atk3")
		// Paper: BER ×3.2–10.2, HCfirst −36% average. Only
		// manufacturers with a usable sample carry a result row.
		for _, mfr := range a.Shards {
			key := mfrRow(mfr) + "/res"
			if a.Row(key) == nil {
				continue
			}
			b.ReportMetric(100*artifactVal(b, a, key, "reduction"), "hc-reduction-pct-"+mfr)
			b.ReportMetric(artifactVal(b, a, key, "ber_ratio"), "ber-ratio-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "def1")
		// Paper: Graphene −80%, BlockHammer −33% area.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "graphene_red"), "graphene-saving-pct-"+mfr)
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "bh_red"), "blockhammer-saving-pct-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "def2")
		// Paper: ≥10× profiling speedup with approximate estimates.
		// Only manufacturers with enough modules carry a row.
		for _, mfr := range a.Shards {
			if a.Row(mfrRow(mfr)) == nil {
				continue
			}
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "speedup"), "speedup-"+mfr)
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "rel_error"), "est-error-pct-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Defense3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.RetiredAt85), "retired-rows-85C")
		b.ReportMetric(100*res.Coverage, "coverage-pct")
	}
}

func BenchmarkDefenseImprovement4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "def4")
		// Paper: cooling 90→50 °C cuts Mfr A BER by ≈25%.
		for _, mfr := range a.Shards {
			b.ReportMetric(100*artifactVal(b, a, mfrRow(mfr), "ber_reduction"), "cooling-ber-cut-pct-"+mfr)
		}
	}
}

func BenchmarkDefenseImprovement5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Defense5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.ExtendedHC), "attack-hcfirst")
		b.ReportMetric(float64(res.LimitedHC), "limited-hcfirst")
		b.ReportMetric(100*res.BenignSlowdown, "benign-slowdown-pct")
	}
}

func BenchmarkDefenseImprovement6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := benchArtifact(b, "def6")
		for _, mfr := range a.Shards {
			b.ReportMetric(artifactVal(b, a, mfrRow(mfr), "exposure_ratio"), "exposure-ratio-"+mfr)
		}
	}
}
