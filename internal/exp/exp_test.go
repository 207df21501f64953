package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	rh "rowhammer"
	"rowhammer/internal/artifact"
)

// tinyConfig keeps experiment tests fast while preserving the trends.
func tinyConfig() Config {
	return Config{
		Scale: rh.Scale{
			RowsPerRegion: 10,
			Regions:       2,
			Hammers:       150_000,
			MaxHammers:    512_000,
			Repetitions:   1,
			ModulesPerMfr: 2,
		},
		Seed: 0x5eed,
		Geometry: rh.Geometry{
			Banks: 1, RowsPerBank: 512, SubarrayRows: 128,
			Chips: 8, ChipWidth: 8, ColumnsPerRow: 32,
		},
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Section == "" || e.Schema < 1 ||
			len(e.Shards) == 0 || e.Compute == nil || e.Render == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure of the evaluation must be present.
	for _, id := range []string{
		"table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"atk1", "atk2", "atk3", "def1", "def2", "def3", "def4", "def5", "def6",
	} {
		if !ids[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if ByID("fig11") == nil || ByID("nope") != nil {
		t.Fatal("ByID lookup broken")
	}
}

func TestTable2Inventory(t *testing.T) {
	res := Table2()
	if res.DDR4Chips != 248 || res.DDR3Chips != 24 {
		t.Fatalf("chip counts %d/%d, want 248/24", res.DDR4Chips, res.DDR3Chips)
	}
	if res.DDR4Modules != 22 || res.DDR3Modules != 3 {
		t.Fatalf("module counts %d/%d, want 22/3", res.DDR4Modules, res.DDR3Modules)
	}
	var buf bytes.Buffer
	cfg := tinyConfig()
	cfg.Out = &buf
	if err := ByID("table2").Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "248 DDR4 chips") {
		t.Fatalf("output missing totals:\n%s", buf.String())
	}
}

func TestTable3NoGapDominates(t *testing.T) {
	a := tinyArtifact(t, "table3")
	if len(a.Shards) != 4 {
		t.Fatalf("mfrs = %v", a.Shards)
	}
	for _, mfr := range a.Shards {
		if f := val(t, a, mfrKey(mfr), "no_gap_frac"); f < 0.9 {
			t.Errorf("mfr %s: no-gap fraction %.3f, want > 0.9 (paper ≈0.98-0.99)", mfr, f)
		}
	}
}

func TestFig3ClusterShape(t *testing.T) {
	a := tinyArtifact(t, "fig3")
	matrices := map[string]*rh.TempClusterMatrix{}
	for _, mfr := range a.Shards {
		if val(t, a, mfrKey(mfr), "total") == 0 {
			t.Fatalf("mfr %s: no vulnerable cells", mfr)
		}
		m, err := clusterFromArtifact(a, mfrKey(mfr))
		if err != nil {
			t.Fatal(err)
		}
		matrices[mfr] = m
		// Obsv. 2: the full-range cluster is the largest single
		// cluster for every manufacturer (paper: 9.6%–29.8%).
		full := m.FullRangeFraction()
		if full < 0.04 {
			t.Errorf("mfr %s: full-range fraction %.3f too small", mfr, full)
		}
	}
	// Obsv. 3: narrow-range cells exist but are a small minority.
	for _, mfr := range a.Shards {
		if n := matrices[mfr].NarrowRangeFraction(); n > 0.5 {
			t.Errorf("mfr %s: single-temperature cells %.2f, want minority", mfr, n)
		}
	}
}

// berChangeAt reads a Fig. 4 artifact's distance-0 mean BER change at
// tempC for one manufacturer, failing the test when the point is
// missing.
func berChangeAt(t *testing.T, a *artifact.Artifact, mfr string, tempC float64) float64 {
	t.Helper()
	for _, r := range a.RowsWithPrefix(mfrKey(mfr) + "/p=") {
		if val(t, a, r.Key, "dist") == 0 && val(t, a, r.Key, "temp_c") == tempC {
			return val(t, a, r.Key, "mean_change")
		}
	}
	t.Fatalf("fig4 artifact: mfr %s has no distance-0 point at %.0f °C", mfr, tempC)
	return 0
}

func TestFig4TemperatureTrends(t *testing.T) {
	a := tinyArtifact(t, "fig4")
	for _, mfr := range a.Shards {
		at90 := berChangeAt(t, a, mfr, 90)
		switch mfr {
		case "B":
			if at90 >= 0 {
				t.Errorf("Mfr B BER change at 90 °C = %+.2f, want negative", at90)
			}
		default:
			if at90 <= 0 {
				t.Errorf("Mfr %s BER change at 90 °C = %+.2f, want positive", mfr, at90)
			}
		}
	}
	// Mfr D shows the strongest increase (paper ≈ +200%).
	if d, c := berChangeAt(t, a, "D", 90), berChangeAt(t, a, "C", 90); d <= c {
		t.Errorf("Mfr D trend %.2f should exceed Mfr C %.2f", d, c)
	}
}

func TestFig5HCFirstChange(t *testing.T) {
	a := tinyArtifact(t, "fig5")
	for _, mfr := range a.Shards {
		if len(series(t, a, mfrKey(mfr)+"/change90")) == 0 {
			t.Fatalf("mfr %s: no rows measured", mfr)
		}
		// Obsv. 5: both directions occur — crossings well inside
		// (0, 100).
		if c := val(t, a, mfrKey(mfr), "cross90"); c <= 5 || c >= 95 {
			t.Errorf("mfr %s: 50→90 crossing P%.0f, want interior", mfr, c)
		}
		// Obsv. 7: larger temperature change ⇒ larger cumulative
		// magnitude (paper: ≈4×).
		if r := val(t, a, mfrKey(mfr), "magnitude_ratio"); r <= 1 {
			t.Errorf("mfr %s: magnitude ratio %.2f, want > 1", mfr, r)
		}
	}
}

func TestFig6CommandTimings(t *testing.T) {
	res, err := Fig6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.OnSpacing["baseline"].Nanoseconds(); got != 34.5 {
		t.Fatalf("baseline tAggOn = %v", got)
	}
	if got := res.OnSpacing["aggressor-on"].Nanoseconds(); got != 154.5 {
		t.Fatalf("aggressor-on tAggOn = %v", got)
	}
	if got := res.OffSpacing["aggressor-off"].Nanoseconds(); got != 40.5 {
		t.Fatalf("aggressor-off tAggOff = %v", got)
	}
	if got := res.OffSpacing["baseline"].Nanoseconds(); got != 16.5 {
		t.Fatalf("baseline tAggOff = %v", got)
	}
}

// aggSweep reads one manufacturer's §6 sweep points from a fig7–fig10
// artifact, failing the test when a grid row or series is missing.
func aggSweep(t *testing.T, a *artifact.Artifact, mfr string) []aggPoint {
	t.Helper()
	rows := a.RowsWithPrefix(mfrKey(mfr) + "/g=")
	if len(rows) < 2 {
		t.Fatalf("%s artifact: mfr %s has %d grid points", a.Experiment, mfr, len(rows))
	}
	pts := make([]aggPoint, len(rows))
	for i, r := range rows {
		pts[i] = aggPoint{
			valueNs: val(t, a, r.Key, "value_ns"),
			bers:    series(t, a, r.Key+"/bers"),
			hcs:     series(t, a, r.Key+"/hcs"),
		}
	}
	return pts
}

func TestFig7And8AggressorOnTrends(t *testing.T) {
	ber, hc := tinyArtifact(t, "fig7"), tinyArtifact(t, "fig8")
	ratios := map[string]float64{}
	for _, mfr := range ber.Shards {
		ratios[mfr] = meanBERRatio(aggSweep(t, ber, mfr))
		if r := ratios[mfr]; r <= 1.5 {
			t.Errorf("mfr %s: BER ratio %.2f at 154.5 ns, want > 1.5 (paper 3.1–10.2x)", mfr, r)
		}
		if c := meanHCChange(aggSweep(t, hc, mfr)); c >= -0.1 {
			t.Errorf("mfr %s: HCfirst change %+.2f, want < -0.1 (paper −28%%…−40%%)", mfr, c)
		}
	}
	// Mfr A has the strongest BER response (paper 10.2×) and B the
	// weakest (3.1×).
	if ratios["A"] <= ratios["B"] {
		t.Errorf("Mfr A BER ratio %.1f should exceed Mfr B %.1f", ratios["A"], ratios["B"])
	}
}

func TestFig9And10AggressorOffTrends(t *testing.T) {
	ber, hc := tinyArtifact(t, "fig9"), tinyArtifact(t, "fig10")
	for _, mfr := range ber.Shards {
		pts := aggSweep(t, ber, mfr)
		if len(pts[0].bers) == 0 {
			t.Fatalf("mfr %s: no baseline samples", mfr)
		}
		if r := meanBERRatio(pts); r >= 0.7 {
			t.Errorf("mfr %s: BER ratio %.2f at 40.5 ns, want < 0.7 (paper ÷2.9–6.3)", mfr, r)
		}
		if c := meanHCChange(aggSweep(t, hc, mfr)); c <= 0.1 {
			t.Errorf("mfr %s: HCfirst change %+.2f, want > +0.1 (paper +25%%…+50%%)", mfr, c)
		}
	}
}

func TestFig11RowVariation(t *testing.T) {
	a := tinyArtifact(t, "fig11")
	for _, mfr := range a.Shards {
		key := mfrKey(mfr)
		if n := val(t, a, key, "vulnerable"); n < 5 {
			t.Fatalf("mfr %s: only %.0f vulnerable rows", mfr, n)
		}
		p99, p95, p90 := val(t, a, key, "ratio_p99"), val(t, a, key, "ratio_p95"), val(t, a, key, "ratio_p90")
		if p95 < 1.0 {
			t.Errorf("mfr %s: P95 ratio %.2f < 1", mfr, p95)
		}
		// Ratios are ordered by construction: deeper percentiles sit
		// closer to the minimum.
		if !(p99 <= p95 && p95 <= p90) {
			t.Errorf("mfr %s: ratio ordering violated: P99 %.2f, P95 %.2f, P90 %.2f", mfr, p99, p95, p90)
		}
	}
}

func TestFig12And13ColumnVariation(t *testing.T) {
	f12 := tinyArtifact(t, "fig12")
	// Obsv. 13: Mfr B (low column sigma) has far fewer zero-flip
	// columns than A/C.
	zeroA, zeroB := val(t, f12, mfrKey("A"), "zero_frac"), val(t, f12, mfrKey("B"), "zero_frac")
	if zeroB >= zeroA {
		t.Errorf("Mfr B zero-columns %.2f should be below Mfr A %.2f", zeroB, zeroA)
	}

	f13 := tinyArtifact(t, "fig13")
	// Obsv. 14: B is design-dominated (low cross-chip variation), A is
	// process-dominated (high cross-chip variation). At test scale the
	// mean CV is the robust version of the paper's CV=0/CV=1 bucket
	// masses.
	cvA, cvB := val(t, f13, mfrKey("A"), "mean_cv"), val(t, f13, mfrKey("B"), "mean_cv")
	if cvB >= cvA {
		t.Errorf("Mfr B mean cross-chip CV %.2f should be below Mfr A %.2f", cvB, cvA)
	}
	// A's heavy column factors concentrate flips in few columns.
	skewA, skewB := val(t, f13, mfrKey("A"), "column_skew"), val(t, f13, mfrKey("B"), "column_skew")
	if skewB >= skewA {
		t.Errorf("Mfr B column skew %.2f should be below Mfr A %.2f", skewB, skewA)
	}
}

func TestFig14SubarrayRegression(t *testing.T) {
	a := tinyArtifact(t, "fig14")
	cfg := tinyConfig().normalize()
	for _, mfr := range a.Shards {
		if slope := val(t, a, mfrKey(mfr), "slope"); slope <= 0 || slope >= 1.2 {
			t.Errorf("mfr %s: slope %.2f outside plausible range (min cannot exceed avg)", mfr, slope)
		}
		n := val(t, a, mfrKey(mfr), "n")
		if n < 4 {
			t.Errorf("mfr %s: only %.0f subarray points", mfr, n)
		}
		// Obsv. 15: the minimum is well below the average in every
		// subarray. The artifact stores only the fit, so the pooled
		// points come from the shard's own per-manufacturer compute.
		subs, _, err := fig14Mfr(cfg, mfr)
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != int(n) {
			t.Fatalf("mfr %s: %d pooled subarrays, artifact fit over %.0f", mfr, len(subs), n)
		}
		for _, s := range subs {
			if s.Min > s.Avg {
				t.Fatalf("mfr %s: subarray %d min %.0f above avg %.0f", mfr, s.Subarray, s.Min, s.Avg)
			}
		}
	}
}

func TestFig15SubarraySimilarity(t *testing.T) {
	a := tinyArtifact(t, "fig15")
	for _, mfr := range a.Shards {
		same, diff := series(t, a, mfrKey(mfr)+"/same"), series(t, a, mfrKey(mfr)+"/diff")
		if len(same) == 0 || len(diff) == 0 {
			t.Fatalf("mfr %s: missing pair populations", mfr)
		}
		p5Same, p5Diff := fig15P5(same), fig15P5(diff)
		// Obsv. 16: same-module subarrays are at least as similar as
		// different-module subarrays. The separation scales with
		// module-to-module variation, so it is only individually
		// assertable for the high-variation manufacturers (B, C);
		// for A and D at this sample size the populations overlap.
		switch mfr {
		case "B", "C":
			if p5Same <= p5Diff {
				t.Errorf("mfr %s: P5 same %.3f not above P5 diff %.3f", mfr, p5Same, p5Diff)
			}
		default:
			if p5Same < p5Diff-0.2 {
				t.Errorf("mfr %s: P5 same %.3f far below P5 diff %.3f", mfr, p5Same, p5Diff)
			}
		}
	}
}

func TestAttack1InformedChoice(t *testing.T) {
	a := tinyArtifact(t, "atk1")
	for _, mfr := range a.Shards {
		informed, median := val(t, a, mfrKey(mfr), "informed_hc"), val(t, a, mfrKey(mfr), "median_hc")
		if informed > median {
			t.Errorf("mfr %s: informed HC %.0f above median %.0f", mfr, informed, median)
		}
		if val(t, a, mfrKey(mfr), "reduction") < 0 {
			t.Errorf("mfr %s: negative reduction", mfr)
		}
	}
}

func TestAttack2TriggerCensus(t *testing.T) {
	res, err := Attack2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AboveCellFrac <= 0 {
		t.Fatal("no at-or-above sensor cells found")
	}
	if res.TriggerFound && !res.Valid {
		t.Fatalf("trigger found but misbehaved: below=%v above=%v", res.FiredBelow, res.FiredAbove)
	}
}

func TestAttack3ExtendedOnTime(t *testing.T) {
	a := tinyArtifact(t, "atk3")
	measured := 0
	for _, mfr := range a.Shards {
		// The result row is present only for manufacturers whose
		// module produced a usable sample at test scale.
		key := mfrKey(mfr) + "/res"
		if a.Row(key) == nil {
			continue
		}
		measured++
		if r := val(t, a, key, "reduction"); r <= 0.05 {
			t.Errorf("mfr %s: HC reduction %.2f, want > 0.05 (paper ≈36%%)", mfr, r)
		}
		if r := val(t, a, key, "ber_ratio"); r > 0 && r <= 1 {
			t.Errorf("mfr %s: BER ratio %.2f, want > 1 (paper 3.2–10.2x)", mfr, r)
		}
		if val(t, a, key, "base_prevented") == 0 {
			t.Errorf("mfr %s: defense failed to stop the baseline attack", mfr)
		}
		if val(t, a, key, "ext_defeats") == 0 {
			t.Errorf("mfr %s: extended attack did not defeat the threshold defense", mfr)
		}
	}
	if measured == 0 {
		t.Fatal("no manufacturers measured")
	}
}

func TestDefense1RowAwareSavings(t *testing.T) {
	a := tinyArtifact(t, "def1")
	for _, mfr := range a.Shards {
		key := mfrKey(mfr)
		if val(t, a, key, "p5_hc") <= val(t, a, key, "worst_hc") {
			t.Errorf("mfr %s: P5 HC not above worst case", mfr)
		}
		// At test scale the measured P5/worst ratio understates the
		// paper's 2× (few rows ⇒ the empirical P5 hugs the min), so
		// only the direction is asserted here; EXPERIMENTS.md records
		// the full-scale values.
		gRed, bRed := val(t, a, key, "graphene_red"), val(t, a, key, "bh_red")
		if gRed <= 0 {
			t.Errorf("mfr %s: Graphene saving %.2f, want positive", mfr, gRed)
		}
		if bRed <= 0 {
			t.Errorf("mfr %s: BlockHammer saving %.2f, want positive", mfr, bRed)
		}
		// Graphene benefits more from threshold relaxation than
		// BlockHammer (steeper area law).
		if gRed <= bRed {
			t.Errorf("mfr %s: Graphene saving %.2f should exceed BlockHammer %.2f", mfr, gRed, bRed)
		}
		if val(t, a, key, "para_relaxed") >= val(t, a, key, "para_base") {
			t.Errorf("mfr %s: relaxed PARA slowdown not lower", mfr)
		}
	}
}

func TestDefense2SampledProfiling(t *testing.T) {
	a := tinyArtifact(t, "def2")
	measured := 0
	for _, mfr := range a.Shards {
		// A manufacturer lacking the modules or subarrays for the
		// transfer study at test scale publishes no row.
		if a.Row(mfrKey(mfr)) == nil {
			continue
		}
		measured++
		if s := val(t, a, mfrKey(mfr), "speedup"); s < 2 {
			t.Errorf("mfr %s: speedup %.0f < 2", mfr, s)
		}
		if e := val(t, a, mfrKey(mfr), "rel_error"); e < -0.6 || e > 0.6 {
			t.Errorf("mfr %s: estimate off by %+.0f%%", mfr, 100*e)
		}
	}
	if measured == 0 {
		t.Fatal("no results")
	}
}

func TestDefense3Retirement(t *testing.T) {
	res, err := Defense3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfiledRows == 0 {
		t.Fatal("no rows profiled")
	}
	if res.Coverage < 0.999 {
		t.Fatalf("retirement coverage %.3f, want 1.0 (policy built from the same profile)", res.Coverage)
	}
}

func TestDefense4Cooling(t *testing.T) {
	a := tinyArtifact(t, "def4")
	if r := val(t, a, mfrKey("A"), "ber_reduction"); r <= 0 {
		t.Errorf("Mfr A cooling reduction %.2f, want positive (paper ≈25%%)", r)
	}
	if r := val(t, a, mfrKey("B"), "ber_reduction"); r >= 0 {
		t.Errorf("Mfr B cooling reduction %.2f, want negative (B worsens when cooled)", r)
	}
}

func TestDefense5OpenTimeLimiter(t *testing.T) {
	res, err := Defense5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtendedHC >= res.BaselineHC {
		t.Fatalf("extended attack HC %d not below baseline %d", res.ExtendedHC, res.BaselineHC)
	}
	if res.LimitedHC != res.BaselineHC {
		t.Fatalf("limiter should restore baseline HCfirst: %d vs %d", res.LimitedHC, res.BaselineHC)
	}
	if res.ExtraActs == 0 {
		t.Fatal("limiter cost not accounted")
	}
	// Scheduler proxy: a bounded open time costs a benign streaming
	// workload some latency, far below a closed-page policy, while
	// enforcing the cap.
	if res.BenignSlowdown < 0 || res.BenignSlowdown > 0.5 {
		t.Fatalf("benign slowdown %.2f implausible", res.BenignSlowdown)
	}
	if res.MaxRowOpenNsCapped <= 0 {
		t.Fatal("cap bound not measured")
	}
}

func TestDefense6ColumnAwareECC(t *testing.T) {
	a := tinyArtifact(t, "def6")
	for _, mfr := range a.Shards {
		if r := val(t, a, mfrKey(mfr), "exposure_ratio"); r >= 1 {
			t.Errorf("mfr %s: column-aware ECC exposure ratio %.2f, want < 1", mfr, r)
		}
	}
}

func TestRunAllPrintersProduceOutput(t *testing.T) {
	// Smoke-run the cheap printers end to end.
	for _, id := range []string{"table2", "fig6"} {
		e := ByID(id)
		var buf bytes.Buffer
		cfg := tinyConfig()
		cfg.Out = &buf
		if err := e.Run(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestCheapPrintersSmoke(t *testing.T) {
	// End-to-end smoke of printers not covered elsewhere; the heavy
	// sweep printers render the artifacts the trend tests assert on.
	for _, id := range []string{"wcdp", "defcompare", "manysided", "interference", "def5"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e := ByID(id)
			if e == nil {
				t.Fatalf("experiment %s missing", id)
			}
			var buf bytes.Buffer
			cfg := tinyConfig()
			cfg.Out = &buf
			if err := e.Run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("no output")
			}
		})
	}
}
