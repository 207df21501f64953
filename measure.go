package rowhammer

import (
	"context"
	"fmt"

	"rowhammer/internal/dram"
	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
	"rowhammer/internal/stats"
)

// Per-module measurement cores. Each core runs the full §4.2
// methodology for one module under test — worst-case data pattern
// first, then the kind-specific measurement — and supports cooperative
// cancellation between measurement steps. The experiment drivers in
// internal/exp and the fleet campaign engine both build on these, so a
// campaign job measures a module exactly the way the corresponding
// paper experiment does.

// ModuleSeed derives the deterministic seed of module instance i of a
// manufacturer from a master seed. Every layer that fans a master seed
// out to module instances (experiment drivers, fleet campaigns) uses
// this one derivation, which is what makes their results comparable.
func ModuleSeed(master uint64, mfr string, i int) uint64 {
	var m uint64
	if mfr != "" {
		m = uint64(mfr[0])
	}
	return rng.Hash64(master, m, uint64(i))
}

// SampleRows subsamples the scale's region rows down to at most n,
// evenly spaced, preserving first/middle/last region coverage.
func (s Scale) SampleRows(g Geometry, n int) []int {
	rows := s.RegionRows(g)
	if n <= 0 || len(rows) <= n {
		return rows
	}
	out := make([]int, 0, n)
	step := float64(len(rows)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, rows[int(float64(i)*step)])
	}
	return out
}

// PatternFlips is one pattern's total flip count over the surveyed
// victims.
type PatternFlips struct {
	Pattern PatternKind
	Flips   int
}

// PatternSurvey is the result of probing every Table 1 data pattern on
// a victim sample (§4.2's WCDP step).
type PatternSurvey struct {
	// Totals lists per-pattern flip counts in AllPatterns order (an
	// array, so a survey allocates nothing).
	Totals [dram.NumPatterns]PatternFlips
	// Best is the worst-case data pattern (most flips; ties go to the
	// earlier pattern in AllPatterns order, matching the paper driver).
	Best PatternKind
	// BestFlips and WorstFlips are the flip counts under the strongest
	// and weakest pattern.
	BestFlips, WorstFlips int
}

// SurveyPatterns hammers the victim sample once per Table 1 pattern
// and tallies the victims' flips (it reads nothing else), identifying
// the module's worst-case data pattern. It checks ctx between patterns.
func (t *Tester) SurveyPatterns(ctx context.Context, bank int, victims []int, hammers int64) (PatternSurvey, error) {
	var s PatternSurvey
	if len(victims) == 0 {
		return s, fmt.Errorf("rowhammer: pattern survey needs victim rows")
	}
	bestFlips, worstFlips := -1, -1
	for i, pat := range dram.AllPatterns {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		total := 0
		for _, v := range victims {
			if err := t.hammerInto(HammerConfig{
				Bank: bank, VictimPhys: v, Hammers: hammers, Pattern: pat, Trial: 1,
			}, &t.victimRes, false); err != nil {
				return s, err
			}
			total += t.victimRes.Victim.Count()
		}
		s.Totals[i] = PatternFlips{Pattern: pat, Flips: total}
		if total > bestFlips {
			bestFlips = total
			s.Best = pat
		}
		if worstFlips < 0 || total < worstFlips {
			worstFlips = total
		}
	}
	s.BestFlips = bestFlips
	s.WorstFlips = worstFlips
	return s, nil
}

// MeasureScope bounds one module's fleet measurement.
type MeasureScope struct {
	// Scale bounds the measurement work; the zero value selects
	// DefaultScale().
	Scale Scale
	// Bank under test.
	Bank int
	// Temps is the BER temperature grid; empty selects StudyTemps().
	Temps []float64
}

// normalize fills the scope's defaults; a malformed caller-supplied
// temperature grid is rejected as ValidateTempGrid rejects it.
func (sc MeasureScope) normalize() (MeasureScope, error) {
	err := FillMeasureDefaults(&sc.Scale, nil, nil, &sc.Temps)
	return sc, err
}

// Per-kind victim budgets, matching the corresponding experiment
// drivers in internal/exp.
const (
	wcdpProbeRows    = 3
	wcdpSurveyRows   = 6
	berMeasureRows   = 16
	hcProfileRows    = 24
	spatialRowBudget = 40
)

// ProbeWCDP finds the module's worst-case data pattern (§4.2) on a
// small victim probe: the first step of every per-module fleet
// measurement and of every characterization experiment. sc.Scale
// must be filled (FillMeasureDefaults).
func (t *Tester) ProbeWCDP(ctx context.Context, sc MeasureScope) (PatternKind, error) {
	victims := sc.Scale.SampleRows(t.b.Geometry(), wcdpProbeRows)
	if len(victims) == 0 {
		return PatCheckered, fmt.Errorf("rowhammer: no victim rows available")
	}
	s, err := t.SurveyPatterns(ctx, sc.Bank, victims, sc.Scale.Hammers)
	if err != nil {
		return PatCheckered, err
	}
	return s.Best, nil
}

// MeasureModuleWCDP surveys every Table 1 pattern on the module and
// reports the worst-case pattern and its gain over the weakest one.
func (t *Tester) MeasureModuleWCDP(ctx context.Context, sc MeasureScope) (PatternKind, map[string]float64, map[string][]float64, error) {
	sc, err := sc.normalize()
	if err != nil {
		return PatCheckered, nil, nil, err
	}
	victims := sc.Scale.SampleRows(t.b.Geometry(), wcdpSurveyRows)
	s, err := t.SurveyPatterns(ctx, sc.Bank, victims, sc.Scale.Hammers)
	if err != nil {
		return PatCheckered, nil, nil, err
	}
	perPattern := make([]float64, 0, len(s.Totals))
	for _, pf := range s.Totals {
		perPattern = append(perPattern, float64(pf.Flips))
	}
	metrics := map[string]float64{
		"best_flips":  float64(s.BestFlips),
		"worst_flips": float64(s.WorstFlips),
		// Add-one smoothing: sparse modules can have zero-flip weakest
		// patterns.
		"gain": float64(s.BestFlips+1) / float64(s.WorstFlips+1),
	}
	series := map[string][]float64{"pattern_flips": perPattern}
	return s.Best, metrics, series, nil
}

// MeasureModuleHCFirst measures the module's per-row HCfirst profile
// under its worst-case pattern — the per-module core of the Fig. 11
// row-variation analysis.
func (t *Tester) MeasureModuleHCFirst(ctx context.Context, sc MeasureScope) (PatternKind, map[string]float64, map[string][]float64, error) {
	sc, err := sc.normalize()
	if err != nil {
		return PatCheckered, nil, nil, err
	}
	pat, err := t.ProbeWCDP(ctx, sc)
	if err != nil {
		return pat, nil, nil, err
	}
	rows := sc.Scale.SampleRows(t.b.Geometry(), hcProfileRows)
	profile, err := t.RowHCFirstProfileCtx(ctx, sc.Bank, rows, HCFirstConfig{
		Pattern: pat, MaxHammers: sc.Scale.MaxHammers,
	}, sc.Scale.Repetitions)
	if err != nil {
		return pat, nil, nil, err
	}
	hcs := VulnerableHCs(profile)
	metrics := map[string]float64{
		"rows":       float64(len(rows)),
		"vulnerable": float64(len(hcs)),
	}
	if len(hcs) > 0 {
		s := stats.Summarize(hcs)
		metrics["hc_min"] = s.Min
		metrics["hc_median"] = s.Median
		metrics["hc_p90"] = s.P90
		metrics["hc_mean"] = s.Mean
	}
	series := map[string][]float64{"hc": hcs}
	return pat, metrics, series, nil
}

// MeasureModuleBER sweeps the module across the temperature grid and
// reports per-temperature bit error rates plus the §5 temperature-
// range statistics (no-gap / full-range fractions).
func (t *Tester) MeasureModuleBER(ctx context.Context, sc MeasureScope) (PatternKind, map[string]float64, map[string][]float64, error) {
	sc, err := sc.normalize()
	if err != nil {
		return PatCheckered, nil, nil, err
	}
	pat, err := t.ProbeWCDP(ctx, sc)
	if err != nil {
		return pat, nil, nil, err
	}
	rows := sc.Scale.SampleRows(t.b.Geometry(), berMeasureRows)
	sweep, err := t.TemperatureSweepCtx(ctx, TempSweepConfig{
		Bank:        sc.Bank,
		Victims:     rows,
		Temps:       sc.Temps,
		Hammers:     sc.Scale.Hammers,
		Pattern:     pat,
		Repetitions: sc.Scale.Repetitions,
	})
	if err != nil {
		return pat, nil, nil, err
	}
	rowBits := float64(t.b.Geometry().RowBits())
	flipsPerTemp := make([]float64, len(sweep.Temps))
	berPerTemp := make([]float64, len(sweep.Temps))
	total := 0.0
	for ti := range sweep.Temps {
		flips := 0
		for _, hr := range sweep.Flips[ti] {
			flips += hr.Victim.Count()
		}
		mean := float64(flips) / float64(len(rows))
		flipsPerTemp[ti] = mean
		berPerTemp[ti] = mean / rowBits
		total += float64(flips)
	}
	cluster := sweep.ClusterByRange()
	metrics := map[string]float64{
		"flips_total":      total,
		"ber_mean":         stats.Mean(berPerTemp),
		"ber_max":          stats.Max(berPerTemp),
		"vulnerable_cells": float64(cluster.Total),
		"no_gap_frac":      cluster.NoGapFraction(),
		"full_range_frac":  cluster.FullRangeFraction(),
	}
	series := map[string][]float64{
		"temps":          sweep.Temps,
		"flips_per_temp": flipsPerTemp,
		"ber_per_temp":   berPerTemp,
	}
	return pat, metrics, series, nil
}

// MeasureModuleSpatial profiles the module's HCfirst across rows and
// subarrays — the per-module core of the §7 spatial-variation
// analyses (Figs. 11 and 14).
func (t *Tester) MeasureModuleSpatial(ctx context.Context, sc MeasureScope) (PatternKind, map[string]float64, map[string][]float64, error) {
	sc, err := sc.normalize()
	if err != nil {
		return PatCheckered, nil, nil, err
	}
	pat, err := t.ProbeWCDP(ctx, sc)
	if err != nil {
		return pat, nil, nil, err
	}
	rows := sc.Scale.SampleRows(t.b.Geometry(), spatialRowBudget)
	profile, err := t.RowHCFirstProfileCtx(ctx, sc.Bank, rows, HCFirstConfig{
		Pattern: pat, MaxHammers: sc.Scale.MaxHammers,
	}, sc.Scale.Repetitions)
	if err != nil {
		return pat, nil, nil, err
	}
	metrics := map[string]float64{"rows": float64(len(rows))}
	series := make(map[string][]float64)
	if summary, err := SummarizeRowVariation(profile); err == nil {
		metrics["vulnerable"] = float64(summary.Vulnerable)
		metrics["hc_min"] = summary.MinHC
		metrics["ratio_p99"] = summary.RatioP99
		metrics["ratio_p95"] = summary.RatioP95
		metrics["ratio_p90"] = summary.RatioP90
	} else {
		metrics["vulnerable"] = 0
	}
	subs := GroupBySubarray(t.b.Geometry(), profile)
	metrics["subarrays"] = float64(len(subs))
	subMin := make([]float64, 0, len(subs))
	subAvg := make([]float64, 0, len(subs))
	for _, s := range subs {
		subMin = append(subMin, s.Min)
		subAvg = append(subAvg, s.Avg)
	}
	series["sub_min"] = subMin
	series["sub_avg"] = subAvg
	if fit, err := FitSubarrayMinVsAvg(subs); err == nil {
		metrics["fit_slope"] = fit.Slope
		metrics["fit_r2"] = fit.R2
	}
	return pat, metrics, series, nil
}

// RowHCFirstProfileCtx is RowHCFirstProfile with cooperative
// cancellation between rows. With more than one worker configured
// (SetWorkers) the sampled rows are fanned out over the pool and merged
// back in row order. Each worker builds one hermetic bench clone and,
// before every row, resets it to a snapshot of this bench's chamber
// taken before the fan-out, so every row is measured at the bench's
// current temperature, as the serial loop measures it. Each row's
// measurement is independent on real hardware too (writing the data
// pattern re-senses and resets every row the test touches), so the
// parallel profile is bit-identical to the serial one.
func (t *Tester) RowHCFirstProfileCtx(ctx context.Context, bank int, rows []int, cfg HCFirstConfig, reps int) ([]RowHC, error) {
	if t.effectiveWorkers() > 1 && len(rows) > 1 {
		snap := t.b.Chamber.Clone()
		newClone := func() (*Tester, error) { return t.cloneAt(snap) }
		return pool.MapWith(ctx, t.effectiveWorkers(), len(rows), newClone, func(sub *Tester, i int) (RowHC, error) {
			sub.b.resetAt(snap)
			c := cfg
			c.Bank = bank
			c.VictimPhys = rows[i]
			res, err := sub.HCFirstMin(c, reps)
			if err != nil {
				return RowHC{}, err
			}
			return RowHC{Row: rows[i], HCfirst: res.HCfirst, Found: res.Found}, nil
		})
	}
	out := make([]RowHC, 0, len(rows))
	for _, row := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c := cfg
		c.Bank = bank
		c.VictimPhys = row
		res, err := t.HCFirstMin(c, reps)
		if err != nil {
			return nil, err
		}
		out = append(out, RowHC{Row: row, HCfirst: res.HCfirst, Found: res.Found})
	}
	return out, nil
}

// TemperatureSweepCtx is TemperatureSweep with cooperative
// cancellation between temperature points.
func (t *Tester) TemperatureSweepCtx(ctx context.Context, cfg TempSweepConfig) (*TempSweepResult, error) {
	return t.temperatureSweep(ctx, cfg)
}
