package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/attack"
	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
)

// Extension experiments beyond the paper's numbered artifacts, within
// its scope: the DDR3 verification the paper mentions for Obsv. 2, a
// TRRespass-style many-sided attack against the in-DRAM TRR sampler
// (§2.3 background), and the §4.2 interference checklist.

// ddr3Mfr sweeps one manufacturer's DDR3 module across the study
// temperatures.
func ddr3Mfr(cfg Config, mfr string) (*rh.TempClusterMatrix, error) {
	geo := cfg.Geometry
	b, err := rh.NewBench(rh.BenchConfig{
		Profile:  rh.ProfileByName(mfr),
		Seed:     moduleSeed(cfg, mfr, 100), // distinct from DDR4 instances
		Geometry: geo,
		Timing:   rh.DDR3Timing(),
	})
	if err != nil {
		return nil, err
	}
	t := rh.NewTester(b)
	sweep, err := t.TemperatureSweep(cfg.Ctx, rh.TempSweepConfig{
		Bank:        0,
		Victims:     sampleRows(cfg, tempSweepRows),
		Hammers:     2 * cfg.Scale.Hammers,
		Pattern:     rh.PatCheckered,
		Repetitions: cfg.Scale.Repetitions,
	})
	if err != nil {
		return nil, err
	}
	return sweep.ClusterByRange(), nil
}

// ddr3Shard measures one manufacturer's DDR3 verification.
func ddr3Shard(ctx context.Context, cfg Config, mfr string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	m, err := ddr3Mfr(cfg, mfr)
	if err != nil {
		return nil, err
	}
	a := artifact.New(mfr)
	a.AddRow(mfrKey(mfr)).
		SetInt("vulnerable", int64(m.Total)).
		Set("full_range_frac", m.FullRangeFraction()).
		Set("no_gap_frac", m.NoGapFraction())
	return a, nil
}

// renderDDR3 prints the DDR3 verification from the artifact.
func renderDDR3(out io.Writer, a *artifact.Artifact) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mfr (DDR3)\tvulnerable cells\tfull-range fraction\tno-gap fraction")
	for _, mfr := range a.Shards {
		r := a.Row(mfrKey(mfr))
		if r == nil {
			return fmt.Errorf("exp: ddr3 artifact missing shard %s", mfr)
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\n", mfr, r.Int("vulnerable"),
			pct(r.V("full_range_frac")), pct(r.V("no_gap_frac")))
	}
	return w.Flush()
}

// ManySidedResult compares double-sided and TRRespass-style many-sided
// attacks against a TRR-protected module under a realistic refresh
// stream.
type ManySidedResult struct {
	// DoubleFlips/ManyFlips are victim bit flips under each pattern.
	DoubleFlips, ManyFlips int
	// TRRRefreshesDouble/Many count targeted refreshes TRR performed.
	TRRRefreshesDouble, TRRRefreshesMany int64
}

// trrAttack hammers a TRR-protected module with refresh commands
// interleaved at a realistic cadence, using the given aggressor set.
// rounds is the number of passes over the aggressor list, so the
// victim's nominal double-sided exposure is identical across patterns
// (each pass activates its two adjacent aggressors once).
func trrAttack(cfg Config, aggressors []int, victim int, rounds int64) (int, int64, error) {
	trr := dram.TRRConfig{TableSize: 4, SampleProb: 1.0 / 9, Threshold: 12_000, Seed: 3}
	b, err := rh.NewBench(rh.BenchConfig{
		Profile:  rh.ProfileByName("A"),
		Seed:     moduleSeed(cfg, "A", 7),
		Geometry: cfg.Geometry,
		TRR:      &trr,
	})
	if err != nil {
		return 0, 0, err
	}
	t := rh.NewTester(b)
	if err := t.InitPattern(0, victim, rh.PatCheckered); err != nil {
		return 0, 0, err
	}
	b.Model.SetSalt(1)
	defer b.Model.SetSalt(0)

	tm := b.Timing()
	ex := b.Exec
	const chunk = int64(1024)
	logical := make([]int, len(aggressors))
	for i, a := range aggressors {
		logical[i] = t.LogicalRow(a)
	}
	for issued := int64(0); issued < rounds; issued += chunk {
		if err := cfg.Ctx.Err(); err != nil {
			return 0, 0, err
		}
		n := chunk
		if issued+n > rounds {
			n = rounds - issued
		}
		bld := softmc.NewBuilder(tm.TCK)
		bld.Hammer(0, logical, n, tm.TRAS, tm.TRP)
		if _, err := ex.Run(bld.Program()); err != nil {
			return 0, 0, err
		}
		// A defended system refreshes continuously: issue a burst of
		// REFs after each chunk (TRR rides on REF).
		rb := softmc.NewBuilder(tm.TCK)
		rb.Wait(tm.TRP)
		for i := 0; i < 4; i++ {
			rb.Ref().Wait(tm.TRFC)
		}
		if _, err := ex.Run(rb.Program()); err != nil {
			return 0, 0, err
		}
	}
	flips, err := t.ReadFlips(0, victim, victim, rh.PatCheckered)
	if err != nil {
		return 0, 0, err
	}
	return flips.Count(), b.Module.Stats().TRRRefreshes, nil
}

// ManySided runs the comparison.
func ManySided(cfg Config) (ManySidedResult, error) {
	cfg = cfg.normalize()
	var res ManySidedResult
	// Keep the victim (and the many-sided decoy window) clear of
	// subarray edges.
	victim := cfg.Geometry.RowsPerBank/2 + 17
	const rounds = 250_000
	var err error
	res.DoubleFlips, res.TRRRefreshesDouble, err = trrAttack(cfg,
		attack.AggressorRows(attack.DoubleSided, victim, 0), victim, rounds)
	if err != nil {
		return res, err
	}
	res.ManyFlips, res.TRRRefreshesMany, err = trrAttack(cfg,
		attack.AggressorRows(attack.ManySided, victim, 8), victim, rounds)
	if err != nil {
		return res, err
	}
	return res, nil
}

// manySidedShard measures the TRR-evasion comparison (single shard:
// both attacks target the same module).
func manySidedShard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	res, err := ManySided(cfg)
	if err != nil {
		return nil, err
	}
	a := artifact.New(shard)
	a.AddRow("double").SetInt("flips", int64(res.DoubleFlips)).SetInt("trr_refreshes", res.TRRRefreshesDouble)
	a.AddRow("many").SetInt("flips", int64(res.ManyFlips)).SetInt("trr_refreshes", res.TRRRefreshesMany)
	return a, nil
}

// renderManySided prints the TRR-evasion comparison from the artifact.
func renderManySided(out io.Writer, a *artifact.Artifact) error {
	d, m := a.Row("double"), a.Row("many")
	if d == nil || m == nil {
		return fmt.Errorf("exp: manysided artifact missing attack rows")
	}
	fmt.Fprintf(out, "double-sided vs TRR: %d victim flips (%d targeted refreshes)\n",
		d.Int("flips"), d.Int("trr_refreshes"))
	fmt.Fprintf(out, "many-sided  vs TRR: %d victim flips (%d targeted refreshes)\n",
		m.Int("flips"), m.Int("trr_refreshes"))
	return nil
}

// InterferenceResult is the §4.2 "disabling sources of interference"
// checklist, verified by measurement.
type InterferenceResult struct {
	// HCfirstDuration is the longest single HCfirst test in DRAM time;
	// the paper bounds tests to 64 ms.
	HCfirstDuration dram.Picos
	// RetentionFlips observed with the retention model *enabled*
	// during a full HCfirst search (must be 0 for a valid
	// methodology).
	RetentionFlips int64
	// TRRActivity with TRR silicon present but no REF issued (must be
	// 0: §4.2 neutralizes TRR by withholding refresh).
	TRRActivity int64
	// ECCMasking: flips hidden by on-die ECC when enabled vs the
	// paper's no-ECC modules (non-zero, demonstrating why the study
	// excludes ECC modules).
	ECCRawFlips, ECCVisibleFlips int
}

// Interference verifies the methodology's isolation properties.
func Interference(cfg Config) (InterferenceResult, error) {
	cfg = cfg.normalize()
	var res InterferenceResult

	// 1+2: retention-enabled bench; run an HCfirst search and verify
	// the test stays inside the retention-safe window.
	ret := dram.DefaultRetentionConfig()
	trr := dram.DefaultTRRConfig()
	b, err := rh.NewBench(rh.BenchConfig{
		Profile:   rh.ProfileByName("A"),
		Seed:      moduleSeed(cfg, "A", 11),
		Geometry:  cfg.Geometry,
		Retention: &ret,
		TRR:       &trr,
	})
	if err != nil {
		return res, err
	}
	t := rh.NewTester(b)
	victim := sampleRows(cfg, 4)[1]
	if err := cfg.Ctx.Err(); err != nil {
		return res, err
	}
	start := b.Exec.Now()
	if _, err := t.Hammer(rh.HammerConfig{
		Bank: 0, VictimPhys: victim, Hammers: cfg.Scale.MaxHammers,
		Pattern: rh.PatCheckered, Trial: 1,
	}); err != nil {
		return res, err
	}
	res.HCfirstDuration = b.Exec.Now() - start
	res.RetentionFlips = b.Module.Stats().RetentionFlips
	res.TRRActivity = b.Module.Stats().TRRRefreshes

	// 3: ECC masking on an otherwise identical module.
	mkFlips := func(ecc bool) (int, error) {
		if err := cfg.Ctx.Err(); err != nil {
			return 0, err
		}
		be, err := rh.NewBench(rh.BenchConfig{
			Profile:  rh.ProfileByName("A"),
			Seed:     moduleSeed(cfg, "A", 11),
			Geometry: cfg.Geometry,
			OnDieECC: ecc,
		})
		if err != nil {
			return 0, err
		}
		te := rh.NewTester(be)
		hr, err := te.Hammer(rh.HammerConfig{
			Bank: 0, VictimPhys: victim, Hammers: cfg.Scale.Hammers,
			Pattern: rh.PatCheckered, Trial: 1,
		})
		if err != nil {
			return 0, err
		}
		return hr.Victim.Count(), nil
	}
	if res.ECCRawFlips, err = mkFlips(false); err != nil {
		return res, err
	}
	if res.ECCVisibleFlips, err = mkFlips(true); err != nil {
		return res, err
	}
	return res, nil
}

// interferenceShard measures the §4.2 checklist (single shard: one
// instrumented module).
func interferenceShard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	res, err := Interference(cfg)
	if err != nil {
		return nil, err
	}
	a := artifact.New(shard)
	a.AddRow("checklist").
		SetInt("duration_ps", int64(res.HCfirstDuration)).
		SetInt("retention_flips", res.RetentionFlips).
		SetInt("trr_activity", res.TRRActivity).
		SetInt("ecc_raw", int64(res.ECCRawFlips)).
		SetInt("ecc_visible", int64(res.ECCVisibleFlips))
	return a, nil
}

// renderInterference prints the checklist from the artifact.
func renderInterference(out io.Writer, a *artifact.Artifact) error {
	r := a.Row("checklist")
	if r == nil {
		return fmt.Errorf("exp: interference artifact missing checklist row")
	}
	fmt.Fprintf(out, "longest hammer test: %.1f ms of DRAM time (budget: 64 ms)\n",
		float64(r.Int("duration_ps"))/1e9)
	fmt.Fprintf(out, "retention flips during test (model enabled): %d\n", r.Int("retention_flips"))
	fmt.Fprintf(out, "TRR refreshes without REF commands: %d\n", r.Int("trr_activity"))
	fmt.Fprintf(out, "ECC masking: %d raw flips → %d visible with on-die ECC\n",
		r.Int("ecc_raw"), r.Int("ecc_visible"))
	return nil
}
