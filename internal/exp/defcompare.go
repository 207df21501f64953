package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	rh "rowhammer"
	"rowhammer/internal/artifact"
	"rowhammer/internal/defense"
	"rowhammer/internal/dram"
	"rowhammer/internal/sched"
)

// DefCompareRow is one mechanism's scorecard.
type DefCompareRow struct {
	Name string
	// AttackFlips under a full-window double-sided attack (0 = safe).
	AttackFlips int
	// AttackRefreshes/Throttle are the mitigation activity during the
	// attack.
	AttackRefreshes int64
	ThrottleMs      float64
	// BenignRefreshRate is preventive refreshes per benign activation.
	BenignRefreshRate float64
	// AreaPct is the estimated die-area cost where a model exists
	// (negative = not modeled).
	AreaPct float64
}

// DefCompareResult is the full comparison on one module.
type DefCompareResult struct {
	Mfr       string
	Threshold int64
	Rows      []DefCompareRow
}

// DefCompare evaluates PARA, Graphene, TWiCe, BlockHammer and
// RFM+SilverBullet against the same attack and the same benign
// workload on one Mfr A module — the systems view behind §8.2's
// improvement discussion.
func DefCompare(cfg Config) (DefCompareResult, error) {
	cfg = cfg.normalize()
	res := DefCompareResult{Mfr: "A"}
	mkBench := func() (*rh.Bench, error) {
		return rh.NewBench(rh.BenchConfig{
			Profile:  rh.ProfileByName("A"),
			Seed:     moduleSeed(cfg, "A", 21),
			Geometry: cfg.Geometry,
		})
	}
	// Derive the protection threshold from a quick HCfirst probe.
	b0, err := mkBench()
	if err != nil {
		return res, err
	}
	t0 := rh.NewTester(b0)
	victim := sampleRows(cfg, 4)[1]
	hc, err := t0.HCFirst(rh.HCFirstConfig{Bank: 0, VictimPhys: victim, Pattern: rh.PatCheckered, Trial: 1, MaxHammers: cfg.Scale.MaxHammers})
	if err != nil {
		return res, err
	}
	if !hc.Found {
		return res, fmt.Errorf("exp: probe victim not vulnerable")
	}
	threshold := hc.HCfirst / 2
	res.Threshold = threshold
	rows := cfg.Geometry.RowsPerBank
	tm := b0.Timing()

	benign := sched.Generate(sched.WorkloadConfig{
		Requests: 30_000, Banks: cfg.Geometry.Banks, Rows: rows,
		Cols: cfg.Geometry.ColumnsPerRow, Locality: 0.7,
		InterArrival: dram.PicosFromNs(40), Seed: cfg.Seed,
	})

	mechs := []struct {
		name string
		mk   func() defense.Mechanism
		area float64
		// autoRefresh: throttling defenses need the refresh window
		// modeled to be meaningful.
		autoRefresh bool
	}{
		{"PARA", func() defense.Mechanism {
			return defense.NewPARA(defense.PARAProbability(threshold, 1e-12), rows, 31)
		}, 0, false},
		{"Graphene", func() defense.Mechanism {
			return defense.NewGraphene(threshold, defense.GrapheneTableSize(cfg.Scale.MaxHammers*2, threshold), rows)
		}, defense.GrapheneArea(threshold), false},
		{"TWiCe", func() defense.Mechanism {
			return defense.NewTWiCe(threshold, tm.TREFW, rows)
		}, -1, false},
		{"BlockHammer", func() defense.Mechanism {
			return defense.NewBlockHammer(threshold, defense.SafeDelay(2*threshold, tm.TREFW), 8192, 4, tm.TREFW/2, 31)
		}, defense.BlockHammerArea(threshold), true},
		{"RFM+SilverBullet", func() defense.Mechanism {
			return defense.NewRFMSilverBullet(threshold/2, 32, 8, rows)
		}, -1, false},
	}

	for _, mc := range mechs {
		if err := cfg.Ctx.Err(); err != nil {
			return res, err
		}
		b, err := mkBench()
		if err != nil {
			return res, err
		}
		mech := mc.mk()
		ev, err := defense.Evaluate(defense.EvalConfig{
			Bench: b, Mechanism: mech, Bank: 0, VictimPhys: victim,
			Hammers: cfg.Scale.MaxHammers, Pattern: rh.PatCheckered, Trial: 1,
			AutoRefresh: mc.autoRefresh,
		})
		if err != nil {
			return res, err
		}
		mech.Reset()
		bo := defense.BenignOverhead(mech, benign)
		res.Rows = append(res.Rows, DefCompareRow{
			Name:              mc.name,
			AttackFlips:       ev.VictimFlips,
			AttackRefreshes:   ev.PreventiveRefreshes,
			ThrottleMs:        float64(ev.ThrottleDelay) / 1e9,
			BenignRefreshRate: bo.RefreshRate,
			AreaPct:           mc.area * 100,
		})
	}
	return res, nil
}

// defCompareShard measures the mechanism scorecard (single shard:
// every mechanism faces the same module and workload).
func defCompareShard(ctx context.Context, cfg Config, shard string) (*artifact.Artifact, error) {
	cfg = cfg.WithContext(ctx).normalize()
	res, err := DefCompare(cfg)
	if err != nil {
		return nil, err
	}
	a := artifact.New(shard)
	a.AddRow("probe").Tag("mfr", res.Mfr).
		SetInt("threshold", res.Threshold).SetInt("max_hammers", cfg.Scale.MaxHammers)
	for i, r := range res.Rows {
		a.AddRow(fmt.Sprintf("mech=%02d", i)).Tag("name", r.Name).
			SetInt("attack_flips", int64(r.AttackFlips)).
			SetInt("attack_refreshes", r.AttackRefreshes).
			Set("throttle_ms", r.ThrottleMs).
			Set("benign_refresh_rate", r.BenignRefreshRate).
			Set("area_pct", r.AreaPct)
	}
	return a, nil
}

// renderDefCompare prints the comparison from the artifact.
func renderDefCompare(out io.Writer, a *artifact.Artifact) error {
	p := a.Row("probe")
	if p == nil {
		return fmt.Errorf("exp: defcompare artifact missing probe row")
	}
	fmt.Fprintf(out, "Mfr. %s module, protection threshold %d (half the probed HCfirst), %d-hammer attack\n",
		p.Label("mfr"), p.Int("threshold"), p.Int("max_hammers"))
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mechanism\tattack flips\tattack refreshes\tthrottle (ms)\tbenign refresh rate\tarea (% die)")
	for _, r := range a.RowsWithPrefix("mech=") {
		area := "n/a"
		if r.V("area_pct") >= 0 {
			area = fmt.Sprintf("%.2f", r.V("area_pct"))
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.4f\t%s\n",
			r.Label("name"), r.Int("attack_flips"), r.Int("attack_refreshes"),
			r.V("throttle_ms"), r.V("benign_refresh_rate"), area)
	}
	return w.Flush()
}
