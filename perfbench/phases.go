package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	rh "rowhammer"
	"rowhammer/internal/campaign"
	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
)

// Victim rows of the pattern survey a measurement core opens with
// (measure.go): the WCDP core's survey is its whole measurement, the
// other cores probe fewer rows to pick their pattern.
const (
	wcdpProbeRows  = 3
	wcdpSurveyRows = 6
)

type measureCore func(*rh.Tester, context.Context, rh.MeasureScope) (rh.PatternKind, map[string]float64, map[string][]float64, error)

// cores maps each measurement kind to its public per-module core and
// the victim rows of the survey inside it.
var cores = map[string]struct {
	run        measureCore
	surveyRows int
}{
	campaign.KindHCFirst: {(*rh.Tester).MeasureModuleHCFirst, wcdpProbeRows},
	campaign.KindBER:     {(*rh.Tester).MeasureModuleBER, wcdpProbeRows},
	campaign.KindWCDP:    {(*rh.Tester).MeasureModuleWCDP, wcdpSurveyRows},
	campaign.KindSpatial: {(*rh.Tester).MeasureModuleSpatial, wcdpProbeRows},
}

// phasePass runs probeJobs over the replayed campaigns of a
// measurement workload; bad counts the jobs it measured differently.
func (l *layers) phasePass(ctx context.Context, w workload, seed uint64, replayed []replayed) (bad int, err error) {
	if !w.measurement {
		return 0, nil
	}
	for i, r := range replayed {
		c, err := resolve(w.spec(seed, i))
		if err != nil {
			return bad, err
		}
		n, err := l.probeJobs(ctx, c, r.records)
		bad += n
		if err != nil {
			return bad, fmt.Errorf("phase pass of campaign %d: %w", i, err)
		}
	}
	return bad, nil
}

// probeJobs is the per-job phase pass, off the campaign path: every
// job of a replayed measurement campaign measured once more, serially
// through the public calls. NewBench/NewTester and SurveyPatterns are
// timed on one fresh bench; the kind's MeasureModule* core runs on
// another, behind a Disturber probe, and rowhammer.measure_s is its
// wall minus the survey's. One inner worker keeps all hammering on the
// probed module (the cores give results identical for every worker
// count), and each record must equal the one the campaign wrote; bad
// counts those that do not.
func (l *layers) probeJobs(ctx context.Context, c resolved, want map[string]campaign.Record) (bad int, err error) {
	scale, geom, temps := c.raw.Scale, c.raw.Geometry, c.Spec.Temps
	if err := rh.FillMeasureDefaults(&scale, &geom, nil, &temps); err != nil {
		return 0, err
	}
	scope := rh.MeasureScope{Scale: scale, Temps: temps}
	for _, job := range campaign.Expand(c.Spec) {
		core, ok := cores[job.Kind]
		if !ok {
			return bad, fmt.Errorf("unknown measurement kind %q", job.Kind)
		}
		cfg := rh.BenchConfig{
			Profile:  rh.ProfileByName(job.Mfr),
			Seed:     rh.ModuleSeed(c.Spec.Seed, job.Mfr, job.Module),
			Geometry: geom,
		}

		t0 := time.Now()
		sb, err := rh.NewBench(cfg)
		if err != nil {
			return bad, err
		}
		st := rh.NewTester(sb)
		st.SetWorkers(1)
		t1 := time.Now()
		if _, err := st.SurveyPatterns(ctx, scope.Bank, scale.SampleRows(geom, core.surveyRows), scale.Hammers); err != nil {
			return bad, err
		}
		t2 := time.Now()

		b, err := rh.NewBench(cfg)
		if err != nil {
			return bad, err
		}
		p, err := attachProbe(b)
		if err != nil {
			return bad, err
		}
		t := rh.NewTester(b)
		t.SetWorkers(1)
		cpu0, t3 := processCPU(), time.Now()
		pat, metrics, series, err := core.run(t, ctx, scope)
		if err != nil {
			return bad, err
		}
		measured, coreCPU := time.Since(t3), processCPU()-cpu0

		got := campaign.Record{Pattern: pat.String(), Metrics: metrics, Series: series}
		if err := sameMeasurement(got, want[job.Key()]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %s: %v\n", job.Key(), err)
			bad++
		}
		l.addPhases(t1.Sub(t0), t2.Sub(t1), measured-t2.Sub(t1), coreCPU, p, b.Module.Stats())
	}
	return bad, nil
}

// sameMeasurement compares the measured part of two records.
func sameMeasurement(got, want campaign.Record) error {
	enc := func(r campaign.Record) string {
		b, _ := json.Marshal(campaign.Record{Pattern: r.Pattern, Metrics: r.Metrics, Series: r.Series})
		return string(b)
	}
	if g, w := enc(got), enc(want); g != w {
		return fmt.Errorf("phase pass measured %s, campaign recorded %s", g, w)
	}
	return nil
}

// disturbProbe wraps the fault model at the dram.Disturber seam. The
// model returns a nil mask when a row's disturbance is below any
// cell's threshold (its early out); the first call for a (bank, row)
// that gets past it is the one that builds the row's candidate set —
// the first touch.
type disturbProbe struct {
	inner               dram.Disturber
	seen                map[[2]int]struct{}
	calls, first        int64
	callTime, firstTime time.Duration
}

func (p *disturbProbe) Disturb(ctx dram.DisturbContext) (int, []uint64) {
	start := time.Now()
	n, mask := p.inner.Disturb(ctx)
	d := time.Since(start)
	p.calls++
	p.callTime += d
	if mask != nil {
		key := [2]int{ctx.Bank, ctx.Row}
		if _, warm := p.seen[key]; !warm {
			p.seen[key] = struct{}{}
			p.first++
			p.firstTime += d
		}
	}
	return n, mask
}

// attachProbe puts the probe between a fresh bench's module and its
// fault model. dram.Module takes its Disturber only at construction,
// so the module is rebuilt from the old one's own settings; it is
// lazily allocated and unused so far, so nothing else differs.
func attachProbe(b *rh.Bench) (*disturbProbe, error) {
	old := b.Module
	p := &disturbProbe{inner: b.Model, seen: map[[2]int]struct{}{}}
	mod, err := dram.NewModule(dram.ModuleConfig{
		Geometry:     old.Geometry(),
		Timing:       old.Timing(),
		Remap:        old.Remap(),
		Disturber:    p,
		Seed:         b.Seed,
		InitialTempC: old.Temperature(),
	})
	if err != nil {
		return nil, err
	}
	b.Module = mod
	b.Exec = softmc.NewExecutor(mod)
	return p, nil
}
