package rowhammer

import (
	"testing"

	"rowhammer/internal/dram"
	"rowhammer/internal/softmc"
)

// fullReadHCFirst is the §4.2 bisection of HCFirst built on the public
// Hammer, which reads the victim and both single-sided victims after
// every probe: the reference the victim-only probes must reproduce.
func fullReadHCFirst(t *Tester, cfg HCFirstConfig) (HCFirstResult, error) {
	var out HCFirstResult
	probe := func(hc int64) (bool, error) {
		out.Probes++
		res, err := t.Hammer(HammerConfig{
			Bank: cfg.Bank, VictimPhys: cfg.VictimPhys, Hammers: hc,
			AggOnNs: cfg.AggOnNs, AggOffNs: cfg.AggOffNs, Pattern: cfg.Pattern, Trial: cfg.Trial,
		})
		return res.Victim.Count() > 0, err
	}
	hc := min(int64(hcFirstStart), cfg.MaxHammers)
	lowestFail := int64(-1)
	for delta := int64(128_000); delta >= HCFirstAccuracy; delta /= 2 {
		flipped, err := probe(hc)
		if err != nil {
			return out, err
		}
		if flipped {
			if lowestFail < 0 || hc < lowestFail {
				lowestFail = hc
			}
			hc = max(hc-delta, HCFirstAccuracy)
		} else {
			hc = min(hc+delta, cfg.MaxHammers)
		}
	}
	flipped, err := probe(hc)
	if err != nil {
		return out, err
	}
	if flipped && (lowestFail < 0 || hc < lowestFail) {
		lowestFail = hc
	}
	if lowestFail >= 0 {
		out.HCfirst, out.Found = lowestFail, true
	}
	return out, nil
}

// TestHCFirstVictimOnlyMatchesFullReads: skipping the single-sided
// reads in HCFirst's probes changes no result, across profiles,
// patterns and successive trials on one bench (so state left behind by
// earlier searches is exercised too).
func TestHCFirstVictimOnlyMatchesFullReads(t *testing.T) {
	found := 0
	for _, prof := range []string{"A", "B", "C", "D"} {
		for _, pat := range []PatternKind{PatCheckered, PatRowStripe} {
			fast := NewTester(newBenchFor(t, prof, 21))
			ref := NewTester(newBenchFor(t, prof, 21))
			for trial := uint64(1); trial <= 3; trial++ {
				cfg := HCFirstConfig{Bank: 0, VictimPhys: 100, MaxHammers: 512_000, Pattern: pat, Trial: trial}
				got, err := fast.HCFirst(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fullReadHCFirst(ref, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("profile %s %v trial %d: HCFirst %+v, full-read bisection %+v", prof, pat, trial, got, want)
				}
				if got.Found {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no search found an HCfirst; test vacuous")
	}
}

// earlyOutCounter counts the Disturb calls that get past the fault
// model's early out (the model returns a nil mask when no cell can
// flip).
type earlyOutCounter struct {
	inner dram.Disturber
	full  int
}

func (c *earlyOutCounter) Disturb(ctx dram.DisturbContext) (int, []uint64) {
	n, mask := c.inner.Disturb(ctx)
	if mask != nil {
		c.full++
	}
	return n, mask
}

// TestHCFirstProbeSensesVictimOnly: each HCFirst probe makes at most
// one Disturb call past the early out — the victim's readback. The
// single-sided rows are neither read nor sensed by the next probe's
// pattern write.
func TestHCFirstProbeSensesVictimOnly(t *testing.T) {
	b := newBenchFor(t, "A", 21)
	counter := &earlyOutCounter{inner: b.Model}
	mod, err := dram.NewModule(dram.ModuleConfig{
		Geometry: b.Geometry(), Timing: b.Timing(), Remap: b.Module.Remap(),
		Disturber: counter, InitialTempC: b.Module.Temperature(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Module, b.Exec = mod, softmc.NewExecutor(mod)
	res, err := NewTester(b).HCFirstMin(HCFirstConfig{Bank: 0, VictimPhys: 100, Pattern: PatCheckered}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || counter.full == 0 {
		t.Fatalf("search found nothing (%+v, %d full calls); test vacuous", res, counter.full)
	}
	if counter.full > res.Probes {
		t.Fatalf("%d Disturb calls past the early out over %d probes; want at most one per probe", counter.full, res.Probes)
	}
}
