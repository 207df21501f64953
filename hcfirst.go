package rowhammer

import "fmt"

// HCFirstAccuracy is the binary-search resolution of HCfirst
// measurements: 512 row activations, as in §4.2.
const HCFirstAccuracy = 512

// hcFirstStart is the paper's initial probe hammer count.
const hcFirstStart = 256_000

// HCFirstResult reports the minimum hammer count at which a victim row
// first shows a bit flip.
type HCFirstResult struct {
	// HCfirst is the measured minimum hammer count; valid only when
	// Found.
	HCfirst int64
	// Found is false when the row shows no flips up to MaxHammers.
	Found bool
	// Probes counts the binary-search tests performed.
	Probes int
}

// HCFirstConfig configures an HCfirst search.
type HCFirstConfig struct {
	Bank       int
	VictimPhys int
	// MaxHammers caps the search (paper: 512K, < 64 ms of hammering).
	MaxHammers int64
	AggOnNs    float64
	AggOffNs   float64
	Pattern    PatternKind
	Trial      uint64
}

// HCFirst finds the minimum hammer count producing at least one bit
// flip in the victim row, using the paper's binary search: start at
// 256K hammers, step Δ=128K, halving Δ after every probe until it
// reaches 512.
func (t *Tester) HCFirst(cfg HCFirstConfig) (HCFirstResult, error) {
	if cfg.MaxHammers <= 0 {
		cfg.MaxHammers = 512_000
	}
	var out HCFirstResult

	// Probes read only the victim: the search observes nothing else.
	res := &t.probeRes
	probe := func(hc int64) (bool, error) {
		out.Probes++
		err := t.hammerInto(HammerConfig{
			Bank:       cfg.Bank,
			VictimPhys: cfg.VictimPhys,
			Hammers:    hc,
			AggOnNs:    cfg.AggOnNs,
			AggOffNs:   cfg.AggOffNs,
			Pattern:    cfg.Pattern,
			Trial:      cfg.Trial,
		}, res, false)
		if err != nil {
			return false, err
		}
		return res.Victim.Count() > 0, nil
	}

	hc := int64(hcFirstStart)
	if hc > cfg.MaxHammers {
		hc = cfg.MaxHammers
	}
	lowestFail := int64(-1)
	for delta := int64(128_000); delta >= HCFirstAccuracy; delta /= 2 {
		flipped, err := probe(hc)
		if err != nil {
			return out, fmt.Errorf("rowhammer: HCfirst probe at %d: %w", hc, err)
		}
		if flipped {
			if lowestFail < 0 || hc < lowestFail {
				lowestFail = hc
			}
			hc -= delta
			if hc < HCFirstAccuracy {
				hc = HCFirstAccuracy
			}
		} else {
			hc += delta
			if hc > cfg.MaxHammers {
				hc = cfg.MaxHammers
			}
		}
	}
	// Final probe at the converged point.
	flipped, err := probe(hc)
	if err != nil {
		return out, err
	}
	if flipped && (lowestFail < 0 || hc < lowestFail) {
		lowestFail = hc
	}
	if lowestFail < 0 {
		return out, nil
	}
	out.HCfirst = lowestFail
	out.Found = true
	return out, nil
}

// HCFirstMin repeats the search over the given trial numbers and
// returns the minimum HCfirst found (the paper repeats each test five
// times and keeps the minimum).
func (t *Tester) HCFirstMin(cfg HCFirstConfig, repetitions int) (HCFirstResult, error) {
	if repetitions < 1 {
		repetitions = 1
	}
	t.declareTrialSalts(repetitions)
	var best HCFirstResult
	for rep := 0; rep < repetitions; rep++ {
		c := cfg
		c.Trial = uint64(rep) + 1
		res, err := t.HCFirst(c)
		if err != nil {
			return best, err
		}
		best.Probes += res.Probes
		if res.Found && (!best.Found || res.HCfirst < best.HCfirst) {
			best.Found = true
			best.HCfirst = res.HCfirst
		}
	}
	return best, nil
}
