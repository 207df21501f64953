package rowhammer

import "fmt"

// HCFirstAccuracy is the step size at which HCFirst's binary search
// stops halving: Δ starts at 128,000 and halves while it is at least
// HCFirstAccuracy, so the last step is 1000 activations — the search's
// actual resolution — after 8 halvings. It also floors the probed
// hammer count. The paper (§4.2) starts at Δ = 131,072 and halves to
// 512; see EXPERIMENTS.md.
const HCFirstAccuracy = 512

// hcFirstStart is the paper's initial probe hammer count.
const hcFirstStart = 256_000

// hcFirstStartDelta is the first bisection step.
const hcFirstStartDelta = 128_000

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
// 256K hammers, step Δ=128K, halving Δ after every probe while it is
// at least HCFirstAccuracy — 8 probes down to Δ=1000 — then one final
// probe at the converged point.
//
// The 8 loop probes only ask whether the victim flipped, so they
// compare-read it against its pattern (victimFlipped): on a module
// whose fault model answers existence queries, the kernel stops at the
// victim's first flipping cell instead of building every cell the
// probe's hammer count reaches. A loop probe that finds a flip leaves
// the victim stale; the next probe's pattern write overwrites it in
// full before anything reads it. The final probe reads the victim in
// full, so the device state after a search — and any later
// ReadFlips — is exactly that of full reads throughout.
func (t *Tester) HCFirst(cfg HCFirstConfig) (HCFirstResult, error) {
	if cfg.MaxHammers <= 0 {
		cfg.MaxHammers = 512_000
	}
	var out HCFirstResult

	test := HammerConfig{
		Bank:       cfg.Bank,
		VictimPhys: cfg.VictimPhys,
		AggOnNs:    cfg.AggOnNs,
		AggOffNs:   cfg.AggOffNs,
		Pattern:    cfg.Pattern,
		Trial:      cfg.Trial,
	}
	hc := int64(hcFirstStart)
	if hc > cfg.MaxHammers {
		hc = cfg.MaxHammers
	}
	lowestFail := int64(-1)
	for delta := int64(hcFirstStartDelta); delta >= HCFirstAccuracy; delta /= 2 {
		out.Probes++
		test.Hammers = hc
		flipped, err := t.victimFlipped(test)
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
	// Final probe at the converged point, read in full (victim only:
	// the search observes nothing else).
	out.Probes++
	test.Hammers = hc
	res := &t.victimRes
	if err := t.hammerInto(test, res, false); err != nil {
		return out, fmt.Errorf("rowhammer: HCfirst final probe at %d: %w", hc, err)
	}
	if res.Victim.Count() > 0 && (lowestFail < 0 || hc < lowestFail) {
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
