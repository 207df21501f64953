package dram

import "rowhammer/internal/rng"

// TRRConfig configures the in-DRAM Target Row Refresh sampler.
// Real TRR implementations are proprietary; this model captures the
// structure TRRespass reverse engineered: a small table of sampled
// aggressor candidates, refreshed opportunistically during REF.
// The study neutralizes TRR by never issuing REF (§4.2), which this
// model reproduces exactly: no REF, no targeted refresh.
type TRRConfig struct {
	// TableSize is the number of aggressor candidates tracked per bank.
	TableSize int
	// SampleProb is the probability an activation is sampled into the
	// table (probabilistic samplers); 1.0 gives a counter-like tracker.
	SampleProb float64
	// Threshold is the activation count at which a tracked row is
	// treated as an aggressor during the next REF.
	Threshold int64
	// Seed feeds the sampler's PRNG.
	Seed uint64
}

// DefaultTRRConfig mirrors a mid-2010s DDR4 TRR: 4-entry table,
// sparse sampling, 32K threshold.
func DefaultTRRConfig() TRRConfig {
	return TRRConfig{TableSize: 4, SampleProb: 1.0 / 9, Threshold: 32768, Seed: 1}
}

// trrEntry is one tracked aggressor candidate.
type trrEntry struct {
	row   int
	count int64
}

// trrSampler is the per-bank TRR state.
type trrSampler struct {
	cfg     TRRConfig
	entries []trrEntry
	rnd     *rng.Stream
}

func newTRRSampler(cfg TRRConfig, bank int) *trrSampler {
	t := new(trrSampler)
	t.reset(cfg, bank)
	return t
}

// reset returns the sampler to the state newTRRSampler builds: an
// empty table and a freshly seeded PRNG, reusing both in place.
func (t *trrSampler) reset(cfg TRRConfig, bank int) {
	rnd := t.rnd
	if rnd == nil {
		rnd = new(rng.Stream)
	}
	rnd.Reseed(rng.Hash64(cfg.Seed, uint64(bank), 0x7272))
	*t = trrSampler{cfg: cfg, entries: t.entries[:0], rnd: rnd}
}

// observe records an activation of a physical row.
func (t *trrSampler) observe(row int) {
	for i := range t.entries {
		if t.entries[i].row == row {
			t.entries[i].count++
			return
		}
	}
	if !t.rnd.Bernoulli(t.cfg.SampleProb) {
		return
	}
	if len(t.entries) < t.cfg.TableSize {
		t.entries = append(t.entries, trrEntry{row: row, count: 1})
		return
	}
	// FIFO eviction: sampled insertions push out the oldest entry.
	// TRRespass reverse engineering shows deployed samplers behave
	// this way, which is exactly what many-sided attack patterns
	// exploit: decoy aggressors churn the table so no entry's count
	// ever reaches the threshold.
	copy(t.entries, t.entries[1:])
	t.entries[len(t.entries)-1] = trrEntry{row: row, count: 1}
}

// victims returns the physical neighbor rows of tracked aggressors that
// crossed the threshold, clearing their counters. Called during REF.
func (t *trrSampler) victims() []int {
	var out []int
	for i := range t.entries {
		if t.entries[i].count >= t.cfg.Threshold {
			r := t.entries[i].row
			out = append(out, r-2, r-1, r+1, r+2)
			t.entries[i].count = 0
		}
	}
	return out
}
