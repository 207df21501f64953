package rowhammer

import (
	"context"
	"fmt"
	"math/bits"

	"rowhammer/internal/pool"
	"rowhammer/internal/thermal"
)

// CellID identifies a DRAM cell within one bank.
type CellID struct {
	Row int
	Bit int
}

// TempSweepConfig configures a temperature-sweep characterization.
type TempSweepConfig struct {
	Bank    int
	Victims []int
	// Temps defaults to StudyTemps(). At most MaxSweepTemps points:
	// each flipped cell records the temperatures it flipped at as one
	// bit per point of a 32-bit mask (TempSweepResult.Cells); a longer
	// grid is rejected with a *TempGridSizeError.
	Temps []float64
	// Hammers per BER test (paper: 150K).
	Hammers int64
	Pattern PatternKind
	// Repetitions per (victim, temperature); a cell counts as flipped
	// at a temperature if it flips in any repetition.
	Repetitions int
	// Singles also reads the two single-sided victims (V±2) of every
	// test into the results' SingleLo/SingleHi (Fig. 4's ±2 series).
	// Without it only the double-sided victim is read and they stay
	// empty; Victim and Cells are the same either way.
	Singles bool
}

// TempSweepResult holds the raw sweep data.
type TempSweepResult struct {
	Temps []float64
	Rows  []int
	// Flips[ti][ri] is the worst-repetition result for Rows[ri] at
	// Temps[ti].
	Flips [][]HammerResult
	// Cells maps every victim-row cell that flipped anywhere in the
	// sweep to a bitmask over temperature indexes.
	Cells map[CellID]uint32
}

// MaskRange returns the lowest and highest temperature index set in a
// Cells mask — the cell's vulnerable temperature range — or (-1, -1)
// for a zero mask.
func MaskRange(mask uint32) (lo, hi int) {
	if mask == 0 {
		return -1, -1
	}
	return bits.TrailingZeros32(mask), 31 - bits.LeadingZeros32(mask)
}

// TemperatureSweep runs BER tests for every victim at every
// temperature, recording per-cell flip observations (§5).
func (t *Tester) TemperatureSweep(cfg TempSweepConfig) (*TempSweepResult, error) {
	return t.temperatureSweep(context.Background(), cfg)
}

// temperatureSweep implements TemperatureSweep, checking ctx between
// temperature points.
func (t *Tester) temperatureSweep(ctx context.Context, cfg TempSweepConfig) (*TempSweepResult, error) {
	if len(cfg.Victims) == 0 {
		return nil, fmt.Errorf("rowhammer: temperature sweep needs victim rows")
	}
	if len(cfg.Temps) == 0 {
		cfg.Temps = StudyTemps()
	}
	if len(cfg.Temps) > MaxSweepTemps {
		return nil, &TempGridSizeError{Points: len(cfg.Temps)}
	}
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	if t.effectiveWorkers() > 1 && len(cfg.Temps)*len(cfg.Victims) > 1 {
		return t.temperatureSweepParallel(ctx, cfg)
	}
	t.declareTrialSalts(cfg.Repetitions)
	res := &TempSweepResult{
		Temps: cfg.Temps,
		Rows:  cfg.Victims,
		Cells: make(map[CellID]uint32),
	}
	for ti, temp := range cfg.Temps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := t.b.SetTemperature(temp); err != nil {
			return nil, err
		}
		perRow := make([]HammerResult, len(cfg.Victims))
		for ri, victim := range cfg.Victims {
			// worst/cur swap headers instead of copying, so repetitions
			// reuse buffers; worst's buffers escape into perRow, so they
			// are scoped per victim.
			var worst, cur HammerResult
			for rep := 0; rep < cfg.Repetitions; rep++ {
				if err := t.hammerInto(HammerConfig{
					Bank:       cfg.Bank,
					VictimPhys: victim,
					Hammers:    cfg.Hammers,
					Pattern:    cfg.Pattern,
					Trial:      uint64(rep) + 1,
				}, &cur, cfg.Singles); err != nil {
					return nil, err
				}
				for _, bit := range cur.Victim.Bits {
					res.Cells[CellID{Row: victim, Bit: bit}] |= 1 << uint(ti)
				}
				if rep == 0 || cur.Victim.Count() > worst.Victim.Count() {
					worst, cur = cur, worst
				}
			}
			perRow[ri] = worst
		}
		res.Flips = append(res.Flips, perRow)
	}
	// Restore the baseline temperature.
	if err := t.b.SetTemperature(50); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepUnit is one (temperature, victim) shard of a parallel sweep.
type sweepUnit struct {
	worst HammerResult
	// bits is the union over repetitions of flipped victim bits, in
	// first-flip order.
	bits []int
}

// temperatureSweepParallel fans the (temperature, victim) grid out
// over the pool and merges the units back in grid order. The chamber
// trajectory the bench follows through the sweep is settled once, from
// a copy of its current chamber (a bench that already ran a sweep is
// not back at its construction state), into one snapshot per
// temperature point. Each worker builds one hermetic bench clone and,
// before every unit, resets it to the unit's point snapshot — the
// state a clone replaying the trajectory would reach — so the settled
// plant temperature, and with it every recorded measurement, is
// bit-identical to the shared-bench serial sweep.
func (t *Tester) temperatureSweepParallel(ctx context.Context, cfg TempSweepConfig) (*TempSweepResult, error) {
	points := make([]*thermal.Chamber, len(cfg.Temps))
	ch := t.b.Chamber.Clone()
	for ti, temp := range cfg.Temps {
		if err := ch.SetAndSettle(temp); err != nil {
			return nil, err
		}
		points[ti] = ch.Clone()
	}
	nR := len(cfg.Victims)
	seenWords := t.b.Geometry().RowWords() // a flip's index is its row bit
	newClone := func() (*Tester, error) { return t.cloneAt(t.b.settled) }
	units, err := pool.MapWith(ctx, t.effectiveWorkers(), len(cfg.Temps)*nR, newClone, func(sub *Tester, u int) (sweepUnit, error) {
		ti, ri := u/nR, u%nR
		sub.b.resetAt(points[ti])
		sub.declareTrialSalts(cfg.Repetitions)
		var unit sweepUnit
		var cur HammerResult // swaps with unit.worst, as in BER
		seen := make([]uint64, seenWords)
		for rep := 0; rep < cfg.Repetitions; rep++ {
			if err := sub.hammerInto(HammerConfig{
				Bank:       cfg.Bank,
				VictimPhys: cfg.Victims[ri],
				Hammers:    cfg.Hammers,
				Pattern:    cfg.Pattern,
				Trial:      uint64(rep) + 1,
			}, &cur, cfg.Singles); err != nil {
				return sweepUnit{}, err
			}
			for _, bit := range cur.Victim.Bits {
				if w, m := bit/64, uint64(1)<<(bit%64); seen[w]&m == 0 {
					seen[w] |= m
					unit.bits = append(unit.bits, bit)
				}
			}
			if rep == 0 || cur.Victim.Count() > unit.worst.Victim.Count() {
				unit.worst, cur = cur, unit.worst
			}
		}
		return unit, nil
	})
	if err != nil {
		return nil, err
	}
	res := &TempSweepResult{
		Temps: cfg.Temps,
		Rows:  cfg.Victims,
		Cells: make(map[CellID]uint32),
	}
	for ti := range cfg.Temps {
		perRow := make([]HammerResult, nR)
		for ri := 0; ri < nR; ri++ {
			unit := units[ti*nR+ri]
			perRow[ri] = unit.worst
			for _, bit := range unit.bits {
				res.Cells[CellID{Row: cfg.Victims[ri], Bit: bit}] |= 1 << uint(ti)
			}
		}
		res.Flips = append(res.Flips, perRow)
	}
	// Leave the main bench exactly where the serial sweep would:
	// replay the temperature trajectory and restore the baseline, so
	// follow-on measurements on this tester do not depend on the
	// worker count.
	for _, temp := range cfg.Temps {
		if err := t.b.SetTemperature(temp); err != nil {
			return nil, err
		}
	}
	if err := t.b.SetTemperature(50); err != nil {
		return nil, err
	}
	return res, nil
}

// TempClusterMatrix is the Fig. 3 artifact: vulnerable cells clustered
// by the (lower, upper) bounds of their observed vulnerable
// temperature range, plus Table 3's gap statistics.
type TempClusterMatrix struct {
	Temps []float64
	// Counts[hiIdx][loIdx] is the number of cells whose observed range
	// is [Temps[loIdx], Temps[hiIdx]] (lower-triangular: loIdx<=hiIdx).
	Counts [][]int
	// Gap statistics: cells flipping at every in-range temperature
	// (NoGap), missing exactly one (OneGap), or more (MoreGap).
	NoGap, OneGap, MoreGap int
	Total                  int
}

// ClusterByRange computes the Fig. 3 cluster matrix from the sweep.
func (r *TempSweepResult) ClusterByRange() *TempClusterMatrix {
	n := len(r.Temps)
	m := &TempClusterMatrix{Temps: r.Temps}
	m.Counts = make([][]int, n)
	for i := range m.Counts {
		m.Counts[i] = make([]int, n)
	}
	for _, mask := range r.Cells {
		if mask == 0 {
			continue
		}
		lo, hi := MaskRange(mask)
		m.Counts[hi][lo]++
		m.Total++
		span := hi - lo + 1
		gaps := span - bits.OnesCount32(mask)
		switch gaps {
		case 0:
			m.NoGap++
		case 1:
			m.OneGap++
		default:
			m.MoreGap++
		}
	}
	return m
}

// Fraction returns a cluster's share of the vulnerable population.
func (m *TempClusterMatrix) Fraction(loIdx, hiIdx int) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Counts[hiIdx][loIdx]) / float64(m.Total)
}

// FullRangeFraction returns the share of cells vulnerable at every
// tested temperature (Obsv. 2).
func (m *TempClusterMatrix) FullRangeFraction() float64 {
	return m.Fraction(0, len(m.Temps)-1)
}

// NarrowRangeFraction returns the share of cells vulnerable at exactly
// one tested temperature (Obsv. 3).
func (m *TempClusterMatrix) NarrowRangeFraction() float64 {
	if m.Total == 0 {
		return 0
	}
	n := 0
	for i := range m.Temps {
		n += m.Counts[i][i]
	}
	return float64(n) / float64(m.Total)
}

// NoGapFraction returns Table 3's statistic: the share of vulnerable
// cells that flip at every temperature point inside their range.
func (m *TempClusterMatrix) NoGapFraction() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.NoGap) / float64(m.Total)
}

// HCFirstAtTemps measures every row's HCfirst at each temperature
// (the Fig. 5 measurement). Result indexing: [tempIdx][rowIdx]; an
// unfound HCfirst is reported as 0.
func (t *Tester) HCFirstAtTemps(bank int, rows []int, temps []float64, cfg HCFirstConfig, reps int) ([][]int64, error) {
	out := make([][]int64, len(temps))
	for ti, temp := range temps {
		if err := t.b.SetTemperature(temp); err != nil {
			return nil, err
		}
		out[ti] = make([]int64, len(rows))
		for ri, row := range rows {
			c := cfg
			c.Bank = bank
			c.VictimPhys = row
			res, err := t.HCFirstMin(c, reps)
			if err != nil {
				return nil, err
			}
			if res.Found {
				out[ti][ri] = res.HCfirst
			}
		}
	}
	if err := t.b.SetTemperature(50); err != nil {
		return nil, err
	}
	return out, nil
}
