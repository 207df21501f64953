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
	// Temps defaults to StudyTemps(). Its points must strictly
	// increase, or the sweep is rejected with a *TempStepError: each
	// flipped cell records the temperatures it flipped at as one bit
	// per point of a 32-bit mask (TempSweepResult.Cells), read in grid
	// order. A grid of more than MaxSweepTemps points is rejected with
	// a *TempGridSizeError.
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
// temperature, recording per-cell flip observations (§5). The chamber
// trajectory through the grid is settled once, from a copy of the
// bench's chamber, into one snapshot per point. Each victim is one unit
// that tests at every point in grid order from the point's snapshot,
// with the points' plant temperatures declared to the fault model
// (Model.SetTempBatch), so a row read walks the kernel once and replays
// at the other points. Units run on per-worker bench clones reset to
// each snapshot, or with one worker on the tester's own bench, which
// takes each snapshot's chamber and temperature; results are
// bit-identical either way. The bench ends settled back at 50 °C from
// the last point. ctx is checked between points.
func (t *Tester) TemperatureSweep(ctx context.Context, cfg TempSweepConfig) (*TempSweepResult, error) {
	if len(cfg.Victims) == 0 {
		return nil, fmt.Errorf("rowhammer: temperature sweep needs victim rows")
	}
	if len(cfg.Temps) == 0 {
		cfg.Temps = StudyTemps()
	}
	if err := ValidateTempGrid(cfg.Temps); err != nil {
		return nil, err
	}
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	points := make([]*thermal.Chamber, len(cfg.Temps))
	plant := make([]float64, len(cfg.Temps))
	ch := t.b.Chamber.Clone()
	for ti, temp := range cfg.Temps {
		if err := ch.SetAndSettle(temp); err != nil {
			return nil, err
		}
		points[ti], plant[ti] = ch.Clone(), ch.Plant.Temperature()
	}
	workers, bench := 1, func() (*Tester, error) { return t, nil }
	if w := t.effectiveWorkers(); w > 1 && len(cfg.Victims) > 1 {
		workers, bench = w, func() (*Tester, error) { return t.cloneAt(t.b.settled) }
	}
	units, err := pool.MapWith(ctx, workers, len(cfg.Victims), bench, func(sub *Tester, ri int) (sweepUnit, error) {
		return sub.sweepVictim(ctx, cfg, cfg.Victims[ri], points, plant, sub != t)
	})
	if err != nil {
		return nil, err
	}
	cells := 0
	for _, u := range units {
		cells += len(u.bits)
	}
	res := &TempSweepResult{
		Temps: cfg.Temps,
		Rows:  cfg.Victims,
		Flips: make([][]HammerResult, len(cfg.Temps)),
		Cells: make(map[CellID]uint32, cells),
	}
	for ti := range res.Flips {
		res.Flips[ti] = make([]HammerResult, len(units))
		for ri, u := range units {
			res.Flips[ti][ri] = u.worst[ti]
		}
	}
	for ri, u := range units {
		for i, bit := range u.bits {
			res.Cells[CellID{Row: cfg.Victims[ri], Bit: bit}] |= u.masks[i]
		}
	}
	t.b.Chamber.CopyFrom(points[len(points)-1])
	if err := t.b.SetTemperature(50); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepUnit is one victim's share of a sweep.
type sweepUnit struct {
	// worst[ti] is the worst-repetition result at point ti.
	worst []HammerResult
	// bits are the victim bits that flipped at any point, in first-flip
	// order, and masks[i] the points at which bits[i] flipped.
	bits  []int
	masks []uint32
}

// sweepVictim runs one victim's tests at every point of a sweep, each
// point starting from its chamber snapshot: a clone (reset) is reset to
// it, the sweeping tester's own bench only takes the snapshot's chamber
// and temperature.
func (t *Tester) sweepVictim(ctx context.Context, cfg TempSweepConfig, victim int, points []*thermal.Chamber, plant []float64, reset bool) (sweepUnit, error) {
	t.declareTrialSalts(cfg.Repetitions)
	t.b.Model.SetTempBatch(plant)
	defer t.b.Model.SetTempBatch(nil)
	unit := sweepUnit{worst: make([]HammerResult, len(points))}
	var cur HammerResult // swaps with unit.worst[ti], as in BER
	// flipped[bit] is the mask of the points at which bit flipped.
	flipped := make([]uint32, t.b.Geometry().RowBits())
	for ti, point := range points {
		if err := ctx.Err(); err != nil {
			return sweepUnit{}, err
		}
		if reset {
			t.b.resetAt(point)
		} else {
			t.b.Chamber.CopyFrom(point)
			t.b.Module.SetTemperature(plant[ti])
		}
		worst := &unit.worst[ti]
		for rep := 0; rep < cfg.Repetitions; rep++ {
			if err := t.hammerInto(HammerConfig{
				Bank:       cfg.Bank,
				VictimPhys: victim,
				Hammers:    cfg.Hammers,
				Pattern:    cfg.Pattern,
				Trial:      uint64(rep) + 1,
			}, &cur, cfg.Singles); err != nil {
				return sweepUnit{}, err
			}
			for _, bit := range cur.Victim.Bits {
				if flipped[bit] == 0 {
					unit.bits = append(unit.bits, bit)
				}
				flipped[bit] |= 1 << uint(ti)
			}
			if rep == 0 || cur.Victim.Count() > worst.Victim.Count() {
				*worst, cur = cur, *worst
			}
		}
	}
	unit.masks = make([]uint32, len(unit.bits))
	for i, bit := range unit.bits {
		unit.masks[i] = flipped[bit]
	}
	return unit, nil
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
// (the Fig. 5 measurement), checking ctx between rows. Result
// indexing: [tempIdx][rowIdx]; an unfound HCfirst is reported as 0.
func (t *Tester) HCFirstAtTemps(ctx context.Context, bank int, rows []int, temps []float64, cfg HCFirstConfig, reps int) ([][]int64, error) {
	out := make([][]int64, len(temps))
	for ti, temp := range temps {
		if err := t.b.SetTemperature(temp); err != nil {
			return nil, err
		}
		out[ti] = make([]int64, len(rows))
		for ri, row := range rows {
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
