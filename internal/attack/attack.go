// Package attack implements RowHammer access patterns and the three
// attack improvements the paper derives from its observations (§8.1):
//
//  1. Temperature-targeted row selection: pick the victim row whose
//     HCfirst is lowest at the temperature the attack will run at.
//  2. Temperature-triggered attacks: use cells with narrow vulnerable
//     temperature ranges as covert thermometers that arm the main
//     attack only at a chosen temperature.
//  3. Extended aggressor on-time: issue extra READs per aggressor
//     activation to stretch tAggOn, increasing BER and dropping
//     HCfirst below the threshold defenses were configured for.
package attack

import (
	"context"
	"fmt"
	"sort"

	rh "rowhammer"
)

// PatternShape enumerates multi-aggressor access shapes.
type PatternShape int

// Access shapes.
const (
	SingleSided PatternShape = iota
	DoubleSided
	ManySided
)

// AggressorRows returns the physical aggressor rows of a shape around
// a victim. ManySided uses n aggressors interleaved around the victim
// (TRRespass-style); n is ignored for the other shapes.
func AggressorRows(shape PatternShape, victim, n int) []int {
	switch shape {
	case SingleSided:
		return []int{victim - 1}
	case DoubleSided:
		return []int{victim - 1, victim + 1}
	case ManySided:
		if n < 2 {
			n = 2
		}
		var rows []int
		for i := 0; i < n; i++ {
			off := (i/2 + 1) * 2
			if i%2 == 0 {
				rows = append(rows, victim-off+1)
			} else {
				rows = append(rows, victim+off-1)
			}
		}
		return rows
	default:
		return nil
	}
}

// RowPlan is one candidate victim with its temperature-resolved
// HCfirst profile.
type RowPlan struct {
	Row int
	// HCByTemp[i] is the row's HCfirst at Temps[i] (0 = not
	// vulnerable).
	HCByTemp []int64
}

// Planner implements Attack Improvement 1: given per-row HCfirst
// profiles across temperatures, choose the best victim for the
// temperature the attack will execute at.
type Planner struct {
	Temps []float64
	Rows  []RowPlan
}

// BestRowAt returns the row with the lowest non-zero HCfirst at the
// temperature closest to tempC, and that HCfirst.
func (p *Planner) BestRowAt(tempC float64) (RowPlan, int64, error) {
	ti := p.tempIndex(tempC)
	best := -1
	var bestHC int64
	for i, r := range p.Rows {
		hc := r.HCByTemp[ti]
		if hc <= 0 {
			continue
		}
		if best < 0 || hc < bestHC {
			best, bestHC = i, hc
		}
	}
	if best < 0 {
		return RowPlan{}, 0, fmt.Errorf("attack: no vulnerable row at %.0f °C", tempC)
	}
	return p.Rows[best], bestHC, nil
}

// MedianRowAt returns the median vulnerable row's HCfirst at tempC —
// the expected cost of an *uninformed* row choice.
func (p *Planner) MedianRowAt(tempC float64) (int64, error) {
	ti := p.tempIndex(tempC)
	var hcs []int64
	for _, r := range p.Rows {
		if hc := r.HCByTemp[ti]; hc > 0 {
			hcs = append(hcs, hc)
		}
	}
	if len(hcs) == 0 {
		return 0, fmt.Errorf("attack: no vulnerable rows at %.0f °C", tempC)
	}
	sort.Slice(hcs, func(i, j int) bool { return hcs[i] < hcs[j] })
	return hcs[len(hcs)/2], nil
}

func (p *Planner) tempIndex(tempC float64) int {
	best := 0
	for i, t := range p.Temps {
		if abs(t-tempC) < abs(p.Temps[best]-tempC) {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BuildPlanner profiles the given rows at the given temperatures,
// checking ctx between rows.
func BuildPlanner(ctx context.Context, t *rh.Tester, bank int, rows []int, temps []float64) (*Planner, error) {
	hcByTemp, err := t.HCFirstAtTemps(ctx, bank, rows, temps, rh.HCFirstConfig{
		Pattern: rh.PatCheckered,
	}, 1)
	if err != nil {
		return nil, err
	}
	p := &Planner{Temps: temps}
	for ri, row := range rows {
		rp := RowPlan{Row: row, HCByTemp: make([]int64, len(temps))}
		for ti := range temps {
			rp.HCByTemp[ti] = hcByTemp[ti][ri]
		}
		p.Rows = append(p.Rows, rp)
	}
	return p, nil
}
