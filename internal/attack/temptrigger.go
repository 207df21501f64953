package attack

import (
	"fmt"

	rh "rowhammer"
)

// TempTrigger implements Attack Improvement 2: a RowHammer-based
// thermometer. Cells vulnerable only in a narrow temperature range
// act as exact-temperature sensors; cells whose range's lower bound is
// at or above a target temperature act as above-threshold sensors.
// The attacker hammers the trigger cell's row and reads the cell: a
// flip means the condition holds, arming the main attack.
type TempTrigger struct {
	Bank int
	// Row/Bit locate the sensor cell (physical row, bit within row).
	Row, Bit int
	// Hammers is the probe strength, chosen comfortably above the
	// cell's HCfirst so a non-flip indicates temperature (not hammer
	// count) gating.
	Hammers int64
	Pattern rh.PatternKind
}

// TriggerKind selects the sensing semantics.
type TriggerKind int

// Trigger kinds.
const (
	// ExactTemperature fires only inside a narrow range around the
	// target (cells with range width ≤ one test step).
	ExactTemperature TriggerKind = iota
	// AtOrAbove fires at or above the target (cells whose lower bound
	// is ≥ the target).
	AtOrAbove
)

// FindTrigger scans a temperature sweep's per-cell observations for a
// sensor cell of the requested kind at the target temperature. Of
// several qualifying cells it returns the one with the lowest
// (row, bit), so the choice does not depend on map order.
func FindTrigger(sweep *rh.TempSweepResult, kind TriggerKind, targetC float64, bank int, hammers int64, pat rh.PatternKind) (*TempTrigger, error) {
	ti := -1
	for i, t := range sweep.Temps {
		if t == targetC {
			ti = i
		}
	}
	if ti < 0 {
		return nil, fmt.Errorf("attack: target %.0f °C not in sweep", targetC)
	}
	var best *rh.CellID
	for cell, mask := range sweep.Cells {
		lo, hi := rh.MaskRange(mask)
		var ok bool
		switch kind {
		case ExactTemperature:
			// Flips at the target and nowhere else.
			ok = lo == ti && hi == ti
		case AtOrAbove:
			// Lower bound at the target; upper bound reaching the top
			// of the tested range (censored: extends above).
			ok = lo == ti && hi == len(sweep.Temps)-1
		}
		if ok && (best == nil || cell.Row < best.Row || cell.Row == best.Row && cell.Bit < best.Bit) {
			best = &cell
		}
	}
	if best == nil {
		return nil, fmt.Errorf("attack: no %v trigger cell at %.0f °C", kind, targetC)
	}
	return &TempTrigger{Bank: bank, Row: best.Row, Bit: best.Bit, Hammers: hammers, Pattern: pat}, nil
}

// Probe hammers the sensor row and reports whether the sensor cell
// flipped — i.e. whether the temperature condition currently holds.
func (tr *TempTrigger) Probe(t *rh.Tester, trial uint64) (bool, error) {
	res, err := t.Hammer(rh.HammerConfig{
		Bank:       tr.Bank,
		VictimPhys: tr.Row,
		Hammers:    tr.Hammers,
		Pattern:    tr.Pattern,
		Trial:      trial,
	})
	if err != nil {
		return false, err
	}
	for _, b := range res.Victim.Bits {
		if b == tr.Bit {
			return true, nil
		}
	}
	return false, nil
}
