package dram

// MaxDisturbDistance is how far (in physical rows) an aggressor's
// disturbance reaches. Distance 1 is the adjacent row; distance 2 rows
// see the residual "single-sided at distance 2" effect studied by the
// paper's blast-radius analyses.
const MaxDisturbDistance = 2

// DistanceStats accumulates the aggression a victim row has received
// from aggressors at one physical distance since the victim's charge
// was last restored (by activation or refresh).
type DistanceStats struct {
	// Count is the number of aggressor activations.
	Count int64
	// SumOn is the total aggressor open time (ACT→PRE) in picoseconds.
	SumOn Picos
	// SumOff is the total precharged time preceding each aggressor
	// activation, in picoseconds.
	SumOff Picos
	// SumTempMilliC is the sum of the module temperature at each
	// aggressor activation, in milli-degrees Celsius (integer to keep
	// the ledger allocation-free and exact).
	SumTempMilliC int64
}

// AvgOnNs returns the mean aggressor on-time in nanoseconds, or 0 when
// no activations have been recorded.
func (d DistanceStats) AvgOnNs() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.SumOn) / float64(d.Count) / 1000
}

// AvgOffNs returns the mean aggressor off-time in nanoseconds.
func (d DistanceStats) AvgOffNs() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.SumOff) / float64(d.Count) / 1000
}

// AvgTempC returns the mean temperature across activations in Celsius.
func (d DistanceStats) AvgTempC() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.SumTempMilliC) / float64(d.Count) / 1000
}

// RowLedger is the per-victim-row disturbance account. Dist[0] holds
// distance-1 aggression, Dist[1] distance-2.
type RowLedger struct {
	Dist [MaxDisturbDistance]DistanceStats
}

// Total returns the total aggressor activation count at all distances.
func (l RowLedger) Total() int64 {
	var n int64
	for _, d := range l.Dist {
		n += d.Count
	}
	return n
}

// Empty reports whether the ledger has recorded no aggression.
func (l RowLedger) Empty() bool { return l.Total() == 0 }

// Reset clears all accumulated aggression (the row's charge was
// restored).
func (l *RowLedger) Reset() { *l = RowLedger{} }

// Record adds one aggressor activation at the given distance
// (1-based), with its on/off time and the temperature at which it
// occurred.
func (l *RowLedger) Record(distance int, on, off Picos, tempC float64) {
	if distance < 1 || distance > MaxDisturbDistance {
		return
	}
	d := &l.Dist[distance-1]
	d.Count++
	d.SumOn += on
	d.SumOff += off
	d.SumTempMilliC += int64(tempC * 1000)
}

// DisturbContext is handed to a Disturber when a victim row's charge is
// sensed. Data is the row's backing words; the Disturber must treat it
// (and Up/Down) as read-only and express flips through the returned
// mask instead.
type DisturbContext struct {
	Bank int
	// Row is the physical row index of the victim.
	Row    int
	Ledger *RowLedger
	Data   []uint64
	// Geometry of the module, for bit addressing.
	Geometry Geometry
	// Up and Down are the backing words of the physically adjacent
	// rows (Row-1 and Row+1), or nil when that row is out of range,
	// unallocated, or in a different subarray.
	Up, Down []uint64
}

// Disturber injects RowHammer bit flips when a victim row is sensed.
// Implementations live in internal/faultmodel; dram only defines the
// boundary so the dependency points one way.
type Disturber interface {
	// Disturb evaluates accumulated disturbance against ctx and
	// returns the number of bits to flip plus a flip mask (one bit per
	// cell, same word layout as ctx.Data) to XOR into the stored row.
	// The mask may alias disturber-owned scratch: it is only valid
	// until the next Disturb call, and is nil when no bits flip.
	Disturb(ctx DisturbContext) (int, []uint64)
}

// FlipProber is a Disturber that can also tell whether an evaluation
// would flip anything without producing the flips. The module detects
// it by type assertion and uses it for compare-reads (CmpRowBulk);
// with any other Disturber a compare-read senses the row in full.
type FlipProber interface {
	Disturber
	// DisturbAny reports whether Disturb(ctx) would return a non-zero
	// flip count. Like Disturb, it treats ctx's words as read-only.
	DisturbAny(ctx DisturbContext) bool
}

// NopDisturber injects no faults (an ideal, RowHammer-free chip).
type NopDisturber struct{}

// Disturb implements Disturber.
func (NopDisturber) Disturb(DisturbContext) (int, []uint64) { return 0, nil }

// ApplyFlipMask XORs a flip mask into a row's backing words, one word
// at a time — the bitplane application of kernel-emitted flips. A nil
// or short mask only touches the words it covers.
func ApplyFlipMask(data, mask []uint64) {
	n := len(mask)
	if len(data) < n {
		n = len(data)
	}
	for i := 0; i < n; i++ {
		data[i] ^= mask[i]
	}
}
