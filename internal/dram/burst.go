package dram

import "slices"

// Bulk column bursts: the per-row data movement of every RowHammer
// test (write the pattern, read back the flips) issues one command per
// column through the interpreter, which dominates the hot path once
// disturb evaluation is memoized. WrRowBulk/RdRowBulk execute a whole
// column burst in one call with identical protocol checks, identical
// module state, and identical timestamps to the equivalent Wr/Rd+Wait
// command sequence — the softmc executor maps KWrRow/KRdRow here.
//
// With 64-bit beats and on-die ECC off, column col is word col of the
// row, so a burst moves whole words; other beat widths and ECC keep the
// per-beat loop.
//
// Unlike the per-command sequence, a burst validates up front and
// mutates nothing on error (the per-command path can fail midway with
// columns already written); programs abort on error either way.

// burstSetup performs the shared protocol validation of a column
// burst: open row, burst length, tRCD from the activation, tCCD from
// the previous column command and between burst beats.
func (m *Module) burstSetup(op Op, bank, n int, step, start Picos) (*bankState, error) {
	cmd := Command{Op: op, Bank: bank}
	b, err := m.bank(cmd, start)
	if err != nil {
		return nil, err
	}
	if b.activeRow < 0 {
		msg := "read from precharged bank"
		if op == OpWr {
			msg = "write to precharged bank"
		}
		return nil, &ProtocolError{Msg: msg, Cmd: cmd, At: start}
	}
	if n > m.geo.ColumnsPerRow {
		cmd.Col = n - 1
		return nil, &ProtocolError{Msg: "column out of range", Cmd: cmd, At: start}
	}
	if d := start - b.lastActAt; d < m.timing.TRCD {
		return nil, &TimingError{Param: "tRCD", Required: m.timing.TRCD, Actual: d, Cmd: cmd, At: start}
	}
	if b.everCol {
		if d := start - b.lastColAt; d < m.timing.TCCD {
			return nil, &TimingError{Param: "tCCD", Required: m.timing.TCCD, Actual: d, Cmd: cmd, At: start}
		}
	}
	if n > 1 && step < m.timing.TCCD {
		return nil, &TimingError{Param: "tCCD", Required: m.timing.TCCD, Actual: step, Cmd: cmd, At: start}
	}
	return b, nil
}

// WrRowBulk writes beat data[col] to column col of the open row of a
// bank, commands spaced step apart starting at start. State after the
// call — stored data, ECC check words, stats, column timestamps — is
// bit-identical to issuing the equivalent Wr command sequence.
func (m *Module) WrRowBulk(bank int, data []uint64, step, start Picos) error {
	n := len(data)
	if n == 0 {
		return nil
	}
	b, err := m.burstSetup(OpWr, bank, n, step, start)
	if err != nil {
		return err
	}
	if n == m.geo.ColumnsPerRow {
		m.dropSense(bank)
		b.clearStale(b.activeRow)
	} else {
		m.resolveSense(bank)
	}
	row := b.data(b.activeRow, m.geo.RowWords())
	var chk []uint8
	if m.cfg.OnDieECC && m.beatBits == 64 {
		chk = b.checkBytes(b.activeRow, m.geo.ColumnsPerRow)
	}
	if m.beatBits == 64 && chk == nil {
		// Column col is exactly word col of the row.
		copy(row, data)
	} else {
		for col, beat := range data {
			m.insertBeat(row, col, beat)
			if chk != nil {
				chk[col] = ECCEncode(beat)
			}
		}
	}
	last := start + Picos(n-1)*step
	b.lastWrAt, b.lastColAt = last, last
	b.everWr, b.everCol = true, true
	m.stats.Writes += int64(n)
	return nil
}

// RdRowBulk reads cols beats from columns 0..cols-1 of the open row of
// a bank, commands spaced step apart starting at start, appending the
// beats to dst. State and returned data are bit-identical to the
// equivalent Rd command sequence.
func (m *Module) RdRowBulk(bank, cols int, step, start Picos, dst []uint64) ([]uint64, error) {
	if cols == 0 {
		return dst, nil
	}
	if cols < 0 {
		return dst, &ProtocolError{Msg: "column out of range", Cmd: Command{Op: OpRd, Bank: bank, Col: cols}, At: start}
	}
	b, err := m.burstSetup(OpRd, bank, cols, step, start)
	if err != nil {
		return dst, err
	}
	m.resolveSense(bank)
	row := b.data(b.activeRow, m.geo.RowWords())
	chk := m.openCheck(b)
	if m.beatBits == 64 && chk == nil {
		// Column col is exactly word col of the row.
		dst = append(dst, row[:cols]...)
	} else {
		for col := 0; col < cols; col++ {
			dst = append(dst, m.decodeBeat(row, chk, col))
		}
	}
	m.readBurstDone(b, cols, step, start)
	return dst, nil
}

// readBurstDone stamps a read burst of cols columns from start, step
// apart, into the bank's timing bookkeeping and the stats.
func (m *Module) readBurstDone(b *bankState, cols int, step, start Picos) {
	last := start + Picos(cols-1)*step
	b.lastRdAt, b.lastColAt = last, last
	b.everRd, b.everCol = true, true
	m.stats.Reads += int64(cols)
}

// CmpRowBulk is a compare-read: a read burst over columns
// 0..len(want)-1 of a bank's open row that reports only whether any
// beat differs from want[col]. Its protocol and timing checks, bank
// timestamps and Stats.Reads are RdRowBulk's over len(want) columns.
//
// When the Disturber is a FlipProber, on-die ECC is off, want spans the
// whole row in 64-bit beats and the row's words equal want (retention
// decay at the activation left them intact), the row's deferred
// disturbance is not applied: its ledger is reset, as sensing does, and
// the prober only answers whether anything would flip. A row that
// would flip is marked stale — its stored words lack those flips — and
// any access to its words other than a full-row WrRowBulk, which
// clears the mark, or Reset panics. In every other case the row is
// sensed in full and compared, with the outcome of RdRowBulk followed
// by a comparison.
func (m *Module) CmpRowBulk(bank int, want []uint64, step, start Picos) (bool, error) {
	cols := len(want)
	if cols == 0 {
		return false, nil
	}
	b, err := m.burstSetup(OpRd, bank, cols, step, start)
	if err != nil {
		return false, err
	}
	differs := m.compareOpenRow(bank, b, want)
	m.readBurstDone(b, cols, step, start)
	return differs, nil
}

// compareOpenRow is CmpRowBulk's comparison of the open row with want.
func (m *Module) compareOpenRow(bank int, b *bankState, want []uint64) bool {
	phys := b.activeRow
	row := b.data(phys, m.geo.RowWords())
	if m.prober != nil && !m.cfg.OnDieECC && m.beatBits == 64 && len(want) == len(row) && slices.Equal(row, want) {
		if !b.senseDue {
			return false
		}
		b.senseDue = false
		led := b.ledger(phys)
		flips := m.prober.DisturbAny(DisturbContext{
			Bank:     bank,
			Row:      phys,
			Ledger:   led,
			Data:     row,
			Geometry: m.geo,
			Up:       m.neighborData(b, phys, -1),
			Down:     m.neighborData(b, phys, +1),
		})
		led.Reset()
		if flips {
			b.markStale(phys)
		}
		return flips
	}
	m.resolveSense(bank)
	chk := m.openCheck(b)
	if m.beatBits == 64 && chk == nil {
		return !slices.Equal(row[:len(want)], want)
	}
	// Every column is decoded, as a read burst would, so the ECC
	// outcome counters match RdRowBulk's.
	differs := false
	for col, w := range want {
		differs = m.decodeBeat(row, chk, col) != w || differs
	}
	return differs
}
