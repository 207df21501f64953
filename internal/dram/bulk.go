package dram

import "fmt"

// HammerBulk performs count rounds of alternating open/close cycles of
// the given logical rows in one bank — the hot loop of every hammering
// test. Each round activates each row once for aggOn and precharges
// for aggOff (clamped up to tRAS, tRP and a tRC-long round, as the
// timing rules require).
//
// The first two rounds execute command-by-command through Exec so the
// bank state machine and ledgers behave exactly as on hardware; the
// remaining rounds are applied analytically (the steady state of the
// loop is periodic), which makes the cost independent of count. This
// mirrors SoftMC, whose hardware LOOP instruction repeats a verified
// command block without host interaction.
//
// It returns the time right after the final precharge completes
// (i.e. when the bank is next usable).
func (m *Module) HammerBulk(bank int, logicalRows []int, count int64, aggOn, aggOff Picos, start Picos) (Picos, error) {
	if len(logicalRows) == 0 {
		return start, fmt.Errorf("dram: HammerBulk with no rows")
	}
	if count < 0 {
		return start, fmt.Errorf("dram: HammerBulk with negative count")
	}
	if aggOn < m.timing.TRAS {
		aggOn = m.timing.TRAS
	}
	if aggOff < m.timing.TRP {
		aggOff = m.timing.TRP
	}
	if aggOn+aggOff < m.timing.TRC {
		aggOff = m.timing.TRC - aggOn
	}

	now := start
	// Honor a pending tRP/tRC from whatever preceded the loop.
	if b := m.banks[bank]; b != nil {
		if b.activeRow >= 0 {
			return start, &ProtocolError{Msg: "HammerBulk with bank active", At: start}
		}
		if b.everPre && now < b.lastPreAt+m.timing.TRP {
			now = b.lastPreAt + m.timing.TRP
		}
		if b.everAct && now < b.lastActAt+m.timing.TRC {
			now = b.lastActAt + m.timing.TRC
		}
	}
	if now < m.refBlockUntil {
		now = m.refBlockUntil
	}

	// A never-precharged bank would record the default tRP off-time for
	// the loop's first activation; backdate a virtual precharge so every
	// cycle of the loop records the requested aggOff uniformly.
	if b := m.banks[bank]; !b.everPre {
		b.lastPreAt = now - aggOff
		b.everPre = true
	}

	// Phase 1: up to two exact rounds through the state machine.
	exact := int64(2)
	if count < exact {
		exact = count
	}
	for r := int64(0); r < exact; r++ {
		for _, row := range logicalRows {
			if _, err := m.Exec(Command{Op: OpAct, Bank: bank, Row: row}, now); err != nil {
				return now, err
			}
			if _, err := m.Exec(Command{Op: OpPre, Bank: bank}, now+aggOn); err != nil {
				return now, err
			}
			now += aggOn + aggOff
		}
	}

	rest := count - exact
	if rest <= 0 {
		return now, nil
	}

	// Phase 2: apply the remaining rounds analytically. In steady
	// state every activation of physical row r adds one (aggOn,
	// aggOff) record to the ledgers of in-subarray neighbors at
	// distances 1 and 2 — except ledgers of rows in the aggressor set
	// itself, which are reset by their own activations each round and
	// therefore never accumulate more than one round's worth (already
	// established by phase 1).
	phys := m.hammerPhys[:0]
	for _, row := range logicalRows {
		if row < 0 || row >= m.geo.RowsPerBank {
			return now, &ProtocolError{Msg: "row out of range", Cmd: Command{Op: OpAct, Bank: bank, Row: row}, At: now}
		}
		phys = append(phys, m.remap.ToPhysical(row))
	}
	m.hammerPhys = phys
	// Aggressor sets are tiny (typically two rows), so membership is a
	// linear scan rather than a per-call map.
	inAggSet := func(n int) bool {
		for _, p := range phys {
			if p == n {
				return true
			}
		}
		return false
	}
	b := m.banks[bank]
	temp := m.tempC
	for _, p := range phys {
		for dist := 1; dist <= MaxDisturbDistance; dist++ {
			for _, n := range [2]int{p - dist, p + dist} {
				if n < 0 || n >= m.geo.RowsPerBank || !m.geo.SameSubarray(p, n) || inAggSet(n) {
					continue
				}
				led := b.ledger(n)
				d := &led.Dist[dist-1]
				d.Count += rest
				d.SumOn += Picos(rest) * aggOn
				d.SumOff += Picos(rest) * aggOff
				d.SumTempMilliC += rest * int64(temp*1000)
			}
		}
	}
	elapsed := Picos(rest) * Picos(len(logicalRows)) * (aggOn + aggOff)
	now += elapsed
	// Update bank/global bookkeeping as if the loop really ran.
	b.lastActAt = now - aggOn - aggOff
	b.lastPreAt = now - aggOff
	b.everAct, b.everPre = true, true
	m.lastActAnyAt = b.lastActAt
	m.everActAny = true
	m.stats.Acts += rest * int64(len(logicalRows))
	m.stats.Pres += rest * int64(len(logicalRows))
	if m.trr != nil {
		// The sampler sees every activation; feed it the bulk count in
		// round-robin order (identical steady-state distribution).
		for r := int64(0); r < rest && r < 4096; r++ {
			for _, p := range phys {
				m.trr[bank].observe(p)
			}
		}
		if rest > 4096 {
			// Beyond the cap the table contents are saturated; bump
			// counters directly to keep thresholds meaningful.
			for _, p := range phys {
				for i := range m.trr[bank].entries {
					if m.trr[bank].entries[i].row == p {
						m.trr[bank].entries[i].count += rest - 4096
					}
				}
			}
		}
	}
	return now, nil
}
