package dram

import "fmt"

// ModuleConfig configures one simulated DRAM module.
type ModuleConfig struct {
	Geometry Geometry
	Timing   Timing
	// Remap is the internal row-address mapping; nil means DirectRemap.
	Remap RemapScheme
	// Disturber injects RowHammer flips; nil means NopDisturber.
	Disturber Disturber
	// TRR enables the in-DRAM Target Row Refresh sampler when non-nil.
	TRR *TRRConfig
	// OnDieECC enables the (72,64) SECDED code on reads/writes.
	OnDieECC bool
	// Retention enables data-retention failure modeling (off in the
	// study's methodology, which keeps tests short; §4.2).
	Retention *RetentionConfig
	// Seed feeds module-local randomness (retention draws and cell
	// orientation for retention decay).
	Seed uint64
	// InitialTempC is the module temperature before any controller
	// adjustment (the chamber idles at 50 °C in the study).
	InitialTempC float64
}

// Stats counts module activity and injected faults.
type Stats struct {
	Acts, Pres, Reads, Writes, Refs int64
	// FlipsInjected counts bit flips applied to stored data (RowHammer
	// and retention). A row's RowHammer flips are applied when the row
	// is next read, partially written or closed after an activation;
	// flips a full-row write would overwrite before anything read them
	// are never applied, so they are not counted; nor are the flips a
	// compare-read (CmpRowBulk) only detected.
	FlipsInjected int64
	// ECCCorrected counts read words the on-die ECC corrected.
	ECCCorrected int64
	// ECCUncorrectable counts read words flagged uncorrectable.
	ECCUncorrectable int64
	// TRRRefreshes counts rows the TRR mechanism refreshed.
	TRRRefreshes int64
	// RetentionFlips counts data-retention failures injected.
	RetentionFlips int64
	// RefreshWindowOverruns counts REF-to-REF (or start-to-first-REF)
	// gaps exceeding tREFW/8192 budgets; characterization deliberately
	// overruns, so this is informational.
	RefreshWindowOverruns int64
}

// Module simulates one DRAM rank (a module with chips in lock-step).
// It is not safe for concurrent use; each goroutine should own its own
// Module (experiments parallelize across modules).
type Module struct {
	cfg           ModuleConfig
	geo           Geometry
	timing        Timing
	remap         RemapScheme
	disturber     Disturber
	prober        FlipProber // disturber, when it is one (CmpRowBulk)
	banks         []*bankState
	trr           []*trrSampler
	tempC         float64
	stats         Stats
	ret           *retention
	retOrientSeed uint64

	// global timing bookkeeping
	lastActAnyAt  Picos
	everActAny    bool
	refBlockUntil Picos
	lastRefAt     Picos
	everRef       bool
	refRowCursor  int
	rowsPerRef    int
	beatBits      int

	// hammerPhys is HammerBulk's reusable aggressor scratch (physical
	// row indexes), kept on the module so the hot hammer loop does not
	// allocate.
	hammerPhys []int
}

// NewModule builds a module from cfg.
func NewModule(cfg ModuleConfig) (*Module, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if beat := cfg.Geometry.BeatBits(); beat > 64 {
		return nil, fmt.Errorf("dram: beat width %d bits exceeds 64 (unsupported)", beat)
	}
	m := &Module{cfg: cfg}
	m.init()
	return m, nil
}

// Reset returns the module to exactly the state NewModule(cfg) builds:
// every bank precharged with no timing history, no stored rows, check
// bytes, ledgers or restore stamps; stats and refresh state cleared;
// TRR samplers and retention state rebuilt from the config; and the
// temperature back at InitialTempC. Rows are allocated lazily again,
// from storage the reset keeps (row-table pages, zeroed, and per-bank
// free lists of row words), so a reset module that re-touches the rows
// it had allocates nothing.
func (m *Module) Reset() { m.init() }

// init sets every field of m from m.cfg. NewModule and Reset share it,
// so a reset module cannot drift from a new one: the literal below
// zeroes every field it does not name, and the storage kept across a
// reset (banks, TRR samplers, retention state, hammer scratch) is
// re-initialized in place.
func (m *Module) init() {
	cfg := m.cfg
	banks, trr, ret, phys := m.banks, m.trr, m.ret, m.hammerPhys
	*m = Module{
		cfg:       cfg,
		geo:       cfg.Geometry,
		timing:    cfg.Timing,
		remap:     cfg.Remap,
		disturber: cfg.Disturber,
		tempC:     cfg.InitialTempC,
		beatBits:  cfg.Geometry.BeatBits(),
		// JEDEC refreshes the array over 8192 REF commands per tREFW.
		rowsPerRef: (cfg.Geometry.RowsPerBank + 8191) / 8192,
		hammerPhys: phys[:0],
	}
	if m.remap == nil {
		m.remap = DirectRemap{}
	}
	if m.disturber == nil {
		m.disturber = NopDisturber{}
	}
	m.prober, _ = m.disturber.(FlipProber)
	if m.tempC == 0 {
		m.tempC = 50
	}
	if banks == nil {
		banks = make([]*bankState, m.geo.Banks)
	}
	for i, b := range banks {
		if b == nil {
			banks[i] = newBankState(m.geo.RowsPerBank)
		} else {
			b.reset()
		}
	}
	m.banks = banks
	if cfg.TRR != nil {
		if trr == nil {
			trr = make([]*trrSampler, m.geo.Banks)
		}
		for i, s := range trr {
			if s == nil {
				trr[i] = newTRRSampler(*cfg.TRR, i)
			} else {
				s.reset(*cfg.TRR, i)
			}
		}
		m.trr = trr
	}
	if cfg.Retention != nil {
		if ret == nil {
			ret = new(retention)
		}
		*ret = retention{cfg: *cfg.Retention, seed: cfg.Seed}
		m.ret = ret
		m.retOrientSeed = cfg.Seed
	}
}

// Geometry returns the module geometry.
func (m *Module) Geometry() Geometry { return m.geo }

// Timing returns the module timing set.
func (m *Module) Timing() Timing { return m.timing }

// Remap returns the internal row remapping scheme.
func (m *Module) Remap() RemapScheme { return m.remap }

// Stats returns a snapshot of activity counters.
func (m *Module) Stats() Stats { return m.stats }

// SetTemperature updates the module temperature (driven by the thermal
// controller). Takes effect for subsequent activations.
func (m *Module) SetTemperature(c float64) { m.tempC = c }

// Temperature returns the current module temperature in Celsius.
func (m *Module) Temperature() float64 { return m.tempC }

// Exec applies one command at absolute time now, enforcing protocol and
// timing rules. For RD it returns the data beat read.
func (m *Module) Exec(cmd Command, now Picos) (uint64, error) {
	switch cmd.Op {
	case OpNop:
		return 0, nil
	case OpAct:
		return 0, m.execAct(cmd, now)
	case OpPre:
		return 0, m.execPre(cmd, now)
	case OpPreAll:
		for b := 0; b < m.geo.Banks; b++ {
			c := cmd
			c.Bank = b
			c.Op = OpPre
			if err := m.execPre(c, now); err != nil {
				return 0, err
			}
		}
		return 0, nil
	case OpRd:
		return m.execRd(cmd, now)
	case OpWr:
		return 0, m.execWr(cmd, now)
	case OpRef:
		return 0, m.execRef(cmd, now)
	default:
		return 0, &ProtocolError{Msg: "unknown opcode", Cmd: cmd, At: now}
	}
}

func (m *Module) bank(cmd Command, now Picos) (*bankState, error) {
	if cmd.Bank < 0 || cmd.Bank >= m.geo.Banks {
		return nil, &ProtocolError{Msg: "bank out of range", Cmd: cmd, At: now}
	}
	return m.banks[cmd.Bank], nil
}

func (m *Module) execAct(cmd Command, now Picos) error {
	b, err := m.bank(cmd, now)
	if err != nil {
		return err
	}
	if cmd.Row < 0 || cmd.Row >= m.geo.RowsPerBank {
		return &ProtocolError{Msg: "row out of range", Cmd: cmd, At: now}
	}
	if b.activeRow >= 0 {
		return &ProtocolError{Msg: "bank already active", Cmd: cmd, At: now}
	}
	if now < m.refBlockUntil {
		return &TimingError{Param: "tRFC", Required: m.timing.TRFC, Actual: m.timing.TRFC - (m.refBlockUntil - now), Cmd: cmd, At: now}
	}
	if b.everPre {
		if d := now - b.lastPreAt; d < m.timing.TRP {
			return &TimingError{Param: "tRP", Required: m.timing.TRP, Actual: d, Cmd: cmd, At: now}
		}
	}
	if b.everAct {
		if d := now - b.lastActAt; d < m.timing.TRC {
			return &TimingError{Param: "tRC", Required: m.timing.TRC, Actual: d, Cmd: cmd, At: now}
		}
	}
	if m.everActAny {
		if d := now - m.lastActAnyAt; d < m.timing.TRRD {
			return &TimingError{Param: "tRRD", Required: m.timing.TRRD, Actual: d, Cmd: cmd, At: now}
		}
	}

	phys := m.remap.ToPhysical(cmd.Row)
	// Opening the row senses and restores its charge. Retention decay
	// is applied now; accumulated disturbance is applied by the first
	// command that can observe it (resolveSense), or dropped by a
	// full-row write.
	m.restoreRetention(cmd.Bank, phys, now)
	if s := b.peek(phys); s != nil && !s.ledger.Empty() {
		b.senseDue = true
	}

	off := m.timing.TRP
	if b.everPre {
		off = now - b.lastPreAt
	}
	b.activeRow = phys
	b.hasRowOpen = true
	b.rowOpenedAt = now
	b.lastActAt = now
	b.everAct = true
	b.pendingOff = off
	b.actTempC = m.tempC
	m.lastActAnyAt = now
	m.everActAny = true
	m.stats.Acts++

	if m.trr != nil {
		m.trr[cmd.Bank].observe(phys)
	}
	return nil
}

func (m *Module) execPre(cmd Command, now Picos) error {
	b, err := m.bank(cmd, now)
	if err != nil {
		return err
	}
	if b.activeRow < 0 {
		// PRE to an idle bank is a legal NOP.
		m.stats.Pres++
		return nil
	}
	if d := now - b.lastActAt; d < m.timing.TRAS {
		return &TimingError{Param: "tRAS", Required: m.timing.TRAS, Actual: d, Cmd: cmd, At: now}
	}
	if b.everRd {
		if d := now - b.lastRdAt; d < m.timing.TRTP {
			return &TimingError{Param: "tRTP", Required: m.timing.TRTP, Actual: d, Cmd: cmd, At: now}
		}
	}
	if b.everWr {
		if d := now - b.lastWrAt; d < m.timing.TWR {
			return &TimingError{Param: "tWR", Required: m.timing.TWR, Actual: d, Cmd: cmd, At: now}
		}
	}

	m.resolveSense(cmd.Bank)
	// Closing the row: attribute one hammer to physical neighbors in
	// the same subarray, at distances 1 and 2.
	row := b.activeRow
	on := now - b.lastActAt
	for dist := 1; dist <= MaxDisturbDistance; dist++ {
		for _, n := range [2]int{row - dist, row + dist} {
			if n < 0 || n >= m.geo.RowsPerBank || !m.geo.SameSubarray(row, n) {
				continue
			}
			b.ledger(n).Record(dist, on, b.pendingOff, b.actTempC)
		}
	}

	b.activeRow = -1
	b.hasRowOpen = false
	b.lastPreAt = now
	b.everPre = true
	m.stats.Pres++
	return nil
}

func (m *Module) execRd(cmd Command, now Picos) (uint64, error) {
	b, err := m.bank(cmd, now)
	if err != nil {
		return 0, err
	}
	if b.activeRow < 0 {
		return 0, &ProtocolError{Msg: "read from precharged bank", Cmd: cmd, At: now}
	}
	if cmd.Col < 0 || cmd.Col >= m.geo.ColumnsPerRow {
		return 0, &ProtocolError{Msg: "column out of range", Cmd: cmd, At: now}
	}
	if d := now - b.lastActAt; d < m.timing.TRCD {
		return 0, &TimingError{Param: "tRCD", Required: m.timing.TRCD, Actual: d, Cmd: cmd, At: now}
	}
	if b.everCol {
		if d := now - b.lastColAt; d < m.timing.TCCD {
			return 0, &TimingError{Param: "tCCD", Required: m.timing.TCCD, Actual: d, Cmd: cmd, At: now}
		}
	}
	b.lastRdAt = now
	b.lastColAt = now
	b.everRd = true
	b.everCol = true
	m.stats.Reads++

	m.resolveSense(cmd.Bank)
	data := b.data(b.activeRow, m.geo.RowWords())
	return m.decodeBeat(data, m.openCheck(b), cmd.Col), nil
}

// openCheck returns the on-die ECC check bytes of a bank's open row,
// or nil when ECC is off or the row was never written.
func (m *Module) openCheck(b *bankState) []uint8 {
	if m.cfg.OnDieECC && m.beatBits == 64 {
		if s := b.peek(b.activeRow); s != nil {
			return s.check
		}
	}
	return nil
}

// decodeBeat returns the beat at a column of a row's words as a read
// returns it: corrected through the row's check bytes chk when present
// (see openCheck), with the decode outcome counted.
func (m *Module) decodeBeat(data []uint64, chk []uint8, col int) uint64 {
	beat := m.extractBeat(data, col)
	if chk == nil {
		return beat
	}
	corrected, res := ECCDecode(beat, chk[col])
	switch res {
	case ECCCorrected:
		m.stats.ECCCorrected++
		return corrected
	case ECCDetectedUncorrectable:
		m.stats.ECCUncorrectable++
	}
	return beat
}

func (m *Module) execWr(cmd Command, now Picos) error {
	b, err := m.bank(cmd, now)
	if err != nil {
		return err
	}
	if b.activeRow < 0 {
		return &ProtocolError{Msg: "write to precharged bank", Cmd: cmd, At: now}
	}
	if cmd.Col < 0 || cmd.Col >= m.geo.ColumnsPerRow {
		return &ProtocolError{Msg: "column out of range", Cmd: cmd, At: now}
	}
	if d := now - b.lastActAt; d < m.timing.TRCD {
		return &TimingError{Param: "tRCD", Required: m.timing.TRCD, Actual: d, Cmd: cmd, At: now}
	}
	if b.everCol {
		if d := now - b.lastColAt; d < m.timing.TCCD {
			return &TimingError{Param: "tCCD", Required: m.timing.TCCD, Actual: d, Cmd: cmd, At: now}
		}
	}
	b.lastWrAt = now
	b.lastColAt = now
	b.everWr = true
	b.everCol = true
	m.stats.Writes++

	m.resolveSense(cmd.Bank)
	data := b.data(b.activeRow, m.geo.RowWords())
	m.insertBeat(data, cmd.Col, cmd.Data)
	if m.cfg.OnDieECC && m.beatBits == 64 {
		b.checkBytes(b.activeRow, m.geo.ColumnsPerRow)[cmd.Col] = ECCEncode(cmd.Data)
	}
	return nil
}

func (m *Module) execRef(cmd Command, now Picos) error {
	for i, b := range m.banks {
		if b.activeRow >= 0 {
			return &ProtocolError{Msg: fmt.Sprintf("REF with bank %d active", i), Cmd: cmd, At: now}
		}
	}
	if m.everRef {
		// 8192 REFs must cover tREFW; a slot is tREFW/8192.
		slot := m.timing.TREFW / 8192
		if now-m.lastRefAt > 2*slot {
			m.stats.RefreshWindowOverruns++
		}
	}
	m.lastRefAt = now
	m.everRef = true
	m.refBlockUntil = now + m.timing.TRFC
	m.stats.Refs++

	// Refresh the next rowsPerRef rows in every bank: sensing restores
	// charge, clearing accumulated disturbance.
	for bi := range m.banks {
		for i := 0; i < m.rowsPerRef; i++ {
			row := (m.refRowCursor + i) % m.geo.RowsPerBank
			m.senseRow(bi, row, now)
		}
	}
	m.refRowCursor = (m.refRowCursor + m.rowsPerRef) % m.geo.RowsPerBank

	// TRR rides on REF: refresh suspected victims.
	if m.trr != nil {
		for bi, s := range m.trr {
			for _, v := range s.victims() {
				if v >= 0 && v < m.geo.RowsPerBank {
					m.senseRow(bi, v, now)
					m.stats.TRRRefreshes++
				}
			}
		}
	}
	return nil
}

// retentionFloor is the minimum unrefreshed interval worth scanning a
// row for retention decay: even the weak tail at 90 °C holds ≈20 ms.
const retentionFloor = Millisecond

// senseRow applies retention decay and accumulated disturbance to a
// closed physical row (as REF or TRR senses its charge) and restores
// it (ledger reset, restore timestamp).
func (m *Module) senseRow(bank, phys int, now Picos) {
	m.restoreRetention(bank, phys, now)
	m.applyDisturb(bank, phys)
}

// restoreRetention applies the retention decay a physical row suffered
// since its last charge restore and stamps the restore time.
func (m *Module) restoreRetention(bank, phys int, now Picos) {
	b := m.banks[bank]
	if m.ret != nil {
		s := b.slot(phys)
		if s.restored {
			if held := now - s.restoredAt; held >= retentionFloor {
				if data := b.dataIfPresent(phys); data != nil {
					n := m.applyRetention(bank, phys, data, held)
					m.stats.RetentionFlips += int64(n)
					m.stats.FlipsInjected += int64(n)
				}
			}
		}
		s.restoredAt, s.restored = now, true
	}
}

// resolveSense applies the disturbance execAct deferred for a bank's
// open row, if any. It runs before anything can observe that row's
// stored data: a read, a partial write, the closing PRE, a peek, or
// Settle.
func (m *Module) resolveSense(bank int) {
	b := m.banks[bank]
	if !b.senseDue {
		return
	}
	b.senseDue = false
	m.applyDisturb(bank, b.activeRow)
}

// dropSense discards the disturbance execAct deferred for a bank's
// open row, whose every column is about to be overwritten: the flips
// could never be read, so the row's charge is simply restored.
func (m *Module) dropSense(bank int) {
	b := m.banks[bank]
	if !b.senseDue {
		return
	}
	b.senseDue = false
	b.ledger(b.activeRow).Reset()
}

// Settle applies every deferred disturbance, leaving the stored data
// exactly as eager sensing at activation would have. The executor
// calls it at the end of every program, so no deferral outlives the
// program that caused it.
func (m *Module) Settle() {
	for bank := range m.banks {
		m.resolveSense(bank)
	}
}

// applyDisturb evaluates a physical row's accumulated disturbance,
// applies the resulting flips and resets its ledger.
func (m *Module) applyDisturb(bank, phys int) {
	b := m.banks[bank]
	s := b.peek(phys)
	if s == nil || s.ledger.Empty() {
		return
	}
	led := &s.ledger
	data := b.data(phys, m.geo.RowWords())
	flips, mask := m.disturber.Disturb(DisturbContext{
		Bank:     bank,
		Row:      phys,
		Ledger:   led,
		Data:     data,
		Geometry: m.geo,
		Up:       m.neighborData(b, phys, -1),
		Down:     m.neighborData(b, phys, +1),
	})
	if flips > 0 {
		ApplyFlipMask(data, mask)
	}
	m.stats.FlipsInjected += int64(flips)
	led.Reset()
}

// neighborData returns the backing words of the row at the given
// physical offset from phys, or nil when it is out of range,
// unallocated, or in a different subarray.
func (m *Module) neighborData(b *bankState, phys, offset int) []uint64 {
	n := phys + offset
	if n < 0 || n >= m.geo.RowsPerBank || !m.geo.SameSubarray(phys, n) {
		return nil
	}
	return b.dataIfPresent(n)
}

// extractBeat gathers the beat at a column address from a row's words.
func (m *Module) extractBeat(data []uint64, col int) uint64 {
	start := col * m.beatBits
	word := start / 64
	off := uint(start % 64)
	v := data[word] >> off
	if rem := 64 - int(off); rem < m.beatBits && word+1 < len(data) {
		v |= data[word+1] << uint(rem)
	}
	if m.beatBits < 64 {
		v &= (1 << uint(m.beatBits)) - 1
	}
	return v
}

// insertBeat stores a beat at a column address into a row's words.
func (m *Module) insertBeat(data []uint64, col int, beat uint64) {
	start := col * m.beatBits
	word := start / 64
	off := uint(start % 64)
	var mask uint64 = ^uint64(0)
	if m.beatBits < 64 {
		mask = (1 << uint(m.beatBits)) - 1
		beat &= mask
	}
	data[word] = data[word]&^(mask<<off) | beat<<off
	if rem := 64 - int(off); rem < m.beatBits && word+1 < len(data) {
		hiMask := mask >> uint(rem)
		data[word+1] = data[word+1]&^hiMask | beat>>uint(rem)
	}
}

// PeekRow returns a copy of the stored data for a *physical* row, or
// nil when the row was never touched. Test/diagnostic use: real chips
// have no such port, and characterization code must use RD commands.
func (m *Module) PeekRow(bank, physRow int) []uint64 {
	if bank < 0 || bank >= m.geo.Banks || physRow < 0 || physRow >= m.geo.RowsPerBank {
		return nil
	}
	m.resolvePeek(bank, physRow)
	d := m.banks[bank].dataIfPresent(physRow)
	if d == nil {
		return nil
	}
	out := make([]uint64, len(d))
	copy(out, d)
	return out
}

// PeekLedger returns a copy of a physical row's disturbance ledger
// (diagnostic use).
func (m *Module) PeekLedger(bank, physRow int) RowLedger {
	if bank < 0 || bank >= m.geo.Banks || physRow < 0 || physRow >= m.geo.RowsPerBank {
		return RowLedger{}
	}
	m.resolvePeek(bank, physRow)
	s := m.banks[bank].peek(physRow)
	if s == nil {
		return RowLedger{}
	}
	return s.ledger
}

// resolvePeek applies a deferred disturbance before a diagnostic peek
// at the open row observes it.
func (m *Module) resolvePeek(bank, physRow int) {
	if m.banks[bank].activeRow == physRow {
		m.resolveSense(bank)
	}
}

// ActiveRow returns the open physical row of a bank, or -1.
func (m *Module) ActiveRow(bank int) int {
	if bank < 0 || bank >= m.geo.Banks {
		return -1
	}
	return m.banks[bank].activeRow
}
