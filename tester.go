package rowhammer

import (
	"fmt"
	"sync/atomic"

	"rowhammer/internal/dram"
	"rowhammer/internal/pool"
	"rowhammer/internal/rng"
	"rowhammer/internal/softmc"
	"rowhammer/internal/thermal"
)

// patternRadius is how many rows on each side of the victim are
// initialized with the data pattern (Table 1: V±[1..8]).
const patternRadius = 8

// Tester drives the §4.2 RowHammer methodology against one bench.
type Tester struct {
	b *Bench
	// rowMap translates physical row indexes to the logical addresses
	// the controller must issue. It defaults to the module's real
	// mapping (the oracle); RecoverMapping derives it experimentally.
	rowMap dram.RemapScheme
	// patternSeed feeds the random data pattern.
	patternSeed uint64
	// beat is the module's column width in bits (Geometry.BeatBits)
	// and beatMask its low-bit mask: a column stores only the beat's
	// bits of a pattern word.
	beat     int
	beatMask uint64
	// workers bounds the pool used by the parallel measurement cores;
	// <1 selects one worker per CPU.
	workers int

	// Reusable scratch for the hot measurement loop (lazily built by
	// ensureScratch). A Tester is single-threaded — parallel shards run
	// on clones — so the buffers are never contended.
	bld      *softmc.Builder // the short programs: hammer, readback, compare
	res      softmc.Result
	rowArena [][]uint64 // one pattern buffer per V±patternRadius position
	// arenaKey is the (bank, victim, pattern) whose in-range V±8 rows
	// rowArena holds, set by writePattern (victim -1 until the first
	// write).
	arenaKey patternKey
	rowWant  []uint64 // expected words of a readback the arena misses
	aggRows  [2]int
	salts    []uint64
	// wbld holds writePattern's program for progKey: one ACT/WR/PRE
	// group per in-range V±8 row, its bursts aliasing the row arena.
	// It is reassembled only when the key changes or UseMapping
	// changes the logical rows it activates (victim -1: none held).
	wbld    *softmc.Builder
	progKey patternKey
	// victimRes is the victim-only result HCFirst's final probe and
	// SurveyPatterns reuse across tests.
	victimRes HammerResult

	// clones counts the bench clones cloneAt built, from any pool
	// worker, so tests can hold the parallel cores to their
	// one-clone-per-worker budget.
	clones atomic.Int64
}

// NewTester returns a Tester using the module's internal mapping as
// the physical-address oracle (as if reverse engineering already ran;
// use RecoverMapping to derive it from measurements instead).
func NewTester(b *Bench) *Tester {
	beat := b.Geometry().BeatBits()
	return &Tester{
		b: b, rowMap: b.Module.Remap(), patternSeed: rng.Hash64(b.Seed, 0xd7),
		beat: beat, beatMask: ^uint64(0) >> (64 - beat),
	}
}

// UseMapping overrides the physical→logical row mapping.
func (t *Tester) UseMapping(m dram.RemapScheme) {
	t.rowMap = m
	t.progKey = patternKey{victim: -1}
}

// SetWorkers bounds the worker pool of the parallel measurement cores
// (RowHCFirstProfile, TemperatureSweep, and the Measure* cores
// built on them). n < 1 selects one worker per CPU; n == 1 forces the
// serial in-place path. Each pool worker builds one hermetic bench
// clone per call and resets it before every unit it runs, so a call
// builds at most n clones however many units it has. Results are
// bit-identical for every worker count: a reset clone reproduces the
// serial measurements exactly.
func (t *Tester) SetWorkers(n int) { t.workers = n }

// effectiveWorkers resolves the configured worker count.
func (t *Tester) effectiveWorkers() int {
	if t.workers < 1 {
		return pool.DefaultWorkers()
	}
	return t.workers
}

// cloneAt builds a hermetic copy of the tester on a bench clone whose
// chamber starts as a copy of ch (see Bench.cloneAt), preserving any
// mapping override. Clones are what the parallel measurement units
// hammer, so concurrent units never share mutable device state; a
// clone's scratch buffers (builder, arena, results) carry over from
// unit to unit, since every program rewrites what it uses.
func (t *Tester) cloneAt(ch *thermal.Chamber) (*Tester, error) {
	b, err := t.b.cloneAt(ch)
	if err != nil {
		return nil, err
	}
	t.clones.Add(1)
	sub := NewTester(b)
	sub.UseMapping(t.rowMap)
	sub.patternSeed = t.patternSeed
	return sub, nil
}

// Bench returns the device under test.
func (t *Tester) Bench() *Bench { return t.b }

// InitPattern writes the Table 1 pattern into the victim and its
// ±8 physical neighbors (public entry point for attack/defense
// harnesses built on top of the Tester). The bank and the victim must
// lie in the module; the victim may sit at its edge, where the rows of
// its window outside the bank are skipped.
func (t *Tester) InitPattern(bank, victimPhys int, pat dram.PatternKind) error {
	if err := t.validateBank(bank); err != nil {
		return err
	}
	if victimPhys < 0 || victimPhys >= t.b.Geometry().RowsPerBank {
		return fmt.Errorf("rowhammer: victim row %d out of range", victimPhys)
	}
	return t.writePattern(bank, victimPhys, pat)
}

// ReadFlips reads a physical row and returns the bits differing from
// the pattern written for the given victim-relative position.
func (t *Tester) ReadFlips(bank, phys, victimPhys int, pat dram.PatternKind) (FlipSet, error) {
	return t.readRowFlips(bank, phys, victimPhys, pat)
}

// LogicalRow converts a physical row index to the controller-visible
// address under the Tester's current mapping.
func (t *Tester) LogicalRow(phys int) int { return t.logical(phys) }

// logical converts a physical row index to its controller-visible
// address.
func (t *Tester) logical(phys int) int { return t.rowMap.ToLogical(phys) }

// HammerConfig describes one double-sided RowHammer test.
type HammerConfig struct {
	Bank int
	// VictimPhys is the physical row index of the double-sided victim.
	VictimPhys int
	// Hammers is the number of aggressor-pair activations.
	Hammers int64
	// AggOnNs/AggOffNs are the aggressor on/off times; zero means the
	// timing minimums (tRAS/tRP), the paper's baseline.
	AggOnNs, AggOffNs float64
	// Pattern is the data pattern written to V±[0..8].
	Pattern dram.PatternKind
	// Trial salts measurement noise; each repetition uses a distinct
	// trial number.
	Trial uint64
}

// FlipSet records the bit flips observed in one row after a test.
type FlipSet struct {
	// Bits are the flipped bit indexes within the row.
	Bits []int
}

// Count returns the number of flips.
func (f FlipSet) Count() int { return len(f.Bits) }

// HammerResult is the outcome of one double-sided test: flips in the
// victim (distance 0) and in the two single-sided victims (±2). A
// measurement that observes only the victim (BER, SurveyPatterns,
// TemperatureSweep without Singles) leaves SingleLo and SingleHi
// empty.
type HammerResult struct {
	Victim    FlipSet
	SingleLo  FlipSet // physical victim-2
	SingleHi  FlipSet // physical victim+2
	DurationP dram.Picos
}

// TotalFlips returns flips across all three observed rows.
func (r HammerResult) TotalFlips() int {
	return r.Victim.Count() + r.SingleLo.Count() + r.SingleHi.Count()
}

// validateVictim checks that a double-sided attack on the victim is
// physically possible.
func (t *Tester) validateVictim(bank, victim int) error {
	if err := t.validateBank(bank); err != nil {
		return err
	}
	g := t.b.Geometry()
	if victim < 1 || victim >= g.RowsPerBank-1 {
		return fmt.Errorf("rowhammer: victim row %d has no physical neighbor", victim)
	}
	if !g.SameSubarray(victim-1, victim) || !g.SameSubarray(victim, victim+1) {
		return fmt.Errorf("rowhammer: victim row %d sits on a subarray edge", victim)
	}
	return nil
}

// validateBank checks that a bank exists in the module.
func (t *Tester) validateBank(bank int) error {
	if bank < 0 || bank >= t.b.Geometry().Banks {
		return fmt.Errorf("rowhammer: bank %d out of range", bank)
	}
	return nil
}

// patternKey identifies the words writePattern puts in the row arena.
type patternKey struct {
	bank, victim int
	pat          dram.PatternKind
}

// fillRow writes the pattern's per-column beats for one row into dst:
// each fill word masked to the beat, which is what the column stores
// (hoisting the constant word of non-random patterns out of the
// column loop).
func (t *Tester) fillRow(dst []uint64, bank, phys, dist int, pat dram.PatternKind) {
	if pat == dram.PatRandom {
		for col := range dst {
			dst[col] = pat.FillWord(t.patternSeed, bank, phys, dist, col) & t.beatMask
		}
		return
	}
	w := pat.FillWord(t.patternSeed, bank, phys, dist, 0) & t.beatMask
	for col := range dst {
		dst[col] = w
	}
}

// appendFlips appends the row-bit index of every bit where the read
// beats differ from the expected ones: column col's bit off is row
// bit col·beat + off, as the module packs them.
func (t *Tester) appendFlips(bits []int, got, want []uint64) []int {
	for col, g := range got {
		diff := g ^ want[col]
		for diff != 0 {
			bits = append(bits, col*t.beat+tz64(diff))
			diff &= diff - 1
		}
	}
	return bits
}

// writePatternInstrs is the number of instructions writePattern
// issues per row (ACT, wait, burst, wait, PRE, wait).
const writePatternInstrs = 6

// shortProgramInstrs bounds the instructions of the programs t.bld
// assembles (a readback or compare-read is ACT, wait, burst, wait,
// PRE, wait; a hammer is one loop).
const shortProgramInstrs = 6

// ensureScratch lazily sizes the Tester's reusable buffers: two
// builders whose instruction buffers persist across programs, each
// sized up front so it never regrows (one for writePattern's program,
// one for the short ones), a result whose read buffer persists across
// runs, one pattern buffer per V±patternRadius row position
// (WrRowShared aliases them while the write program is held; the
// device copies words into bank storage and never writes them, so they
// stay valid for later writes and readbacks) and one row of expected
// words for readbacks the arena does not hold.
func (t *Tester) ensureScratch() {
	if t.bld != nil {
		return
	}
	g := t.b.Geometry()
	n := 2*patternRadius + 1
	t.bld = softmc.NewBuilder(t.b.Timing().TCK).Grow(shortProgramInstrs)
	t.wbld = softmc.NewBuilder(t.b.Timing().TCK).Grow(n * writePatternInstrs)
	backing := make([]uint64, (n+1)*g.ColumnsPerRow)
	t.rowArena = make([][]uint64, n)
	for i := range t.rowArena {
		t.rowArena[i] = backing[i*g.ColumnsPerRow : (i+1)*g.ColumnsPerRow : (i+1)*g.ColumnsPerRow]
	}
	t.rowWant = backing[n*g.ColumnsPerRow:]
	t.arenaKey = patternKey{victim: -1}
	t.progKey = patternKey{victim: -1}
}

// writePattern initializes the victim and its ±patternRadius physical
// neighbors with the pattern, via regular WR commands (issued as one
// bulk burst per row — bit-identical to the per-command sequence).
// The row arena is refilled, and the program reassembled, only when
// (bank, victim, pattern) changed since the last write: the words
// depend on nothing else, and the program only on the key and the
// mapping.
func (t *Tester) writePattern(bank, victim int, pat dram.PatternKind) error {
	t.ensureScratch()
	// The window's rows that lie in the bank.
	lo, hi := max(victim-patternRadius, 0), min(victim+patternRadius, t.b.Geometry().RowsPerBank-1)
	key := patternKey{bank, victim, pat}
	if t.arenaKey != key {
		for phys := lo; phys <= hi; phys++ {
			t.fillRow(t.rowArena[phys-victim+patternRadius], bank, phys, phys-victim, pat)
		}
		t.arenaKey = key
	}
	if t.progKey != key {
		tm := t.b.Timing()
		bld := t.wbld.Reset()
		for phys := lo; phys <= hi; phys++ {
			bld.Act(bank, t.logical(phys)).Wait(tm.TRCD)
			bld.WrRowShared(bank, t.rowArena[phys-victim+patternRadius], tm.TCCD)
			bld.Wait(tm.TRAS). // generous: covers tWR and the tRAS remainder
						Pre(bank).Wait(tm.TRP)
		}
		t.progKey = key
	}
	return t.b.Exec.RunInto(t.wbld.View(), &t.res)
}

// expectedRow returns the words a physical row was initialized with
// for the given victim: the row arena's when the last pattern write
// was for this (bank, victim, pattern) and covered the row, otherwise
// the pattern's fill words, computed into scratch.
func (t *Tester) expectedRow(bank, phys, victim int, pat dram.PatternKind) []uint64 {
	dist := phys - victim
	if t.arenaKey == (patternKey{bank, victim, pat}) &&
		dist >= -patternRadius && dist <= patternRadius && phys >= 0 && phys < t.b.Geometry().RowsPerBank {
		return t.rowArena[dist+patternRadius]
	}
	t.fillRow(t.rowWant, bank, phys, dist, pat)
	return t.rowWant
}

// readRowFlips reads one physical row and returns the bits that differ
// from the pattern it was initialized with. Reading activates the row,
// which senses (and materializes) any accumulated disturbance first —
// exactly as on hardware.
func (t *Tester) readRowFlips(bank, phys, victim int, pat dram.PatternKind) (FlipSet, error) {
	var flips FlipSet
	err := t.readRowFlipsInto(&flips, bank, phys, victim, pat)
	return flips, err
}

// readRowFlipsInto is readRowFlips reusing the caller's flip buffer
// (truncated, then appended to) — the allocation-free variant for hot
// measurement loops.
func (t *Tester) readRowFlipsInto(flips *FlipSet, bank, phys, victim int, pat dram.PatternKind) error {
	t.ensureScratch()
	g := t.b.Geometry()
	tm := t.b.Timing()
	bld := t.bld.Reset()
	bld.Act(bank, t.logical(phys)).Wait(tm.TRCD)
	bld.RdRow(bank, g.ColumnsPerRow, tm.TCCD)
	bld.Wait(tm.TRAS).Pre(bank).Wait(tm.TRP)
	flips.Bits = flips.Bits[:0]
	if err := t.b.Exec.RunInto(bld.View(), &t.res); err != nil {
		return err
	}
	flips.Bits = t.appendFlips(flips.Bits, t.res.Reads, t.expectedRow(bank, phys, victim, pat))
	return nil
}

// Hammer runs one complete double-sided RowHammer test: initialize
// data, hammer, read back the double-sided and single-sided victims.
func (t *Tester) Hammer(cfg HammerConfig) (HammerResult, error) {
	var out HammerResult
	err := t.HammerInto(cfg, &out)
	return out, err
}

// HammerInto is Hammer writing into a caller-owned result whose flip
// buffers are truncated and reused — the allocation-free variant for
// hot measurement loops. Results are bit-identical to Hammer.
func (t *Tester) HammerInto(cfg HammerConfig, out *HammerResult) error {
	return t.hammerInto(cfg, out, true)
}

// hammerInto is HammerInto; singles=false skips reading the two
// single-sided victims (out.SingleLo/SingleHi stay empty), for
// callers that only observe the double-sided victim. Skipping them
// changes no later measurement: every test writes its pattern over
// V±8 before it reads a row, so a row's unread disturbance is
// overwritten (and, under deferred sensing, never evaluated).
func (t *Tester) hammerInto(cfg HammerConfig, out *HammerResult, singles bool) error {
	out.Victim.Bits = out.Victim.Bits[:0]
	out.SingleLo.Bits = out.SingleLo.Bits[:0]
	out.SingleHi.Bits = out.SingleHi.Bits[:0]
	out.DurationP = 0
	defer t.b.Model.SetSalt(0)
	d, err := t.hammerVictim(cfg)
	if err != nil {
		return err
	}
	out.DurationP = d
	if err := t.readRowFlipsInto(&out.Victim, cfg.Bank, cfg.VictimPhys, cfg.VictimPhys, cfg.Pattern); err != nil {
		return err
	}
	if !singles {
		return nil
	}
	g := t.b.Geometry()
	if cfg.VictimPhys-2 >= 0 {
		if err := t.readRowFlipsInto(&out.SingleLo, cfg.Bank, cfg.VictimPhys-2, cfg.VictimPhys, cfg.Pattern); err != nil {
			return err
		}
	}
	if cfg.VictimPhys+2 < g.RowsPerBank {
		if err := t.readRowFlipsInto(&out.SingleHi, cfg.Bank, cfg.VictimPhys+2, cfg.VictimPhys, cfg.Pattern); err != nil {
			return err
		}
	}
	return nil
}

// hammerVictim runs a test up to its readback: it validates cfg, sets
// the trial's salt, writes the pattern over V±8 and hammers, returning
// the hammering time. The caller reads what it observes and then
// restores salt 0, since the reads evaluate the disturbance.
func (t *Tester) hammerVictim(cfg HammerConfig) (dram.Picos, error) {
	if err := t.validateVictim(cfg.Bank, cfg.VictimPhys); err != nil {
		return 0, err
	}
	if cfg.Hammers < 0 {
		return 0, fmt.Errorf("rowhammer: negative hammer count")
	}
	t.ensureScratch()
	t.b.Model.SetSalt(cfg.Trial)

	if err := t.writePattern(cfg.Bank, cfg.VictimPhys, cfg.Pattern); err != nil {
		return 0, err
	}

	tm := t.b.Timing()
	aggOn := tm.TRAS
	if cfg.AggOnNs > 0 {
		aggOn = dram.PicosFromNs(cfg.AggOnNs)
	}
	aggOff := tm.TRP
	if cfg.AggOffNs > 0 {
		aggOff = dram.PicosFromNs(cfg.AggOffNs)
	}
	t.aggRows[0] = t.logical(cfg.VictimPhys - 1)
	t.aggRows[1] = t.logical(cfg.VictimPhys + 1)
	bld := t.bld.Reset()
	bld.HammerShared(cfg.Bank, t.aggRows[:], cfg.Hammers, aggOn, aggOff)
	start := t.b.Exec.Now()
	if err := t.b.Exec.RunInto(bld.View(), &t.res); err != nil {
		return 0, err
	}
	return t.b.Exec.Now() - start, nil
}

// victimFlipped runs a test and reports only whether the victim flipped:
// the victim is compare-read against its pattern words (still in the
// row arena after writePattern) instead of read back. The compare-read
// is timed, checked and counted like the readback, but a device that
// can tell whether a row flips without applying the flips
// (dram.FlipProber) leaves a flipped victim stale: its stored words
// lack the flips. The caller must overwrite the victim in full — the
// next test's pattern write does — before anything else touches it.
func (t *Tester) victimFlipped(cfg HammerConfig) (bool, error) {
	defer t.b.Model.SetSalt(0)
	if _, err := t.hammerVictim(cfg); err != nil {
		return false, err
	}
	tm := t.b.Timing()
	bld := t.bld.Reset()
	bld.Act(cfg.Bank, t.logical(cfg.VictimPhys)).Wait(tm.TRCD)
	bld.CmpRow(cfg.Bank, t.rowArena[patternRadius], tm.TCCD)
	bld.Wait(tm.TRAS).Pre(cfg.Bank).Wait(tm.TRP)
	if err := t.b.Exec.RunInto(bld.View(), &t.res); err != nil {
		return false, err
	}
	return t.res.Differs, nil
}

// declareTrialSalts announces the upcoming min-of-R trial batch
// (salts 1..reps) to the fault model so one candidate walk can
// evaluate all repetitions at once.
func (t *Tester) declareTrialSalts(reps int) {
	t.salts = t.salts[:0]
	for rep := 0; rep < reps; rep++ {
		t.salts = append(t.salts, uint64(rep)+1)
	}
	t.b.Model.SetTrialSalts(t.salts)
}

// BER measures the bit error rate of a victim row: the number of
// RowHammer bit flips at the given hammer count, using the worst case
// over the configured repetitions (the paper repeats five times). It
// reads only the victim: the result's SingleLo and SingleHi stay empty.
func (t *Tester) BER(cfg HammerConfig, repetitions int) (HammerResult, error) {
	if repetitions < 1 {
		repetitions = 1
	}
	t.declareTrialSalts(repetitions)
	// worst and cur swap slice headers rather than copying, so each
	// repetition reuses whichever buffers the previous best released.
	var worst, cur HammerResult
	for rep := 0; rep < repetitions; rep++ {
		c := cfg
		c.Trial = uint64(rep) + 1
		if err := t.hammerInto(c, &cur, false); err != nil {
			return worst, err
		}
		if rep == 0 || cur.Victim.Count() > worst.Victim.Count() {
			worst, cur = cur, worst
		}
	}
	return worst, nil
}
