package dram

import (
	"reflect"
	"testing"
)

// mixDisturber flips one bit of a sensed row, chosen from the row's
// ledger and which neighbor rows are allocated, once the row received
// at least two distance-1 activations. It is a pure function of its
// input, so two modules agree on its flips exactly when they agree on
// everything a disturber observes.
type mixDisturber struct{}

func (mixDisturber) Disturb(ctx DisturbContext) (int, []uint64) {
	d := ctx.Ledger.Dist[0]
	if d.Count < 2 {
		return 0, nil
	}
	bit := int(d.Count*7+d.SumTempMilliC/1000) + 3*len(ctx.Up) + len(ctx.Down)
	bit %= ctx.Geometry.RowBits()
	mask := make([]uint64, len(ctx.Data))
	mask[bit/64] = 1 << (bit % 64)
	return 1, mask
}

// resetTestModule builds a module with every option on: TRR, on-die
// ECC, and a retention model weak enough to decay within a test.
func resetTestModule(t *testing.T) *Module {
	t.Helper()
	m, err := NewModule(ModuleConfig{
		Geometry:  Geometry{Banks: 2, RowsPerBank: 64, SubarrayRows: 32, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
		Timing:    DDR4Timing(),
		Disturber: mixDisturber{},
		TRR:       &TRRConfig{TableSize: 4, SampleProb: 0.5, Threshold: 8, Seed: 3},
		OnDieECC:  true,
		Retention: &RetentionConfig{
			MedianSeconds: 64, Sigma: 1, WeakFrac: 0.3, WeakMedianSeconds: 0.05, TempCoeffPerC: 0.069,
		},
		Seed:         11,
		InitialTempC: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resetObservation is everything a program can observe of a module,
// plus the diagnostic state no program sees directly.
type resetObservation struct {
	Reads   []uint64
	Stats   Stats
	TempC   float64
	Active  []int
	Rows    map[[2]int][]uint64
	Ledgers map[[2]int]RowLedger
}

// observe captures m's state after a program that read reads.
func observe(m *Module, reads []uint64) resetObservation {
	o := resetObservation{
		Reads:   reads,
		Stats:   m.Stats(),
		TempC:   m.Temperature(),
		Rows:    make(map[[2]int][]uint64),
		Ledgers: make(map[[2]int]RowLedger),
	}
	g := m.Geometry()
	for bank := 0; bank < g.Banks; bank++ {
		o.Active = append(o.Active, m.ActiveRow(bank))
		for row := 0; row < g.RowsPerBank; row++ {
			if d := m.PeekRow(bank, row); d != nil {
				o.Rows[[2]int{bank, row}] = d
			}
			if l := m.PeekLedger(bank, row); l != (RowLedger{}) {
				o.Ledgers[[2]int{bank, row}] = l
			}
		}
	}
	return o
}

// dirtyProgram drives m through every kind of state a module keeps:
// stored rows and check bytes in both banks, ledgers, TRR tables
// (refreshed through REF), retention stamps and decay, a changed
// temperature, and a row left open with its sensing deferred. It
// starts at time start, after whatever m ran before.
func dirtyProgram(t *testing.T, m *Module, start Picos) {
	tm := m.Timing()
	d := &driver{m: m, t: t, now: start}
	m.SetTemperature(85)
	for bank := 0; bank < 2; bank++ {
		for row := 4; row < 24; row++ {
			for col := 0; col < 8; col++ {
				d.openWriteClose(bank, row, col, uint64(row*131+col*7+bank))
			}
		}
	}
	end, err := m.HammerBulk(0, []int{11, 13}, 5000, tm.TRAS, tm.TRP, d.now)
	if err != nil {
		t.Fatal(err)
	}
	d.now = end + tm.TRP
	d.must(Command{Op: OpRef})
	d.step(tm.TRFC)
	d.now += 2000 * Millisecond
	for row := 9; row < 16; row++ {
		d.openReadClose(0, row, 3)
	}
	end, err = m.HammerBulk(1, []int{40}, 300, tm.TRAS, tm.TRP, d.now)
	if err != nil {
		t.Fatal(err)
	}
	d.now = end + tm.TRP
	d.must(Command{Op: OpAct, Bank: 1, Row: 41})
}

// observedProgram is the program whose outcome a reset module must
// reproduce exactly as a new one does. It starts at time 0, as a reset
// executor does.
func observedProgram(t *testing.T, m *Module) resetObservation {
	tm := m.Timing()
	d := &driver{m: m, t: t}
	for row := 10; row < 15; row++ {
		for col := 0; col < 8; col++ {
			d.openWriteClose(0, row, col, ^uint64(row*17+col))
		}
	}
	// A partly written row: its other columns read with the check bytes
	// a new row starts with.
	d.openWriteClose(0, 9, 2, 0xfeed)
	end, err := m.HammerBulk(0, []int{11, 13}, 4000, tm.TRAS, tm.TRP, d.now)
	if err != nil {
		t.Fatal(err)
	}
	d.now = end + tm.TRP
	d.must(Command{Op: OpRef})
	d.step(tm.TRFC)
	d.now += 1000 * Millisecond
	var reads []uint64
	for row := 8; row < 17; row++ {
		for col := 0; col < 8; col++ {
			reads = append(reads, d.openReadClose(0, row, col))
		}
	}
	return observe(m, reads)
}

// TestResetEqualsNewModule: after any history, Reset leaves a module
// that runs a program exactly as a freshly built one does — the same
// reads, stats, stored rows (including which rows exist at all),
// ledgers, open rows and temperature — with TRR, on-die ECC and
// retention all enabled.
func TestResetEqualsNewModule(t *testing.T) {
	fresh := observedProgram(t, resetTestModule(t))
	if fresh.Stats.FlipsInjected == 0 || fresh.Stats.TRRRefreshes == 0 ||
		fresh.Stats.RetentionFlips == 0 || fresh.Stats.ECCCorrected == 0 {
		t.Fatalf("observed program leaves an option unexercised: %+v", fresh.Stats)
	}

	m := resetTestModule(t)
	for round := 0; round < 3; round++ {
		dirtyProgram(t, m, Picos(round)*10_000*Millisecond)
		m.Reset()
		if got := observedProgram(t, m); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("round %d: reset module diverged from a new one:\nreset: %+v\nnew:   %+v", round, got.Stats, fresh.Stats)
		}
	}
}

// TestResetStateEqualsNewModule: beyond what programs observe, a
// reset module's state is field for field a new module's — including
// state no later command reads, such as the restore stamps of rows
// that no longer exist — apart from the storage a reset keeps: the
// free lists and the zeroed row-table pages.
func TestResetStateEqualsNewModule(t *testing.T) {
	m := resetTestModule(t)
	dirtyProgram(t, m, 0)
	m.Reset()
	if got, want := comparableState(t, m), comparableState(t, resetTestModule(t)); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset module state differs from a new one:\nreset: %+v\nnew:   %+v", got, want)
	}
}

// moduleState is a module's state as TestResetStateEqualsNewModule
// compares it: the module without the storage a reset keeps, plus the
// state of every row of every bank that holds any.
type moduleState struct {
	Module Module
	Rows   []map[int]rowSlot
}

// comparableState copies m's state without what a reset deliberately
// keeps: the free lists, the row-table pages (their rows' state is
// compared through Rows instead), the hammer scratch and the TRR
// tables' capacity. A page outside a bank's live list must be all
// zero.
func comparableState(t *testing.T, m *Module) moduleState {
	t.Helper()
	c := *m
	c.hammerPhys = nil
	c.banks = nil
	var rows []map[int]rowSlot
	for bi, b := range m.banks {
		held := make(map[int]rowSlot)
		for pi, p := range b.pages {
			if p == nil {
				continue
			}
			if !b.isLive[pi] && !reflect.ValueOf(*p).IsZero() {
				t.Fatalf("bank %d: page %d is not live but holds state", bi, pi)
			}
			for i, s := range p {
				if !reflect.ValueOf(s).IsZero() {
					held[pi*rowPageRows+i] = s
				}
			}
		}
		rows = append(rows, held)
		bc := *b
		bc.pages, bc.live, bc.isLive, bc.freeRows, bc.freeChecks = nil, nil, nil, nil, nil
		c.banks = append(c.banks, &bc)
	}
	c.trr = nil
	for _, s := range m.trr {
		sc := *s
		if len(sc.entries) == 0 {
			sc.entries = nil
		}
		c.trr = append(c.trr, &sc)
	}
	return moduleState{Module: c, Rows: rows}
}

// TestResetAllocatesNothing: a reset keeps every row's storage on the
// free lists, so resetting costs no allocation.
func TestResetAllocatesNothing(t *testing.T) {
	m := resetTestModule(t)
	dirtyProgram(t, m, 0)
	if n := testing.AllocsPerRun(10, m.Reset); n != 0 {
		t.Fatalf("Reset allocated %.0f times per run, want 0", n)
	}
}
