package softmc

import (
	"strings"
	"testing"

	"rowhammer/internal/dram"
)

func newTestModule(t *testing.T) *dram.Module {
	t.Helper()
	m, err := dram.NewModule(dram.ModuleConfig{
		Geometry: dram.Geometry{Banks: 2, RowsPerBank: 64, SubarrayRows: 64, Chips: 8, ChipWidth: 8, ColumnsPerRow: 8},
		Timing:   dram.DDR4Timing(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuilderRoundsToClock(t *testing.T) {
	b := NewBuilder(dram.PicosFromNs(1.25))
	b.Wait(dram.PicosFromNs(34.5)) // 34.5/1.25 = 27.6 cycles → 28 cycles = 35 ns
	p := b.Program()
	if got := p.Instrs[0].Delay; got != dram.PicosFromNs(35) {
		t.Fatalf("rounded delay = %v ps, want 35000", got)
	}
	b2 := NewBuilder(dram.PicosFromNs(2.5))
	b2.Wait(dram.PicosFromNs(35)) // exactly 14 cycles
	if got := b2.Program().Instrs[0].Delay; got != dram.PicosFromNs(35) {
		t.Fatalf("exact delay altered: %v", got)
	}
}

func TestBuilderPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(0)
}

func TestProgramWriteReadRoundTrip(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	b.Act(0, 5).
		Wait(tm.TRCD).
		Wr(0, 3, 0x1234).
		Wait(tm.TRAS). // generous: covers tWR and tRAS
		Pre(0).
		Wait(tm.TRP).
		Act(0, 5).
		Wait(tm.TRCD).
		Rd(0, 3).
		Wait(tm.TRAS).
		Pre(0)
	res, err := NewExecutor(m).Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reads) != 1 || res.Reads[0] != 0x1234 {
		t.Fatalf("reads = %#v", res.Reads)
	}
}

func TestExecutorReportsTimingViolations(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	b.Act(0, 1).Pre(0) // PRE one cycle after ACT: tRAS violation
	_, err := NewExecutor(m).Run(b.Program())
	if err == nil || !strings.Contains(err.Error(), "tRAS") {
		t.Fatalf("expected tRAS violation, got %v", err)
	}
}

func TestHammerLoopAccumulatesLedger(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	const hammers = 1000
	b.Hammer(0, []int{9, 11}, hammers, tm.TRAS, tm.TRP)
	res, err := NewExecutor(m).Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	led := m.PeekLedger(0, 10)
	if led.Dist[0].Count != 2*hammers {
		t.Fatalf("victim count = %d", led.Dist[0].Count)
	}
	if res.End <= 0 {
		t.Fatal("no time elapsed")
	}
	// Hammer period: tRAS + tRP per activation, two rows.
	want := dram.Picos(hammers) * 2 * (tm.TRAS + tm.TRP)
	if res.End != want {
		t.Fatalf("end = %d, want %d", res.End, want)
	}
}

func TestHammerLoopErrorPropagates(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	b.Hammer(0, []int{999}, 10, tm.TRAS, tm.TRP)
	if _, err := NewExecutor(m).Run(b.Program()); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
}

func TestTraceRecordsCommands(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	b.Act(0, 1).Wait(tm.TRAS).Pre(0)
	ex := NewExecutor(m)
	ex.SetTrace(true)
	res, err := ex.Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	if res.Trace[0].Cmd.Op != dram.OpAct || res.Trace[1].Cmd.Op != dram.OpPre {
		t.Fatalf("trace ops wrong: %+v", res.Trace)
	}
	if got := res.Trace[1].At - res.Trace[0].At; got != tm.TRAS {
		t.Fatalf("ACT→PRE spacing = %v, want tRAS %v", got, tm.TRAS)
	}
}

func TestFig6TimingShapes(t *testing.T) {
	// The Fig. 6 methodology: Aggressor-On tests stretch ACT→PRE,
	// Aggressor-Off tests stretch PRE→ACT; verify the emitted command
	// spacings match the requested tAggOn/tAggOff exactly.
	m := newTestModule(t)
	tm := m.Timing()
	aggOn := dram.PicosFromNs(154.5)
	b := NewBuilder(tm.TCK)
	b.Act(0, 9).Wait(aggOn).Pre(0).Wait(tm.TRP).
		Act(0, 11).Wait(aggOn).Pre(0)
	ex := NewExecutor(m)
	ex.SetTrace(true)
	res, err := ex.Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	// trace: ACT, PRE, ACT, PRE
	if got := res.Trace[1].At - res.Trace[0].At; got != aggOn {
		t.Fatalf("tAggOn spacing = %v, want %v", got, aggOn)
	}
	if got := res.Trace[2].At - res.Trace[1].At; got != tm.TRP {
		t.Fatalf("tAggOff spacing = %v, want %v", got, tm.TRP)
	}
	// The module must have recorded exactly these times.
	led := m.PeekLedger(0, 10)
	if led.Dist[0].AvgOnNs() != 154.5 {
		t.Fatalf("recorded on-time %v", led.Dist[0].AvgOnNs())
	}
}

func TestExecutorTimePersistsAcrossRuns(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	ex := NewExecutor(m)
	b := NewBuilder(tm.TCK)
	b.Act(0, 1).Wait(tm.TRAS).Pre(0)
	if _, err := ex.Run(b.Program()); err != nil {
		t.Fatal(err)
	}
	t1 := ex.Now()
	// Second run reuses the same row: must respect tRP automatically
	// only if the program waits; check that time started from t1.
	b2 := NewBuilder(tm.TCK)
	b2.Wait(tm.TRP).Act(0, 1).Wait(tm.TRAS).Pre(0)
	res, err := ex.Run(b2.Program())
	if err != nil {
		t.Fatal(err)
	}
	if res.End <= t1 {
		t.Fatal("time did not persist across runs")
	}
}

// TestExecutorReset: a reset executor runs a program exactly as a new
// one does — from time 0, with tracing off.
func TestExecutorReset(t *testing.T) {
	tm := newTestModule(t).Timing()
	prog := NewBuilder(tm.TCK).Act(0, 1).Wait(tm.TRAS).Pre(0).Program()
	used := NewExecutor(newTestModule(t))
	used.SetTrace(true)
	if _, err := used.Run(prog); err != nil {
		t.Fatal(err)
	}
	used.Reset()
	if used.Now() != 0 {
		t.Fatalf("reset executor at t=%d, want 0", used.Now())
	}
	// The module is not the executor's to reset: give it a fresh one.
	used.mod = newTestModule(t)
	got, err := used.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExecutor(newTestModule(t)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if got.End != want.End || len(got.Trace) != 0 {
		t.Fatalf("reset executor ran to %d with %d traced commands, new one to %d with none",
			got.End, len(got.Trace), want.End)
	}
}

func TestConsecutiveWaitsAdd(t *testing.T) {
	m := newTestModule(t)
	tm := m.Timing()
	ex := NewExecutor(m)
	b := NewBuilder(tm.TCK)
	// 100 ns is not on the 1.5 ns grid: each wait rounds up to 100.5.
	b.Wait(dram.PicosFromNs(100)).Wait(dram.PicosFromNs(100))
	res, err := ex.Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	if res.End != 2*dram.PicosFromNs(100.5) {
		t.Fatalf("end = %v, want 201 ns", res.End)
	}
}

func TestAdvanceTo(t *testing.T) {
	m := newTestModule(t)
	ex := NewExecutor(m)
	ex.AdvanceTo(5000)
	if ex.Now() != 5000 {
		t.Fatal("AdvanceTo failed")
	}
	ex.AdvanceTo(1000) // backwards: no-op
	if ex.Now() != 5000 {
		t.Fatal("AdvanceTo moved backwards")
	}
}

func TestMultiReadPerActivation(t *testing.T) {
	// The multi-READ-per-activation pattern of Attack Improvement 3:
	// ACT, 3×RD, PRE per iteration.
	m := newTestModule(t)
	tm := m.Timing()
	b := NewBuilder(tm.TCK)
	const iters = 50
	for i := 0; i < iters; i++ {
		b.Act(0, 9).Wait(tm.TRCD)
		for col := 0; col < 3; col++ {
			b.Rd(0, col).Wait(tm.TCCD)
		}
		b.Wait(tm.TRAS). // covers tRTP and the tRAS remainder
					Pre(0).Wait(tm.TRP)
	}
	res, err := NewExecutor(m).Run(b.Program())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reads) != 3*iters {
		t.Fatalf("reads = %d, want %d", len(res.Reads), 3*iters)
	}
	if m.Stats().Acts != iters {
		t.Fatalf("acts = %d, want %d", m.Stats().Acts, iters)
	}
	// The victim row's ledger must reflect the stretched on-time:
	// ACT→PRE exceeds tRAS because of the reads.
	led := m.PeekLedger(0, 10)
	if led.Dist[0].Count != iters {
		t.Fatalf("ledger count %d", led.Dist[0].Count)
	}
	if led.Dist[0].AvgOnNs() <= tm.TRAS.Nanoseconds() {
		t.Fatalf("on-time %v not stretched beyond tRAS", led.Dist[0].AvgOnNs())
	}
}

func TestUnknownInstructionKindRejected(t *testing.T) {
	m := newTestModule(t)
	p := &Program{Instrs: []Instr{{Kind: Kind(99)}}}
	_, err := NewExecutor(m).Run(p)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("expected unknown-kind error, got %v", err)
	}
}
